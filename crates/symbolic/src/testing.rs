//! Test support shared by the crate's property tests: a small one-task
//! system and random symbolic states over its contexts.

use crate::context::TaskContext;
use crate::state::SymState;
use has_arith::{LinExpr, LinearConstraint, Rational};
use has_model::{
    ArtifactSchema, ArtifactSystem, Condition, SetUpdate, SystemBuilder, Term, VarId, VarSort,
};
use proptest::prelude::*;

/// One task with two ID and two numeric variables, whose single service
/// relates them through a relation atom and a constant.
pub(crate) fn system() -> ArtifactSystem {
    let mut b = SystemBuilder::new("succ");
    b.relation("HOTELS", &["unit_price"], &[]);
    b.relation("FLIGHTS", &["price"], &[("comp_hotel", "HOTELS")]);
    let root = b.root_task("Root");
    let flight = b.id_var(root, "flight_id");
    let hotel = b.id_var(root, "hotel_id");
    let price = b.num_var(root, "price");
    let status = b.num_var(root, "status");
    let flights = b.relation_id("FLIGHTS").unwrap();
    let post = Condition::relation(
        flights,
        vec![Term::Var(flight), Term::Var(price), Term::Var(hotel)],
    )
    .and(Condition::eq_const(status, Rational::from_int(1)));
    b.internal_service(root, "choose", Condition::True, post, SetUpdate::None);
    b.build().unwrap()
}

/// The test system's context with property conditions that relate
/// more expression pairs (`hotel.unit_price` with `price` and
/// `status`, `price` with `1`, and the arithmetic pair `price`,
/// `status` with `0`), so the caps 6 and 12 keep different pair lists.
pub(crate) fn rich_context(system: &ArtifactSystem, depth: usize) -> TaskContext {
    let root = system.root();
    let var = |name| system.schema.var_by_name(root, name).unwrap();
    let (hotel, price, status) = (var("hotel_id"), var("price"), var("status"));
    let hotels = system.schema.database.relation_by_name("HOTELS").unwrap();
    let extra = [
        Condition::relation(hotels, vec![Term::Var(hotel), Term::Var(price)]),
        Condition::relation(hotels, vec![Term::Var(hotel), Term::Var(status)]),
        Condition::eq_const(price, Rational::from_int(1)),
        Condition::arith(LinearConstraint::ge(
            LinExpr::var(price) + LinExpr::var(status),
            LinExpr::zero(),
        )),
    ];
    TaskContext::build(system, root, &extra, depth)
}

/// One random step of building a state: bind an ID variable (to null
/// or a candidate relation), give a numeric variable a fresh value, or
/// union two expressions (the second related to the first, or any),
/// kept only when consistent. Indices are reduced modulo the choices.
#[derive(Clone, Debug)]
pub(crate) enum Step {
    Bind(usize, usize),
    Fresh(usize),
    Union(usize, usize, bool),
}

pub(crate) fn arb_steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        (0..4usize, 0..3usize).prop_map(|(v, r)| Step::Bind(v, r)),
        (0..4usize).prop_map(Step::Fresh),
        (0..64usize, 0..64usize, any::<bool>()).prop_map(|(a, b, rel)| Step::Union(a, b, rel)),
    ];
    proptest::collection::vec(step, 0..max)
}

/// Applies one step to `state` (see [`Step`]).
pub(crate) fn apply(ctx: &TaskContext, schema: &ArtifactSchema, state: &mut SymState, step: &Step) {
    let vars = &schema.task(ctx.task).variables;
    match *step {
        Step::Bind(v, r) => {
            let ids = ctx.id_vars();
            let v = ids[v % ids.len()];
            let rels = ctx.bindings_for(v);
            state.bind(ctx, v, (r < rels.len()).then(|| rels[r]));
        }
        Step::Fresh(v) => {
            let nums: Vec<VarId> = vars
                .iter()
                .copied()
                .filter(|&v| schema.variable(v).sort == VarSort::Numeric)
                .collect();
            state.fresh_numeric(ctx, nums[v % nums.len()]);
        }
        Step::Union(a, b, related) => {
            let (a, b) = union_pair(ctx, (a, b, related));
            let mut t = state.clone();
            if t.union(ctx, a, b).is_ok() {
                *state = t;
            }
        }
    }
}

/// The expression pair a union step names.
pub(crate) fn union_pair(
    ctx: &TaskContext,
    (a, b, related): (usize, usize, bool),
) -> (usize, usize) {
    let a = a % ctx.len();
    let rel = ctx.related_to(a);
    if related && !rel.is_empty() {
        (a, *rel.iter().nth(b % rel.len()).unwrap())
    } else {
        (a, b % ctx.len())
    }
}

pub(crate) fn random_state(ctx: &TaskContext, schema: &ArtifactSchema, steps: &[Step]) -> SymState {
    let mut state = SymState::blank(ctx, schema);
    for step in steps {
        apply(ctx, schema, &mut state, step);
    }
    state
}
