//! Test support shared by the crate's property tests: a small one-task
//! system, random variants of it (input variables, internal services and
//! context conditions drawn from one atom pool) and random symbolic states
//! over their contexts.

use crate::context::TaskContext;
use crate::state::SymState;
use has_arith::{LinExpr, LinearConstraint, Rational};
use has_model::{
    ArtifactSchema, ArtifactSystem, Condition, RelationId, SetUpdate, SystemBuilder, Term, VarId,
    VarSort,
};
use proptest::prelude::*;

/// One task with two ID and two numeric variables, whose single service
/// relates them through a relation atom and a constant.
pub(crate) fn system() -> ArtifactSystem {
    // FLIGHTS(flight_id, price, hotel_id) ∧ status = 1.
    random_system(0, &[vec![vec![(0, false), (3, false)]]])
}

/// The test system's context with property conditions that relate
/// more expression pairs (`hotel.unit_price` with `price` and
/// `status`, `price` with `1`, and the arithmetic pair `price`,
/// `status` with `0`).
pub(crate) fn rich_context(system: &ArtifactSystem, depth: usize) -> TaskContext {
    random_context(
        system,
        depth,
        &vec![vec![(1, false), (2, false), (4, false), (8, false)]],
    )
}

/// The number of atoms in [`atom`]'s pool.
const ATOMS: usize = 10;

/// Atom `k` of the pool random services and contexts draw from, over the
/// root variables `[flight_id, hotel_id, price, status]` of
/// [`random_system`]'s schema and its relations `FLIGHTS` and `HOTELS`.
fn atom(vars: [VarId; 4], flights: RelationId, hotels: RelationId, k: usize) -> Condition {
    let [flight, hotel, price, status] = vars;
    let sum = || LinExpr::var(price) + LinExpr::var(status);
    match k % ATOMS {
        0 => Condition::relation(
            flights,
            vec![Term::Var(flight), Term::Var(price), Term::Var(hotel)],
        ),
        1 => Condition::relation(hotels, vec![Term::Var(hotel), Term::Var(price)]),
        2 => Condition::relation(hotels, vec![Term::Var(hotel), Term::Var(status)]),
        3 => Condition::eq_const(status, Rational::from_int(1)),
        4 => Condition::eq_const(price, Rational::from_int(1)),
        5 => Condition::eq_const(price, Rational::from_int(0)),
        6 => Condition::var_eq(price, status),
        7 => Condition::is_null(flight),
        8 => Condition::arith(LinearConstraint::ge(sum(), LinExpr::zero())),
        _ => Condition::arith(LinearConstraint::ge(
            LinExpr::var(status),
            LinExpr::constant(Rational::from_int(2)),
        )),
    }
}

/// A formula in disjunctive normal form over [`atom`]'s pool: each inner
/// list is a conjunction of `(atom, negated)` literals.
pub(crate) type Dnf = Vec<Vec<(usize, bool)>>;

/// Random [`Dnf`]s of one to two conjunctions of up to three literals.
pub(crate) fn arb_dnf() -> impl Strategy<Value = Dnf> {
    let literal = (0..ATOMS, any::<bool>());
    proptest::collection::vec(proptest::collection::vec(literal, 0..=3), 1..=2)
}

/// The condition a [`Dnf`] denotes.
fn dnf_condition(
    vars: [VarId; 4],
    flights: RelationId,
    hotels: RelationId,
    dnf: &Dnf,
) -> Condition {
    Condition::any(dnf.iter().map(|conjunction| {
        Condition::all(conjunction.iter().map(|&(k, negated)| {
            let a = atom(vars, flights, hotels, k);
            if negated {
                a.negate()
            } else {
                a
            }
        }))
    }))
}

/// The test schema (relations `HOTELS` and `FLIGHTS`; a root task with ID
/// variables `flight_id`, `hotel_id` and numeric variables `price`,
/// `status`), with the root variables selected by the bits of `inputs`
/// declared input variables and one internal service per post-condition
/// in `posts`.
pub(crate) fn random_system(inputs: u8, posts: &[Dnf]) -> ArtifactSystem {
    let mut b = SystemBuilder::new("succ");
    b.relation("HOTELS", &["unit_price"], &[]);
    b.relation("FLIGHTS", &["price"], &[("comp_hotel", "HOTELS")]);
    let root = b.root_task("Root");
    let vars = [
        b.id_var(root, "flight_id"),
        b.id_var(root, "hotel_id"),
        b.num_var(root, "price"),
        b.num_var(root, "status"),
    ];
    let (flights, hotels) = (
        b.relation_id("FLIGHTS").unwrap(),
        b.relation_id("HOTELS").unwrap(),
    );
    let selected: Vec<VarId> = (0..4)
        .filter(|i| inputs & (1 << i) != 0)
        .map(|i| vars[i])
        .collect();
    b.input_vars(root, &selected);
    for (i, post) in posts.iter().enumerate() {
        let post = dnf_condition(vars, flights, hotels, post);
        b.internal_service(
            root,
            &format!("s{i}"),
            Condition::True,
            post,
            SetUpdate::None,
        );
    }
    b.build().unwrap()
}

/// The root context of a [`random_system`] with `extra` as its property
/// conditions, which relate further expression pairs.
pub(crate) fn random_context(system: &ArtifactSystem, depth: usize, extra: &Dnf) -> TaskContext {
    let root = system.root();
    let var = |name| system.schema.var_by_name(root, name).unwrap();
    let vars = [
        var("flight_id"),
        var("hotel_id"),
        var("price"),
        var("status"),
    ];
    let rel = |name| system.schema.database.relation_by_name(name).unwrap();
    let extra = [dnf_condition(vars, rel("FLIGHTS"), rel("HOTELS"), extra)];
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
