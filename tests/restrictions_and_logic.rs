//! Integration tests for the model restrictions and the logic layer,
//! exercised through the public facade crate.

use has::ltl::hltl::HltlBuilder;
use has::ltl::{Buchi, Ltl};
use has::model::{Condition, SetUpdate, SystemBuilder, ValidationError};
use has_arith::Rational;

#[test]
fn restriction_3_is_enforced_through_the_facade() {
    let mut b = SystemBuilder::new("r3");
    let root = b.root_task("Root");
    let x = b.id_var(root, "x");
    b.input_vars(root, &[x]);
    let child = b.child_task(root, "Child");
    let cy = b.id_var(child, "cy");
    b.map_output(child, x, cy);
    assert!(matches!(
        b.build(),
        Err(ValidationError::ReturnOverlapsInput { .. })
    ));
}

#[test]
fn hierarchy_must_be_reachable_and_acyclic() {
    // The builder cannot produce broken hierarchies, so validate is exercised
    // on a correct one here and the negative cases live in the model crate's
    // unit tests.
    let mut b = SystemBuilder::new("ok");
    let root = b.root_task("Root");
    let _x = b.id_var(root, "x");
    let c1 = b.child_task(root, "C1");
    let _c2 = b.child_task(c1, "C2");
    let sys = b.build().unwrap();
    assert_eq!(sys.schema.depth(), 3);
    assert_eq!(sys.schema.descendants(root).len(), 2);
}

#[test]
fn buchi_automata_respect_finite_and_infinite_acceptance() {
    // φ = G(p → F q) on a finite trace p·q and on the lasso (p)(q)^ω.
    let p = Ltl::prop('p');
    let q = Ltl::prop('q');
    let phi = p.implies(q.eventually()).globally();
    let b = Buchi::from_ltl(&phi);
    let trace = ["p", "q"];
    let holds = |j: usize, c: &char| trace[j].contains(*c);
    assert!(b.accepts_finite(2, &holds));
    assert!(b.accepts_lasso(2, 1, &holds));
    // The lasso (p)^ω with no q violates the property.
    let trace2 = ["p"];
    let holds2 = |j: usize, c: &char| trace2[j].contains(*c);
    assert!(!b.accepts_lasso(1, 0, &holds2));
}

#[test]
fn hltl_formulas_flatten_into_per_task_obligations() {
    let mut b = SystemBuilder::new("flatten");
    let root = b.root_task("Root");
    let flag = b.num_var(root, "flag");
    let child = b.child_task(root, "Child");
    let c_flag = b.num_var(child, "c_flag");
    b.internal_service(
        root,
        "noop",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    b.internal_service(
        child,
        "noop",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    let sys = b.build().unwrap();

    let mut cb = HltlBuilder::new(child);
    let done = cb.condition(Condition::eq_const(c_flag, Rational::from_int(1)));
    let psi = cb.finish(done.eventually());

    let mut rb = HltlBuilder::new(root);
    let sub = rb.child(child, psi);
    let root_cond = rb.condition(Condition::eq_const(flag, Rational::ZERO));
    let property = rb.finish(sub.and(root_cond).globally());
    assert!(property.validate(&sys).is_ok());

    let flat = property.flatten();
    assert_eq!(flat.phi(root).len(), 1);
    assert_eq!(flat.phi(child).len(), 1);
    assert_eq!(flat.root_task, root);
}
