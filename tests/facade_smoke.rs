//! Smoke test for the `has` facade: every re-exported module is reachable
//! under its facade name, and a trivial workload verifies end to end through
//! facade paths only.

use has::arith::Rational;
use has::data::{DatabaseGenerator, GeneratorConfig};
use has::ltl::hltl::HltlBuilder;
use has::ltl::{HltlFormula, Ltl};
use has::model::{ArtifactSystem, Condition, SetUpdate, SystemBuilder};
use has::sim::{ExecutionConfig, Executor};
use has::symbolic::{Expr, TaskContext};
use has::vass::{CoverabilityGraph, Vass};
use has::verifier::{Outcome, Verifier, VerifierConfig};
use has::workloads::{travel_booking, TravelVariant};

/// Every facade module re-exports its headline types (compile-time check;
/// the `let` bindings keep the imports exercised rather than just resolved).
#[test]
fn facade_reexports_are_reachable() {
    // has::arith
    let one = Rational::from_int(1);
    assert_eq!(one, Rational::new(2, 2));
    // has::ltl
    let f: Ltl<u8> = Ltl::prop(0).eventually();
    assert!(f.eval_finite(1, &|_, _| true));
    // has::vass
    let mut v = Vass::new(2, 1);
    v.add_action(0, vec![1], 1);
    assert!(v.state_reachable(0, 1));
    assert!(CoverabilityGraph::build(&v, 0).path_to_state(1).is_some());
    // has::workloads
    let travel = travel_booking(TravelVariant::Fixed);
    assert!(!travel.system.schema.database.relations.is_empty());
    // has::symbolic — the expression type is nameable and displays.
    let _: Option<(Expr, TaskContext)> = None;
}

/// A one-task system built, verified, and simulated purely through the
/// facade: the tautology holds, the liveness property is refuted, and the
/// simulator executes the system on a generated database.
#[test]
fn trivial_workload_verifies_end_to_end() {
    let mut b = SystemBuilder::new("facade-smoke");
    let root = b.root_task("Main");
    let flag = b.num_var(root, "approved");
    b.internal_service(
        root,
        "approve",
        Condition::True,
        Condition::eq_const(flag, Rational::from_int(1)),
        SetUpdate::None,
    );
    b.internal_service(
        root,
        "idle",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    let system: ArtifactSystem = b.build().expect("well-formed system");

    let mut hb = HltlBuilder::new(root);
    let approved = hb.condition(Condition::eq_const(flag, Rational::from_int(1)));
    let tautology: HltlFormula = hb.finish(approved.clone().implies(approved).globally());

    let mut hb = HltlBuilder::new(root);
    let approved = hb.condition(Condition::eq_const(flag, Rational::from_int(1)));
    let liveness: HltlFormula = hb.finish(approved.eventually());

    let holds: Outcome =
        Verifier::with_config(&system, &tautology, VerifierConfig::default()).verify();
    assert!(holds.holds, "tautology must hold: {holds}");

    let refuted = Verifier::with_config(&system, &liveness, VerifierConfig::default()).verify();
    assert!(!refuted.holds, "the idle loop never approves: {refuted}");
    assert!(refuted.violation.is_some());

    // has::data + has::sim: execute the same system concretely.
    let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
    let db = generator.generate(&system.schema.database);
    let mut exec = Executor::new(&system, &db, ExecutionConfig::default());
    let runs = exec.run();
    // The "idle" service is always enabled, so a run must record steps.
    assert!(
        !runs.root().steps.is_empty(),
        "simulation recorded no steps"
    );
    assert!(runs.total_steps() > 0);
}
