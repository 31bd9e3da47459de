//! End-to-end contract of the static analyzer (`has-analysis`): every
//! system the workload generator can produce validates and analyzes without
//! `Error`-severity diagnostics, and a hand-built model with a provably
//! unsatisfiable guard is reported dead (`HAS105`) and pruned by the
//! verifier, which makes it more precise than its optimistic arithmetic.

use has::analysis::{analyze, Severity};
use has::arith::{LinExpr, LinearConstraint, Rational};
use has::ltl::hltl::HltlBuilder;
use has::model::{Condition, SetUpdate, SystemBuilder};
use has::verifier::{Verifier, VerifierConfig};
use has::workloads::generator::GeneratorParams;
use has_model::SchemaClass;
use proptest::prelude::*;

/// Strategy: a small random parameter point of the Tables 1/2 generator.
fn arb_params() -> impl Strategy<Value = GeneratorParams> {
    (
        prop_oneof![
            Just(SchemaClass::Acyclic),
            Just(SchemaClass::LinearlyCyclic),
            Just(SchemaClass::Cyclic),
        ],
        any::<bool>(),
        any::<bool>(),
        1usize..=3,
        1usize..=2,
        1usize..=2,
    )
        .prop_map(
            |(schema_class, artifact_relations, arithmetic, depth, width, numeric_vars)| {
                GeneratorParams {
                    schema_class,
                    artifact_relations,
                    arithmetic,
                    depth,
                    width,
                    numeric_vars,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The generator only produces well-formed systems: analysis runs to
    /// completion and reports no `Error`-severity diagnostic on any
    /// parameter point (warnings about e.g. write-only columns are fine).
    #[test]
    fn generated_systems_analyze_without_errors(params in arb_params()) {
        let generated = params.generate();
        let report = analyze(&generated.system, Some(&generated.property));
        prop_assert!(
            !report.has_errors(),
            "{}: {}",
            generated.label,
            report
        );
    }
}

/// The deep-narrow stress family is covered explicitly (it is not in the
/// random grid's parameter box).
#[test]
fn deep_narrow_chain_analyzes_without_errors() {
    let generated = GeneratorParams::deep_narrow(6).generate();
    let report = analyze(&generated.system, Some(&generated.property));
    assert!(!report.has_errors(), "{}", report);
}

/// A root task with one live service and one whose guard is the
/// contradiction `x = 0 ∧ x = 1`. The property only observes the live
/// service's effect, so the dead one is semantically irrelevant — which is
/// exactly what the analyzer must prove and the verifier must exploit.
fn dead_guard_fixture() -> (has::model::ArtifactSystem, has::ltl::HltlFormula) {
    let mut b = SystemBuilder::new("dead-guard");
    let root = b.root_task("Main");
    let x = b.num_var(root, "x");
    b.internal_service(
        root,
        "live",
        Condition::True,
        Condition::eq_const(x, Rational::from_int(1)),
        SetUpdate::None,
    );
    b.internal_service(
        root,
        "stuck",
        Condition::eq_const(x, Rational::ZERO).and(Condition::eq_const(x, Rational::from_int(1))),
        Condition::eq_const(x, Rational::from_int(2)),
        SetUpdate::None,
    );
    let system = b.build().unwrap();
    let mut hb = HltlBuilder::new(system.root());
    let set = hb.condition(Condition::eq_const(x, Rational::from_int(1)));
    let property = hb.finish(set.eventually());
    (system, property)
}

/// The unsatisfiable guard is decided exactly and reported as `HAS105`.
#[test]
fn unsatisfiable_guard_is_reported_dead() {
    let (system, property) = dead_guard_fixture();
    let report = analyze(&system, Some(&property));
    assert!(!report.has_errors(), "{report}");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == 105 && d.severity == Severity::Warning),
        "expected HAS105 for `stuck`: {report}"
    );
    assert_eq!(report.dead_guard_count(), 1, "{report}");
}

/// A root task whose only service that sets `flag = 1` is guarded by the
/// arithmetic contradiction `x < 0 ∧ 0 < x`. The symbolic layer resolves
/// arithmetic atoms optimistically (DESIGN.md §5.5), so on its own it would
/// let the guard fire; only the analyzer's exact Fourier–Motzkin decision
/// proves it dead.
fn dead_arithmetic_guard_fixture() -> (has::model::ArtifactSystem, has::ltl::HltlFormula) {
    let mut b = SystemBuilder::new("dead-arithmetic-guard");
    let root = b.root_task("Main");
    let x = b.num_var(root, "x");
    let flag = b.num_var(root, "flag");
    let zero = || LinExpr::zero();
    b.internal_service(
        root,
        "tick",
        Condition::True,
        Condition::eq_const(flag, Rational::ZERO),
        SetUpdate::None,
    );
    b.internal_service(
        root,
        "raise",
        Condition::arith(LinearConstraint::lt(LinExpr::var(x), zero())).and(Condition::arith(
            LinearConstraint::lt(zero(), LinExpr::var(x)),
        )),
        Condition::eq_const(flag, Rational::ONE),
        SetUpdate::None,
    );
    let system = b.build().unwrap();
    let mut hb = HltlBuilder::new(system.root());
    let raised = hb.condition(Condition::eq_const(flag, Rational::ONE));
    let property = hb.finish(raised.not().globally());
    (system, property)
}

/// The verifier always prunes the dead service from graph construction
/// (visible in `Stats::dead_services_pruned`), and the pruning adds
/// precision: without it the optimistic arithmetic fires `raise` and
/// reports a spurious lasso.
#[test]
fn dead_arithmetic_guard_is_pruned_and_holds() {
    let (system, property) = dead_arithmetic_guard_fixture();
    let outcome = Verifier::with_config(&system, &property, VerifierConfig::default()).verify();
    assert_eq!(outcome.stats.dead_services_pruned, 1, "{}", outcome.stats);
    assert!(outcome.holds, "{:?}", outcome.violation);
}
