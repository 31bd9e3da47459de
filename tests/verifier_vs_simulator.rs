//! Cross-crate integration tests: the symbolic verifier against the concrete
//! simulator.
//!
//! The simulator is an under-approximation (one database, one finite random
//! execution), so the checkable relationship is one-sided: if the verifier
//! says a property *holds*, no simulated execution may violate it. The
//! differential sample is drawn from the ground-truth corpus generator
//! (`has::corpus`) so every parameter axis of the workload generator is
//! exercised; the hand-written orders cases below it are kept as named
//! regressions of the original harness.

use has::arith::{LinExpr, LinearConstraint, Rational};
use has::corpus::{sample, Certificate, CorpusParams};
use has::data::{DatabaseGenerator, GeneratorConfig};
use has::ltl::hltl::{HltlBuilder, HltlFormula};
use has::model::{ArtifactSystem, Condition, ServiceRef, SetUpdate, SystemBuilder, Term};
use has::sim::{monitor_property, ExecutionConfig, Executor};
use has::verifier::{Verifier, VerifierConfig};
use has::workloads::orders::{never_enqueue_property, order_fulfilment, ship_after_quote_property};

/// A corpus-drawn differential sample: for every instance the verifier
/// proves, no simulated execution may violate the property — and clean
/// certificates must in fact be proved.
#[test]
fn corpus_sample_verifier_vs_simulator() {
    let corpus = sample(&CorpusParams { seed: 3, count: 12 });
    for inst in &corpus {
        let outcome = Verifier::with_config(&inst.system, &inst.property, quick_config()).verify();
        if inst.certificate == Certificate::Clean {
            assert!(outcome.holds, "{}: {outcome}", inst.label);
        }
        if !outcome.holds {
            continue;
        }
        let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
        let db = generator.generate(&inst.system.schema.database);
        for seed in 0..5 {
            let mut exec = Executor::new(
                &inst.system,
                &db,
                ExecutionConfig {
                    seed,
                    max_steps: 150,
                    ..ExecutionConfig::default()
                },
            );
            let tree = exec.run();
            assert!(
                monitor_property(&inst.system, &db, &tree, &inst.property),
                "{}: simulation (seed {seed}) violated a property the verifier proved",
                inst.label
            );
        }
    }
}

fn quick_config() -> VerifierConfig {
    VerifierConfig {
        max_successors: 48,
        max_control_states: 3_000,
        ..VerifierConfig::default()
    }
}

#[test]
fn orders_safety_holds_and_simulation_agrees() {
    let o = order_fulfilment();
    let property = ship_after_quote_property(&o);
    let outcome = Verifier::with_config(&o.system, &property, quick_config()).verify();
    assert!(outcome.holds, "{outcome}");

    let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
    let db = generator.generate(&o.system.schema.database);
    for seed in 0..10 {
        let mut exec = Executor::new(
            &o.system,
            &db,
            ExecutionConfig {
                seed,
                max_steps: 250,
                ..ExecutionConfig::default()
            },
        );
        let tree = exec.run();
        assert!(
            monitor_property(&o.system, &db, &tree, &property),
            "simulation (seed {seed}) violated a property the verifier proved"
        );
    }
}

#[test]
fn orders_false_property_is_reported_violated() {
    let o = order_fulfilment();
    let property = never_enqueue_property(&o);
    let outcome = Verifier::with_config(&o.system, &property, quick_config()).verify();
    assert!(!outcome.holds, "{outcome}");
    assert!(outcome.violation.is_some());
    assert!(outcome.stats.control_states > 0);
}

/// A one-task system with a numeric `x` that `raise` sets above `k - 1`
/// (and `idle` leaves alone), paired with `G ¬(x>0 ∧ … ∧ x>k−1)`. Every
/// conjunct is an arithmetic atom the symbolic state leaves undetermined,
/// so the property has `k` undetermined propositions in every state; the
/// simulator violates it by raising once. `k` stays ≤ 5: on an empty
/// database the simulator samples numeric values from `0..5` only.
fn threshold_ladder(k: i64) -> (ArtifactSystem, HltlFormula) {
    let mut b = SystemBuilder::new("threshold-ladder");
    let root = b.root_task("Main");
    let x = b.num_var(root, "x");
    let above = |c: i64| {
        Condition::arith(LinearConstraint::gt(
            LinExpr::var(x),
            LinExpr::constant(Rational::from_int(c)),
        ))
    };
    b.internal_service(
        root,
        "raise",
        Condition::True,
        above(k - 1),
        SetUpdate::None,
    );
    b.internal_service(
        root,
        "idle",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    let system = b.build().expect("well-formed system");
    let mut hb = HltlBuilder::new(root);
    let mut all = hb.condition(above(0));
    for c in 1..k {
        all = all.and(hb.condition(above(c)));
    }
    let property = hb.finish(all.not().globally());
    (system, property)
}

#[test]
fn simulated_violations_are_never_missed_by_the_verifier() {
    // For every packaged false property, find a concrete violation by
    // simulation and check the verifier also reports the property as
    // violated.
    let o = order_fulfilment();
    let (ladder, ladder_property) = threshold_ladder(5);
    let pairs = [
        ("orders", o.system.clone(), never_enqueue_property(&o)),
        ("threshold ladder, k = 5", ladder, ladder_property),
    ];
    for (label, system, property) in pairs {
        let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
        let db = generator.generate(&system.schema.database);
        let violating_seed = (0..10).find(|&seed| {
            let mut exec = Executor::new(
                &system,
                &db,
                ExecutionConfig {
                    seed,
                    max_steps: 250,
                    ..ExecutionConfig::default()
                },
            );
            let tree = exec.run();
            !monitor_property(&system, &db, &tree, &property)
        });
        let seed = violating_seed
            .unwrap_or_else(|| panic!("{label}: no simulated run violates the property"));
        let outcome = Verifier::with_config(&system, &property, quick_config()).verify();
        assert!(
            !outcome.holds,
            "{label}: simulation (seed {seed}) violated the property but the verifier \
             reported `holds`"
        );
    }
}

/// `G ¬(x>5 ∧ x<3)` on a one-task system whose one service leaves the
/// numeric `x` unconstrained: no value satisfies both atoms, so the
/// property holds. Both atoms are undetermined in every symbolic state; the
/// Büchi label needing both is dropped when the automaton is compiled
/// (DESIGN.md §5.5). Before that, a three-valued letter matched it and the
/// verifier reported a spurious lasso.
#[test]
fn contradictory_arithmetic_atoms_are_never_violated() {
    let mut b = SystemBuilder::new("contradiction");
    let root = b.root_task("Main");
    let x = b.num_var(root, "x");
    b.internal_service(
        root,
        "any",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    let system = b.build().expect("well-formed system");
    let bound = |c: i64| LinExpr::constant(Rational::from_int(c));
    let mut hb = HltlBuilder::new(root);
    let above = hb.condition(Condition::arith(LinearConstraint::gt(
        LinExpr::var(x),
        bound(5),
    )));
    let below = hb.condition(Condition::arith(LinearConstraint::lt(
        LinExpr::var(x),
        bound(3),
    )));
    let property = hb.finish(above.and(below).not().globally());
    let outcome = Verifier::with_config(&system, &property, quick_config()).verify();
    assert!(outcome.holds, "{outcome:?}");
}

/// Verifies `property` on `system`, expects VIOLATED, and checks that some
/// simulated run (seeds `0..20`) violates the property too.
fn assert_violated_and_simulated(label: &str, system: &ArtifactSystem, property: &HltlFormula) {
    let outcome = Verifier::with_config(system, property, quick_config()).verify();
    assert!(!outcome.holds, "{label}: {outcome}");
    let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
    let db = generator.generate(&system.schema.database);
    let violated = (0..20).any(|seed| {
        let mut exec = Executor::new(
            system,
            &db,
            ExecutionConfig {
                seed,
                max_steps: 150,
                ..ExecutionConfig::default()
            },
        );
        !monitor_property(system, &db, &exec.run(), property)
    });
    assert!(violated, "{label}: no simulated run violates the property");
}

/// A child that both receives the parent's ID variable `h` (as `hin`) and
/// returns into it (from `hout`): a return into a `null` `h` writes the
/// picked hotel, so `G(Closing(Choose) → h = null)` is violated. The
/// return used to bind `h` once per map entry, so the passed `hin`
/// (`null`) overwrote the returned binding and the verifier reported
/// `holds`; without the `hin ← h` input it was already violated.
#[test]
fn a_variable_passed_and_returned_takes_the_returned_value() {
    let mut b = SystemBuilder::new("passed-and-returned");
    b.relation("HOTELS", &["price"], &[]);
    let hotels = b.relation_id("HOTELS").unwrap();
    let root = b.root_task("Main");
    let h = b.id_var(root, "h");
    let choose = b.child_task(root, "Choose");
    let hin = b.id_var(choose, "hin");
    let hout = b.id_var(choose, "hout");
    let price = b.num_var(choose, "price");
    b.map_input(choose, hin, h);
    b.internal_service(
        root,
        "reset",
        Condition::True,
        Condition::is_null(h),
        SetUpdate::None,
    );
    b.internal_service(
        choose,
        "pick",
        Condition::True,
        Condition::relation(hotels, vec![Term::Var(hout), Term::Var(price)]),
        SetUpdate::None,
    );
    b.close_when(choose, Condition::not_null(hout));
    b.map_output(choose, h, hout);
    let system = b.build().expect("well-formed system");
    let mut hb = HltlBuilder::new(root);
    let closing = hb.service(ServiceRef::Closing(choose));
    let null = hb.condition(Condition::is_null(h));
    let property = hb.finish(closing.implies(null).globally());
    assert_violated_and_simulated("ID variable", &system, &property);
}

/// The numeric counterpart: `Pick` opens only when `x = y`, receives both
/// (as `xin` and `yin`), and its return overwrites `x` with the picked
/// price, so `G(Closing(Pick) → x = y)` is violated (`idle` lets the root
/// run on). The return used to relate the overwritten `x` to `y` through
/// the passed `xin = yin`, which forced `x = y` after every return and made
/// the verifier report `holds`.
#[test]
fn a_passed_and_returned_numeric_forgets_its_passed_value() {
    let mut b = SystemBuilder::new("numeric-passed-and-returned");
    b.relation("HOTELS", &["price"], &[]);
    let hotels = b.relation_id("HOTELS").unwrap();
    let root = b.root_task("Main");
    let x = b.num_var(root, "x");
    let y = b.num_var(root, "y");
    let pick = b.child_task(root, "Pick");
    let xin = b.num_var(pick, "xin");
    let yin = b.num_var(pick, "yin");
    let hid = b.id_var(pick, "hid");
    let xout = b.num_var(pick, "xout");
    b.map_input(pick, xin, x);
    b.map_input(pick, yin, y);
    b.open_when(pick, Condition::var_eq(x, y));
    b.internal_service(
        root,
        "idle",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    b.internal_service(
        pick,
        "pick",
        Condition::True,
        Condition::relation(hotels, vec![Term::Var(hid), Term::Var(xout)]),
        SetUpdate::None,
    );
    b.close_when(pick, Condition::not_null(hid));
    b.map_output(pick, x, xout);
    let system = b.build().expect("well-formed system");
    let mut hb = HltlBuilder::new(root);
    let closing = hb.service(ServiceRef::Closing(pick));
    let equal = hb.condition(Condition::var_eq(x, y));
    let property = hb.finish(closing.implies(equal).globally());
    assert_violated_and_simulated("numeric variable", &system, &property);
}

/// A sibling return relates to the passed variable's old value only while
/// that variable keeps it: `Pick` receives `x` (as `xin`), returns the
/// picked price into `x` and its copy of `xin` into `z`, so after a return
/// `z` holds the old `x` and `G(Closing(Pick) → x = z)` is violated.
/// Relating `z` to `x` through `zout = xin` would force `x = z`.
#[test]
fn a_return_does_not_relate_to_the_overwritten_passed_value() {
    let mut b = SystemBuilder::new("overwritten-passed-value");
    b.relation("HOTELS", &["price"], &[]);
    let hotels = b.relation_id("HOTELS").unwrap();
    let root = b.root_task("Main");
    let x = b.num_var(root, "x");
    let z = b.num_var(root, "z");
    let pick = b.child_task(root, "Pick");
    let xin = b.num_var(pick, "xin");
    let hid = b.id_var(pick, "hid");
    let xout = b.num_var(pick, "xout");
    let zout = b.num_var(pick, "zout");
    b.map_input(pick, xin, x);
    b.internal_service(
        root,
        "idle",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    b.internal_service(
        pick,
        "pick",
        Condition::True,
        Condition::relation(hotels, vec![Term::Var(hid), Term::Var(xout)])
            .and(Condition::var_eq(zout, xin)),
        SetUpdate::None,
    );
    b.close_when(pick, Condition::not_null(hid));
    b.map_output(pick, x, xout);
    b.map_output(pick, z, zout);
    let system = b.build().expect("well-formed system");
    let mut hb = HltlBuilder::new(root);
    let closing = hb.service(ServiceRef::Closing(pick));
    let equal = hb.condition(Condition::var_eq(x, z));
    let property = hb.finish(closing.implies(equal).globally());
    assert_violated_and_simulated("sibling return", &system, &property);
}
