//! End-to-end checks over the packaged workloads and generated families.

use has::model::{validate, SchemaClass};
use has::verifier::{Verifier, VerifierConfig};
use has::workloads::counters::{counter_gadget, counter_liveness_property};
use has::workloads::generator::GeneratorParams;
use has::workloads::travel::{travel_booking, travel_property, TravelVariant};

fn quick_config() -> VerifierConfig {
    VerifierConfig {
        max_successors: 48,
        max_control_states: 3_000,
        ..VerifierConfig::default()
    }
}

#[test]
fn generated_families_verify_within_bounds() {
    for class in [
        SchemaClass::Acyclic,
        SchemaClass::LinearlyCyclic,
        SchemaClass::Cyclic,
    ] {
        for artifact_relations in [false, true] {
            let params = GeneratorParams {
                schema_class: class,
                artifact_relations,
                arithmetic: false,
                depth: 2,
                width: 1,
                numeric_vars: 1,
            };
            let g = params.generate();
            assert!(validate(&g.system).is_ok());
            let outcome = Verifier::with_config(&g.system, &g.property, quick_config()).verify();
            // Generated properties are liveness guarantees about children;
            // either answer is acceptable (the point is cost measurement),
            // but the verifier must terminate and report statistics.
            assert!(outcome.stats.control_states > 0, "{}", g.label);
        }
    }
}

#[test]
fn generated_cost_grows_with_artifact_relations() {
    let base = GeneratorParams {
        schema_class: SchemaClass::Acyclic,
        artifact_relations: false,
        ..GeneratorParams::default()
    };
    let with_sets = GeneratorParams {
        artifact_relations: true,
        ..base.clone()
    };
    let g0 = base.generate();
    let g1 = with_sets.generate();
    let o0 = Verifier::with_config(&g0.system, &g0.property, quick_config()).verify();
    let o1 = Verifier::with_config(&g1.system, &g1.property, quick_config()).verify();
    // Adding artifact relations adds counter dimensions and never reduces the
    // explored state space (the Table 1 row ordering).
    assert!(o1.stats.counter_dimensions > o0.stats.counter_dimensions);
    assert!(o1.stats.control_states >= o0.stats.control_states);
}

#[test]
fn counter_gadget_is_verifiable_under_hltl_fo() {
    let g = counter_gadget(2);
    let property = counter_liveness_property(&g);
    let outcome = Verifier::with_config(&g.system, &property, quick_config()).verify();
    // The liveness property is violated (a counter task may stop
    // decrementing); what matters is that HLTL-FO verification of the gadget
    // terminates — unlike the cross-task LTL of Theorem 11, which is not
    // expressible in the property language at all.
    assert!(outcome.stats.control_states > 0);
}

#[test]
fn travel_booking_variants_build_with_property() {
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        assert!(validate(&t.system).is_ok());
        let p = travel_property(&t);
        assert!(p.validate(&t.system).is_ok());
    }
}
