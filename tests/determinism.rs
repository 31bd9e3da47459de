//! The determinism contract (DESIGN.md §5.6): `Verifier::verify` must
//! produce byte-identical outcomes and statistics from run to run, on the
//! hand-written workloads and on randomly generated instances. Each case
//! verifies twice in one process: every `HashMap` and `HashSet` draws fresh
//! `RandomState` keys, so an outcome that leaked hash iteration order would
//! differ between the two runs.

use has::verifier::{Verifier, VerifierConfig};
use has::workloads::counters::{counter_gadget, counter_liveness_property};
use has::workloads::generator::GeneratorParams;
use has::workloads::orders::{never_enqueue_property, order_fulfilment, ship_after_quote_property};
use has::workloads::travel::{
    travel_booking, travel_liveness_property, travel_property, TravelVariant,
};
use has_model::SchemaClass;
use proptest::prelude::*;

/// Caps matching `has_bench::fast_config` so the sweep stays quick in debug
/// builds; the determinism contract is cap-independent.
fn capped() -> VerifierConfig {
    VerifierConfig {
        max_successors: 24,
        max_control_states: 800,
        km_node_cap: 4_000,
        ..VerifierConfig::default()
    }
}

/// Verifies one system/property twice and asserts that the rendered
/// `Outcome` (including the violation and every statistic) is
/// byte-identical. Every statistic includes the graph build's memo counters
/// (`post_enumerations`, `post_memo_hits`): the pairs run in canonical
/// order, so even their per-pair split is fixed.
fn assert_deterministic(
    label: &str,
    system: &has::model::ArtifactSystem,
    property: &has::ltl::HltlFormula,
    config: VerifierConfig,
) {
    let first = Verifier::with_config(system, property, config.clone()).verify();
    let second = Verifier::with_config(system, property, config).verify();
    assert_eq!(
        format!("{first:?}"),
        format!("{second:?}"),
        "{label}: outcome differs between two runs"
    );
}

#[test]
fn travel_booking_is_deterministic() {
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_property(&t);
        assert_deterministic(
            &format!("travel/{variant:?}"),
            &t.system,
            &property,
            capped(),
        );
    }
}

/// A chain of six tasks, one task per hierarchy level: the deepest
/// bottom-up order the generator makes.
#[test]
fn deep_narrow_chain_is_deterministic() {
    let generated = GeneratorParams::deep_narrow(6).generate();
    assert_deterministic(
        &generated.label,
        &generated.system,
        &generated.property,
        capped(),
    );
}

/// Witness reconstruction (DESIGN.md §5.7) extends the determinism contract
/// to *which* counterexample is reported: with retention on, the rendered
/// violation — witness tree included, since `Violation::witness` is part of
/// the compared `Debug` output — must stay byte-identical from run to run.
/// Exercised on the travel workload (realistic hierarchy; violated buggy
/// variant, holding fixed variant) and the deep-narrow chain.
#[test]
fn witness_reconstruction_is_deterministic() {
    let config = capped().with_witnesses(true);
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_property(&t);
        assert_deterministic(
            &format!("travel/{variant:?}+witnesses"),
            &t.system,
            &property,
            config.clone(),
        );
    }
    let generated = GeneratorParams::deep_narrow(6).generate();
    assert_deterministic(
        &format!("{}+witnesses", generated.label),
        &generated.system,
        &generated.property,
        config,
    );
}

#[test]
fn travel_liveness_is_deterministic() {
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_liveness_property(&t);
        assert_deterministic(
            &format!("travel-liveness/{variant:?}"),
            &t.system,
            &property,
            capped(),
        );
    }
}

#[test]
fn counter_gadget_is_deterministic() {
    let g = counter_gadget(2);
    let property = counter_liveness_property(&g);
    assert_deterministic("counter-gadget/d=2", &g.system, &property, capped());
}

#[test]
fn order_fulfilment_is_deterministic() {
    let o = order_fulfilment();
    for (label, property) in [
        ("orders/ship-after-quote", ship_after_quote_property(&o)),
        ("orders/never-enqueue", never_enqueue_property(&o)),
    ] {
        assert_deterministic(label, &o.system, &property, capped());
    }
}

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
        // Depth up to 3 so the bottom-up order spans several levels (not
        // just leaf + root) on generated instances.
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two `verify()` runs agree on generated instances.
    #[test]
    fn generated_instances_are_deterministic(params in arb_params()) {
        let generated = params.generate();
        let config = VerifierConfig {
            max_successors: 16,
            max_control_states: 400,
            km_node_cap: 2_000,
            use_cells: params.arithmetic,
            ..VerifierConfig::default()
        };
        let first = Verifier::with_config(&generated.system, &generated.property, config.clone())
            .verify();
        let second = Verifier::with_config(&generated.system, &generated.property, config).verify();
        prop_assert_eq!(format!("{first:?}"), format!("{second:?}"), "{}", generated.label);
    }
}
