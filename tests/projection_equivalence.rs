//! The projection soundness contract (DESIGN.md §5.9): cone-of-influence
//! projection and dead-guard pruning are *exact* — `Verifier::verify` must
//! report the same verdict (holds, violation kind, violating input type)
//! with projection on and off, and each setting must stay byte-identical
//! across thread counts.
//!
//! The comparison is verdict-level, not statistics-level: projection exists
//! precisely to shrink the coverability graphs, so `km-nodes` and the
//! `proj` dimensions differ between the two settings by design.

use has::verifier::{Verifier, VerifierConfig, ViolationKind};
use has::workloads::counters::{counter_gadget, counter_liveness_property};
use has::workloads::generator::GeneratorParams;
use has::workloads::orders::{never_enqueue_property, order_fulfilment, ship_after_quote_property};
use has::workloads::travel::{travel_booking, travel_liveness_property, TravelVariant};
use has_model::SchemaClass;
use proptest::prelude::*;

/// Caps matching `has_bench::fast_config` so the sweep stays quick in debug
/// builds.
fn capped() -> VerifierConfig {
    VerifierConfig {
        max_successors: 24,
        max_control_states: 800,
        km_node_cap: 4_000,
        ..VerifierConfig::default()
    }
}

/// The verdict triple the equivalence contract compares: everything the
/// verifier *concludes*, none of what it *spent*.
fn verdict(outcome: &has::verifier::Outcome) -> (bool, Option<ViolationKind>, Option<String>) {
    (
        outcome.holds,
        outcome.violation.as_ref().map(|v| v.kind),
        outcome.violation.as_ref().map(|v| v.input_description.clone()),
    )
}

/// Verifies one instance with projection off and on, asserting equal
/// verdicts; within each setting, asserts the rendered outcome is
/// byte-identical at every given thread count.
fn assert_projection_equivalent(
    label: &str,
    system: &has::model::ArtifactSystem,
    property: &has::ltl::HltlFormula,
    config: VerifierConfig,
    thread_counts: &[usize],
) {
    let mut reference = None;
    for projection in [false, true] {
        let config = config.clone().with_projection(projection);
        let base =
            Verifier::with_config(system, property, config.clone().with_threads(1)).verify();
        for &threads in thread_counts {
            let outcome =
                Verifier::with_config(system, property, config.clone().with_threads(threads))
                    .verify();
            assert_eq!(
                format!("{base:?}"),
                format!("{outcome:?}"),
                "{label}: projection={projection} outcome at threads={threads} \
                 differs from threads=1"
            );
        }
        match &reference {
            None => reference = Some(verdict(&base)),
            Some(r) => assert_eq!(
                r,
                &verdict(&base),
                "{label}: verdict with projection differs from without"
            ),
        }
    }
}

#[test]
fn travel_liveness_verdict_is_projection_invariant() {
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_liveness_property(&t);
        assert_projection_equivalent(
            &format!("travel-liveness/{variant:?}"),
            &t.system,
            &property,
            capped(),
            &[1, 8],
        );
    }
}

#[test]
fn order_fulfilment_verdict_is_projection_invariant() {
    let o = order_fulfilment();
    for (label, property) in [
        ("orders/ship-after-quote", ship_after_quote_property(&o)),
        ("orders/never-enqueue", never_enqueue_property(&o)),
    ] {
        assert_projection_equivalent(label, &o.system, &property, capped(), &[1, 8]);
    }
}

#[test]
fn counter_gadget_verdict_is_projection_invariant() {
    let g = counter_gadget(2);
    let property = counter_liveness_property(&g);
    assert_projection_equivalent("counter-gadget/d=2", &g.system, &property, capped(), &[1, 8]);
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

    /// Projection preserves the verdict on generated instances too, at
    /// one and several worker threads.
    #[test]
    fn generated_instances_are_projection_invariant(params in arb_params()) {
        let generated = params.generate();
        let config = VerifierConfig {
            max_successors: 16,
            max_control_states: 400,
            km_node_cap: 2_000,
            use_cells: params.arithmetic,
            ..VerifierConfig::default()
        };
        let mut reference = None;
        for projection in [false, true] {
            let config = config.clone().with_projection(projection);
            let seq = Verifier::with_config(
                &generated.system,
                &generated.property,
                config.clone().with_threads(1),
            )
            .verify();
            let par = Verifier::with_config(
                &generated.system,
                &generated.property,
                config.with_threads(8),
            )
            .verify();
            prop_assert_eq!(
                format!("{seq:?}"),
                format!("{par:?}"),
                "{}: projection={} differs across threads",
                generated.label,
                projection
            );
            match &reference {
                None => reference = Some(verdict(&seq)),
                Some(r) => prop_assert_eq!(
                    r,
                    &verdict(&seq),
                    "{}: verdict changed under projection",
                    generated.label
                ),
            }
        }
    }
}
