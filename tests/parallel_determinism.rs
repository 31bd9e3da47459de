//! The parallel determinism contract (DESIGN.md §5.6): `Verifier::verify`
//! must produce byte-identical outcomes and statistics at every thread
//! count, on the hand-written workloads and on randomly generated instances.

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

/// Runs one system/property at the given thread counts and asserts that the
/// rendered `Outcome` (including the violation and every statistic) is
/// byte-identical across all of them. Every statistic includes the graph
/// build's memo counters (`post_enumerations`, `post_memo_hits`): the memos
/// are private to one `(T, β)` pair, so their counts cannot depend on which
/// worker built the pair.
fn assert_identical_across_threads(
    label: &str,
    system: &has::model::ArtifactSystem,
    property: &has::ltl::HltlFormula,
    config: VerifierConfig,
    thread_counts: &[usize],
) {
    let reference = Verifier::with_config(system, property, config.clone().with_threads(1)).verify();
    for &threads in thread_counts {
        let outcome =
            Verifier::with_config(system, property, config.clone().with_threads(threads)).verify();
        assert_eq!(
            format!("{reference:?}"),
            format!("{outcome:?}"),
            "{label}: outcome at threads={threads} differs from threads=1"
        );
        assert_eq!(
            reference.stats, outcome.stats,
            "{label}: stats at threads={threads} differ from threads=1"
        );
        assert_eq!(reference.holds, outcome.holds, "{label}");
    }
}

#[test]
fn travel_booking_is_deterministic_across_thread_counts() {
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_property(&t);
        assert_identical_across_threads(
            &format!("travel/{variant:?}"),
            &t.system,
            &property,
            capped(),
            &[2, 8],
        );
    }
}

/// The scheduling worst case for the old level-synchronized engine: a chain
/// of six tasks has exactly one task per hierarchy level, so level barriers
/// serialized everything. The readiness scheduler pipelines the chain — and
/// must still produce byte-identical outcomes at every thread count. (CI
/// runs this test binary under a timeout so a scheduler deadlock on this
/// shape fails fast instead of hanging the job.)
#[test]
fn deep_narrow_chain_is_deterministic_across_thread_counts() {
    let generated = GeneratorParams::deep_narrow(6).generate();
    assert_identical_across_threads(
        &generated.label,
        &generated.system,
        &generated.property,
        capped(),
        &[1, 2, 8],
    );
}

/// Witness reconstruction (DESIGN.md §5.7) extends the determinism contract
/// to *which* counterexample is reported: with retention on, the rendered
/// violation — witness tree included, since `Violation::witness` is part of
/// the compared `Debug` output — must stay byte-identical at every thread
/// count. The same holds for the Karp–Miller subsumption counters: each
/// query's pruned build depends only on its initial state, whichever worker
/// runs the pair. Exercised on the travel workload
/// (realistic hierarchy; violated buggy variant, holding fixed variant) and
/// the deep-narrow chain (the scheduler's worst case).
#[test]
fn witness_reconstruction_is_deterministic_across_thread_counts() {
    let config = capped().with_witnesses(true);
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_property(&t);
        assert_identical_across_threads(
            &format!("travel/{variant:?}+witnesses"),
            &t.system,
            &property,
            config.clone(),
            &[2, 8],
        );
    }
    let generated = GeneratorParams::deep_narrow(6).generate();
    assert_identical_across_threads(
        &format!("{}+witnesses", generated.label),
        &generated.system,
        &generated.property,
        config,
        &[1, 2, 8],
    );
}

#[test]
fn travel_liveness_is_deterministic_across_thread_counts() {
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_liveness_property(&t);
        assert_identical_across_threads(
            &format!("travel-liveness/{variant:?}"),
            &t.system,
            &property,
            capped(),
            &[1, 8],
        );
    }
}

#[test]
fn counter_gadget_is_deterministic_across_thread_counts() {
    let g = counter_gadget(2);
    let property = counter_liveness_property(&g);
    assert_identical_across_threads(
        "counter-gadget/d=2",
        &g.system,
        &property,
        capped(),
        &[1, 8],
    );
}

#[test]
fn order_fulfilment_is_deterministic_across_thread_counts() {
    let o = order_fulfilment();
    for (label, property) in [
        ("orders/ship-after-quote", ship_after_quote_property(&o)),
        ("orders/never-enqueue", never_enqueue_property(&o)),
    ] {
        assert_identical_across_threads(label, &o.system, &property, capped(), &[2, 8]);
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
        // Depth up to 3 so the work-stealing scheduler sees multi-level
        // readiness chains (not just leaf + root) on generated instances.
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

    /// `verify()` at `threads = 1` and at a thread count drawn alongside
    /// the instance agree on generated instances.
    #[test]
    fn parallel_agrees_with_sequential_on_generated_instances(
        params in arb_params(),
        threads in 2usize..=6,
    ) {
        let generated = params.generate();
        let config = VerifierConfig {
            max_successors: 16,
            max_control_states: 400,
            km_node_cap: 2_000,
            use_cells: params.arithmetic,
            ..VerifierConfig::default()
        };
        let seq = Verifier::with_config(
            &generated.system,
            &generated.property,
            config.clone().with_threads(1),
        )
        .verify();
        let par = Verifier::with_config(
            &generated.system,
            &generated.property,
            config.with_threads(threads),
        )
        .verify();
        prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"), "{}", generated.label);
        prop_assert_eq!(seq.stats, par.stats);
    }
}
