//! Golden outcomes: the rendered verdict, violation kind, origin, input
//! description and witness tree of the travel Appendix A.2 instances and the
//! counter gadget, pinned byte for byte. `Stats` is left out on purpose —
//! cost counters may move when the search changes; what the verifier
//! *concludes* and *reports* must not.
//!
//! The expected renderings live in `tests/goldens/`, one file per instance.
//! Both configurations pin the shared Karp–Miller arena on, so a suite run
//! under `HAS_SHARED_KM=0` still checks the engine the goldens came from.

use has::verifier::{Outcome, Verifier, VerifierConfig};
use has::workloads::counters::{counter_gadget, counter_liveness_property};
use has::workloads::travel::{travel_booking, travel_property, TravelVariant};

/// Everything an outcome reports except its statistics.
fn render(outcome: &Outcome) -> String {
    let Some(v) = &outcome.violation else {
        return format!("holds: {}\n", outcome.holds);
    };
    let witness = v
        .witness
        .as_ref()
        .map_or_else(|| " none\n".to_string(), |w| format!("\n{w}"));
    format!(
        "holds: {}\nkind: {}\norigin: {}\ninput: {}\nwitness:{witness}",
        outcome.holds,
        v.kind,
        v.origin_name().unwrap_or("(root)"),
        v.input_description,
    )
}

fn assert_golden(golden: &str, outcome: &Outcome) {
    let actual = render(outcome);
    assert!(
        actual == golden,
        "rendered outcome differs from its golden:\n--- expected\n{golden}\n--- actual\n{actual}"
    );
}

/// The `tests/a2_violation.rs` configuration: default search budgets,
/// `max_merge_pairs = 12`, witnesses on.
fn a2_config() -> VerifierConfig {
    VerifierConfig {
        max_merge_pairs: 12,
        ..VerifierConfig::default()
    }
    .with_witnesses(true)
    .with_threads(1)
    .with_shared_km(true)
}

/// `has_bench::fast_config`'s caps, with witnesses on.
fn gadget_config() -> VerifierConfig {
    VerifierConfig {
        max_successors: 24,
        max_control_states: 800,
        km_node_cap: 4_000,
        ..VerifierConfig::default()
    }
    .with_witnesses(true)
    .with_threads(1)
    .with_shared_km(true)
}

fn travel_a2(variant: TravelVariant) -> Outcome {
    let t = travel_booking(variant);
    let property = travel_property(&t);
    Verifier::with_config(&t.system, &property, a2_config()).verify()
}

fn gadget(d: usize) -> Outcome {
    let g = counter_gadget(d);
    let property = counter_liveness_property(&g);
    Verifier::with_config(&g.system, &property, gadget_config()).verify()
}

#[test]
fn travel_a2_buggy_outcome_matches_golden() {
    assert_golden(
        include_str!("goldens/travel_a2_buggy.txt"),
        &travel_a2(TravelVariant::Buggy),
    );
}

#[test]
fn travel_a2_fixed_outcome_matches_golden() {
    assert_golden(
        include_str!("goldens/travel_a2_fixed.txt"),
        &travel_a2(TravelVariant::Fixed),
    );
}

#[test]
fn counter_gadget_outcomes_match_goldens() {
    let goldens = [
        include_str!("goldens/counter_gadget_d1.txt"),
        include_str!("goldens/counter_gadget_d2.txt"),
        include_str!("goldens/counter_gadget_d3.txt"),
    ];
    for (d, golden) in (1..=3).zip(goldens) {
        assert_golden(golden, &gadget(d));
    }
}
