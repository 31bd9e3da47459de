//! The headline regression of DESIGN.md §5.12: the Appendix A.2 policy
//! violation of the travel-booking example is actually *found*.
//!
//! Historically this instance reported `HOLDS (bounded search)`: a cap on
//! the related pairs the successor refinement branched over kept it from
//! *generating* the misbehaving `Cancel` configuration, and once it did,
//! the lasso decisions over the resulting Karp–Miller graphs used to grind
//! through the circulation LP for minutes. The refinement now branches over
//! every undecided related pair, and antichain subsumption pruning plus the
//! monotone-cycle fast path decide the whole instance in well under a
//! second. The verifier reports the violation the paper describes at the
//! default configuration and at `has_bench::fast_config`'s smaller caps, the
//! ones `tables` and `examples/travel_booking.rs` run. The fixed variant
//! still holds under each configuration, pinning both directions.

use has::verifier::{Verifier, VerifierConfig, ViolationKind};
use has::workloads::travel::{travel_booking, travel_property, TravelVariant};

/// Every cap at its default, witnesses on.
fn a2_config() -> VerifierConfig {
    VerifierConfig::default().with_witnesses(true)
}

/// `has_bench::fast_config`'s caps, the ones `tables` and
/// `examples/travel_booking.rs` run, with witnesses on.
fn fast_caps_config() -> VerifierConfig {
    VerifierConfig {
        max_successors: 24,
        max_control_states: 800,
        km_node_cap: 4_000,
        ..VerifierConfig::default()
    }
    .with_witnesses(true)
}

/// Appendix A.2, buggy variant: `Cancel` opens on `paid()` alone, so a
/// discounted `AlsoBookHotel` payment can be followed by a `CancelFlight`
/// without the discount penalty. The violation must be found within the
/// default *search* budgets — no node-cap inflation — and at the smaller
/// fast caps, and the witness tree must name the originating task.
#[test]
fn buggy_travel_violates_a2_within_default_search_budgets() {
    let t = travel_booking(TravelVariant::Buggy);
    let property = travel_property(&t);
    for config in [a2_config(), fast_caps_config()] {
        let outcome = Verifier::with_config(&t.system, &property, config.clone()).verify();
        assert!(
            !outcome.holds,
            "the Appendix A.2 violation must be found at {config:?}: {outcome}"
        );
        let violation = outcome
            .violation
            .as_ref()
            .expect("a violated outcome carries its violation");
        assert!(
            matches!(
                violation.kind,
                ViolationKind::Blocking | ViolationKind::Lasso | ViolationKind::Returning
            ),
            "kind = {:?}",
            violation.kind
        );
        let witness = violation
            .witness
            .as_ref()
            .expect("witness reconstruction was requested");
        assert_eq!(
            witness.task_name, "ManageTrips",
            "the violating run is a run of the root task"
        );
        assert!(
            violation.origin_name().is_some(),
            "the carrier chain resolves an originating task"
        );
    }
}

/// The corrected variant — `Cancel` waits for the hotel reservation — must
/// still hold under the identical configurations, so the violation above is
/// attributable to the guard and not to search-budget noise.
#[test]
fn fixed_travel_holds_under_the_same_budgets() {
    let t = travel_booking(TravelVariant::Fixed);
    let property = travel_property(&t);
    for config in [a2_config(), fast_caps_config()] {
        let outcome = Verifier::with_config(&t.system, &property, config).verify();
        assert!(outcome.holds, "the fixed variant must hold: {outcome}");
        assert!(outcome.violation.is_none());
    }
}

/// A Karp–Miller node cap far below what the A.2 queries need must not
/// pass silently: every truncated build is counted in `km_capped`.
#[test]
fn small_km_node_cap_is_reported_as_capped() {
    let t = travel_booking(TravelVariant::Buggy);
    let property = travel_property(&t);
    let config = VerifierConfig {
        km_node_cap: 8,
        ..a2_config()
    };
    let outcome = Verifier::with_config(&t.system, &property, config).verify();
    assert!(outcome.stats.km_capped > 0, "{outcome}");
}
