//! The headline regression of DESIGN.md §5.12: the Appendix A.2 policy
//! violation of the travel-booking example is actually *found*.
//!
//! Historically this instance reported `HOLDS (bounded search)`: at the
//! default `max_merge_pairs` the successor refinement never branches far
//! enough to *generate* the misbehaving `Cancel` configuration, and once it
//! does (12 merge pairs), the lasso decisions over the resulting
//! Karp–Miller graphs used to grind through the circulation LP for minutes.
//! Antichain subsumption pruning plus the monotone-cycle fast path
//! decide the whole instance in well under a second, with every *search*
//! budget — the 50 000-node Karp–Miller cap included — at its default, so
//! the verifier reports the violation the paper describes. The fixed
//! variant still holds under the identical configuration, pinning both
//! directions.

use has::verifier::{Verifier, VerifierConfig, ViolationKind};
use has::workloads::travel::{travel_booking, travel_property, TravelVariant};

/// Default search budgets, with only the abstraction-precision knob
/// (`max_merge_pairs`) raised to the branching depth the Appendix A.2
/// configuration needs. Every cap that bounds the *search* — successors,
/// control states, Karp–Miller nodes — stays at its default.
fn a2_config() -> VerifierConfig {
    VerifierConfig {
        max_merge_pairs: 12,
        ..VerifierConfig::default()
    }
    .with_witnesses(true)
}

/// Appendix A.2, buggy variant: `Cancel` opens on `paid()` alone, so a
/// discounted `AlsoBookHotel` payment can be followed by a `CancelFlight`
/// without the discount penalty. The violation must be found within the
/// default *search* budgets — no node-cap inflation — and the witness tree
/// must name the originating task.
#[test]
fn buggy_travel_violates_a2_within_default_search_budgets() {
    let t = travel_booking(TravelVariant::Buggy);
    let property = travel_property(&t);
    let outcome = Verifier::with_config(&t.system, &property, a2_config()).verify();
    assert!(
        !outcome.holds,
        "the Appendix A.2 violation must be found at default budgets: {outcome}"
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

/// The corrected variant — `Cancel` waits for the hotel reservation — must
/// still hold under the identical configuration, so the violation above is
/// attributable to the guard and not to search-budget noise.
#[test]
fn fixed_travel_holds_under_the_same_budgets() {
    let t = travel_booking(TravelVariant::Fixed);
    let property = travel_property(&t);
    let outcome = Verifier::with_config(&t.system, &property, a2_config()).verify();
    assert!(outcome.holds, "the fixed variant must hold: {outcome}");
    assert!(outcome.violation.is_none());
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
