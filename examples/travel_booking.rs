//! The paper's running example (Appendix A): verifying the travel-booking
//! process against the discount/cancellation policy of Appendix A.2.
//!
//! The buggy specification lets `Cancel` run while `AddHotel` is still
//! adding a discounted hotel, so the flight can be cancelled with a full
//! refund even though the discount is kept — the property is violated. The
//! fixed specification guards `Cancel` so the hotel reservation must be
//! visible first, and the property holds.
//!
//! Run with `cargo run --release --example travel_booking`.
//!
//! After the two policy checks, the example re-verifies the buggy variant
//! against the simple liveness property `F (status = PAID)` with witness
//! reconstruction on and prints the resulting counterexample tree — the
//! end-to-end "reading a counterexample" walkthrough in the README steps
//! through that output line by line.

use has::verifier::{Verifier, VerifierConfig};
use has::workloads::travel::{
    travel_booking, travel_liveness_property, travel_property, TravelVariant,
};
use std::time::Instant;

fn main() {
    // The full travel-booking system is the largest workload in the
    // repository (6 tasks, ~40 variables, an artifact relation and
    // arithmetic); the default example run uses a bounded search budget so
    // it completes in seconds. Raise the caps (or set the environment
    // variable HAS_TRAVEL_FULL=1) to search exhaustively.
    let full = std::env::var("HAS_TRAVEL_FULL").is_ok();
    let config = if full {
        VerifierConfig::default()
    } else {
        VerifierConfig {
            max_successors: 24,
            max_control_states: 800,
            km_node_cap: 4_000,
            ..VerifierConfig::default()
        }
    };
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_property(&t);
        let start = Instant::now();
        let outcome = Verifier::with_config(&t.system, &property, config.clone()).verify();
        let elapsed = start.elapsed();
        println!(
            "travel-booking [{variant:?}]  ->  {}   ({} ms{})",
            outcome,
            elapsed.as_millis(),
            if full { "" } else { ", bounded search" }
        );
        match variant {
            TravelVariant::Buggy => println!(
                "  modelled bug: Cancel may run while AddHotel is adding a discounted hotel\n  expected: VIOLATED — found at these caps and at the default ones"
            ),
            TravelVariant::Fixed => println!(
                "  expected: HOLDS — Cancel only opens once the hotel reservation is visible"
            ),
        }
    }

    // The counterexample walkthrough: verify a liveness property that is
    // genuinely violated within the bounded budget, with witness
    // reconstruction enabled, and render the hierarchical witness tree.
    let t = travel_booking(TravelVariant::Buggy);
    let liveness = travel_liveness_property(&t);
    let outcome =
        Verifier::with_config(&t.system, &liveness, config.clone().with_witnesses(true)).verify();
    println!("\ntravel-booking vs F(status=PAID)  ->  {outcome}");
    if let Some(tree) = outcome.violation.as_ref().and_then(|v| v.witness.as_ref()) {
        print!("{tree}");
    }
    println!("travel booking example finished");
}
