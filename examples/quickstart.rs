//! Quickstart: build a small artifact system, state an HLTL-FO property, and
//! verify it.
//!
//! Run with `cargo run --release --example quickstart`.

use has::ltl::hltl::HltlBuilder;
use has::model::{Condition, SetUpdate, SystemBuilder};
use has::verifier::{Verifier, VerifierConfig};
use has_arith::Rational;

fn main() {
    // A one-task system: an order flag that a service can set.
    let mut b = SystemBuilder::new("quickstart");
    let root = b.root_task("Main");
    let flag = b.num_var(root, "approved");
    b.internal_service(
        root,
        "approve",
        Condition::True,
        Condition::eq_const(flag, Rational::from_int(1)),
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

    // Property 1: "approved is stable under the tautological frame" (holds).
    let mut hb = HltlBuilder::new(root);
    let approved = hb.condition(Condition::eq_const(flag, Rational::from_int(1)));
    let tautology = hb.finish(approved.clone().implies(approved).globally());

    // Property 2: "eventually approved" (violated: the idle loop never approves).
    let mut hb2 = HltlBuilder::new(root);
    let approved2 = hb2.condition(Condition::eq_const(flag, Rational::from_int(1)));
    let liveness = hb2.finish(approved2.eventually());

    for (name, property) in [
        ("G(approved -> approved)", tautology),
        ("F approved", liveness),
    ] {
        let outcome = Verifier::with_config(&system, &property, VerifierConfig::default()).verify();
        println!("{name}: {outcome}");
    }
}
