//! Order-fulfilment workload: verify a safety property symbolically and
//! cross-check it with randomized concrete executions.
//!
//! Run with `cargo run --release --example order_fulfilment`.

use has::data::{DatabaseGenerator, GeneratorConfig};
use has::sim::{monitor_property, ExecutionConfig, Executor};
use has::verifier::Verifier;
use has::workloads::orders::{never_enqueue_property, order_fulfilment, ship_after_quote_property};

fn main() {
    let o = order_fulfilment();

    // 1. Symbolic verification of "ship only after quote".
    let safety = ship_after_quote_property(&o);
    let outcome = Verifier::new(&o.system, &safety).verify();
    println!("ship-after-quote (verifier): {outcome}");

    // 2. A false property: the backlog is never used.
    let falsity = never_enqueue_property(&o);
    let outcome2 = Verifier::new(&o.system, &falsity).verify();
    println!("never-enqueue (verifier):    {outcome2}");

    // 3. Cross-check with randomized concrete executions on a generated
    //    database: the safety property must hold on every sampled run.
    let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
    let db = generator.generate(&o.system.schema.database);
    let mut violations = 0;
    for seed in 0..20 {
        let mut exec = Executor::new(
            &o.system,
            &db,
            ExecutionConfig {
                seed,
                max_steps: 300,
                ..ExecutionConfig::default()
            },
        );
        let tree = exec.run();
        if !monitor_property(&o.system, &db, &tree, &safety) {
            violations += 1;
        }
    }
    println!("ship-after-quote (20 random executions): {violations} violations observed");
    assert_eq!(
        violations, 0,
        "safety property must hold on every execution"
    );
    assert!(outcome.holds);
    assert!(!outcome2.holds);
    println!("order fulfilment example finished as expected");
}
