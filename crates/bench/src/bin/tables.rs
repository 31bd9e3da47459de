//! Paper-style table harness: prints one measured row per cell of the
//! paper's Tables 1 and 2 plus the figure-level experiments, in the format
//! recorded in EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run --release -p has-bench --bin tables            # all experiments
//! cargo run --release -p has-bench --bin tables -- table1  # one experiment
//! cargo run --release -p has-bench --bin tables -- table2 vass
//! ```
//!
//! The rows are printed only; perfbench (`perfbench/run.py`,
//! `BENCHMARK.json`) is the machine-readable timing record.

use has_analysis::{analyze, Severity};
use has_arith::{CellSet, LinExpr, Rational};
use has_bench::{bench_config, fast_config, measure, Measurement};
use has_core::{Outcome, Verifier, VerifierConfig};
use has_corpus::{fuzz, FuzzOptions};
use has_model::SchemaClass;
use has_vass::{CoverabilityGraph, Vass};
use has_workloads::counters::{counter_gadget, counter_liveness_property};
use has_workloads::generator::GeneratorParams;
use has_workloads::orders::{never_enqueue_property, order_fulfilment, ship_after_quote_property};
use has_workloads::travel::{
    travel_booking, travel_liveness_property, travel_property, TravelVariant,
};
use std::time::Instant;

fn grid_params(arithmetic: bool) -> Vec<GeneratorParams> {
    let mut out = Vec::new();
    for class in [
        SchemaClass::Acyclic,
        SchemaClass::LinearlyCyclic,
        SchemaClass::Cyclic,
    ] {
        for artifact_relations in [false, true] {
            out.push(GeneratorParams {
                schema_class: class,
                artifact_relations,
                arithmetic,
                depth: 2,
                width: 1,
                numeric_vars: if arithmetic { 2 } else { 1 },
            });
        }
    }
    out
}

fn exp_table(arithmetic: bool) {
    for params in grid_params(arithmetic) {
        let generated = params.generate();
        let config = VerifierConfig {
            use_cells: arithmetic,
            ..bench_config()
        };
        let row = measure(
            &generated.label,
            &generated.system,
            &generated.property,
            config,
        );
        println!("{}", row.row());
    }
}

fn exp_table1() {
    println!("== EXP-T1: Table 1 (no arithmetic) — schema class x artifact relations ==");
    println!("{}", Measurement::header());
    exp_table(false);
    println!();
}

fn exp_table2() {
    println!("== EXP-T2: Table 2 (with arithmetic) — schema class x artifact relations ==");
    println!("{}", Measurement::header());
    exp_table(true);
    println!();
}

fn exp_travel() {
    println!("== EXP-F1: travel booking (Appendix A) — buggy vs fixed ==");
    println!("{}", Measurement::header());
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_property(&t);
        let row = measure(
            &format!("travel-booking/{variant:?}"),
            &t.system,
            &property,
            fast_config(),
        );
        println!("{}", row.row());
    }
    // The orders workload doubles as a second realistic process.
    let o = order_fulfilment();
    for (name, property) in [
        ("orders/ship-after-quote", ship_after_quote_property(&o)),
        ("orders/never-enqueue(false)", never_enqueue_property(&o)),
    ] {
        let row = measure(name, &o.system, &property, bench_config());
        println!("{}", row.row());
    }
    println!();
}

/// EXP-W1 — hierarchical counterexample witnesses (DESIGN.md §5.7): run the
/// violated travel and orders properties with witness retention on and print
/// the reconstructed witness tree — the run prefix, the pump cycle or
/// blocking point, and the per-task nested runs down to the originating
/// task. The verdict and statistics are identical to the retention-off runs
/// of EXP-F1; only the violation report is richer.
fn exp_witness() {
    println!("== EXP-W1: counterexample witness trees — travel (buggy) and orders ==");
    let print_witness = |label: &str, outcome: &Outcome| {
        println!("{label}:  {outcome}");
        match outcome.violation.as_ref().and_then(|v| v.witness.as_ref()) {
            Some(tree) => print!("{tree}"),
            None => println!("  (no witness tree: the property holds)"),
        }
        println!();
    };
    let t = travel_booking(TravelVariant::Buggy);
    // The walkthrough instance: the F-paid liveness property is genuinely
    // violated within the bounded budget, so it yields a full witness tree
    // (run prefix + pump cycle + nested child runs).
    let liveness = travel_liveness_property(&t);
    let outcome =
        Verifier::with_config(&t.system, &liveness, fast_config().with_witnesses(true)).verify();
    print_witness("travel-booking/Buggy vs F(status=PAID)", &outcome);
    // The Appendix A.2 policy at the tight `fast_config` caps: the
    // violation is found here as at the default caps (`tests/a2_violation.rs`
    // checks both), a blocking run of `ManageTrips` that originates in
    // `AlsoBookHotel`.
    let property = travel_property(&t);
    let outcome =
        Verifier::with_config(&t.system, &property, fast_config().with_witnesses(true)).verify();
    print_witness("travel-booking/Buggy vs Appendix A.2", &outcome);

    let o = order_fulfilment();
    let property = never_enqueue_property(&o);
    let outcome =
        Verifier::with_config(&o.system, &property, bench_config().with_witnesses(true)).verify();
    print_witness("orders/never-enqueue(false)", &outcome);
}

fn exp_gadget() {
    println!("== EXP-F2: Theorem 11 counter gadget — HLTL-FO stays tractable ==");
    println!("{}", Measurement::header());
    for d in [1usize, 2, 3] {
        let g = counter_gadget(d);
        let property = counter_liveness_property(&g);
        let row = measure(
            &format!("counter-gadget/d={d}"),
            &g.system,
            &property,
            fast_config(),
        );
        println!("{}", row.row());
    }
    println!();
}

fn exp_vass() {
    println!("== EXP-F3: VASS dimension vs coverability cost ==");
    println!("{:<20} {:>12} {:>12}", "dimension", "km-nodes", "lasso");
    for d in [1usize, 2, 3, 4, 5] {
        let mut v = Vass::new(2, d);
        for i in 0..d {
            let mut up = vec![0i64; d];
            up[i] = 1;
            v.add_action(0, up, 0);
            let mut down = vec![0i64; d];
            down[i] = -1;
            v.add_action(1, down, 1);
        }
        v.add_action(0, vec![0; d], 1);
        let g = CoverabilityGraph::build(&v, 0);
        let lasso = v.state_repeated_reachable(0, 0);
        println!("{:<20} {:>12} {:>12}", d, g.node_count(), lasso);
    }
    println!();
}

fn exp_cells() {
    println!("== EXP-F4: cell decomposition growth ==");
    println!("{:<20} {:>12}", "numeric vars", "cells");
    for nvars in [1usize, 2, 3, 4, 5] {
        let mut polys: Vec<LinExpr<usize>> = Vec::new();
        for i in 0..nvars {
            polys.push(LinExpr::var(i) - LinExpr::constant(Rational::from_int(i as i64)));
            if i + 1 < nvars {
                polys.push(LinExpr::var(i) - LinExpr::var(i + 1));
            }
        }
        let cells = CellSet::enumerate(&polys).len();
        println!("{:<20} {:>12}", nvars, cells);
    }
    println!();
}

/// EXP-A1 — the static analyzer over every workload the harness verifies:
/// both travel variants, the orders and counter-gadget systems, and the
/// Tables 1/2 generator grids. Prints each model's full diagnostic report
/// (stable `HASnnn` codes, `outcome.rs`-style rendering), and exits with
/// status 1 if any model reports an `Error`-severity finding — which is how
/// CI lints the workload zoo on every push.
fn exp_analyze() {
    println!("== EXP-A1: static analysis — diagnostics over all workloads ==");
    let mut errors = 0usize;
    let mut lint = |label: &str,
                    system: &has_model::ArtifactSystem,
                    property: Option<&has_ltl::HltlFormula>| {
        let report = analyze(system, property);
        errors += report.with_severity(Severity::Error).count();
        println!("--- {label} ---");
        println!("{report}");
        println!();
    };
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_property(&t);
        lint(
            &format!("travel-booking/{variant:?}"),
            &t.system,
            Some(&property),
        );
    }
    let o = order_fulfilment();
    let property = ship_after_quote_property(&o);
    lint("orders", &o.system, Some(&property));
    let g = counter_gadget(2);
    let property = counter_liveness_property(&g);
    lint("counter-gadget/d=2", &g.system, Some(&property));
    for arithmetic in [false, true] {
        for params in grid_params(arithmetic) {
            let generated = params.generate();
            lint(
                &generated.label,
                &generated.system,
                Some(&generated.property),
            );
        }
    }
    if errors > 0 {
        eprintln!("error: {errors} Error-severity diagnostic(s) across the workloads");
        std::process::exit(1);
    }
}

/// EXP-A2 — the headline cone-of-influence measurement: the Appendix A.2
/// policy on the buggy travel instance, whose root carries 12 `TRIPS`
/// counter dimensions, verified once at a fixed Karp–Miller budget. The
/// `proj` column is the summed query dimension before→after projection, and
/// `km-nodes` is what the projected queries build. EXPERIMENTS.md keeps the
/// measured unprojected row as the decision record.
fn exp_projection() {
    println!("== EXP-A2: dimension cone-of-influence — travel A.2 at fixed KM cap ==");
    println!("{}", Measurement::header());
    let t = travel_booking(TravelVariant::Buggy);
    let property = travel_property(&t);
    let config = VerifierConfig {
        max_successors: 48,
        max_control_states: 20_000,
        km_node_cap: 50_000,
        ..VerifierConfig::default()
    };
    let row = measure("travel-A.2", &t.system, &property, config);
    println!("{}", row.row());
    println!();
}

/// EXP-S1 — generated instances a little larger than the grid's d2w1,
/// each verified at [`bench_config`] and at the default config. Every
/// merge closure is enumerated in full, so these rows are the guard against
/// closure blow-up; CI runs them under a timeout. Rows that read holds at
/// `bench_config` and VIOLATED at the default config are cut short by the
/// `bench_config` caps (ROADMAP item 1).
fn exp_scale() {
    println!("== EXP-S1: scale — generated instances at bench_config and the default config ==");
    println!("{}", Measurement::header());
    let probe = |schema_class, arithmetic, depth, width, numeric_vars| GeneratorParams {
        schema_class,
        artifact_relations: true,
        arithmetic,
        depth,
        width,
        numeric_vars,
    };
    for params in [
        probe(SchemaClass::Cyclic, true, 3, 2, 3),
        probe(SchemaClass::Cyclic, true, 3, 2, 4),
        probe(SchemaClass::Cyclic, true, 3, 3, 3),
        probe(SchemaClass::Cyclic, true, 4, 3, 3),
        probe(SchemaClass::Acyclic, true, 4, 3, 3),
        probe(SchemaClass::Cyclic, false, 4, 3, 3),
    ] {
        let generated = params.generate();
        for (name, config) in [
            ("bench", bench_config()),
            ("default", VerifierConfig::default()),
        ] {
            let label = format!("{} @{name}", generated.label);
            let row = measure(&label, &generated.system, &generated.property, config);
            println!("{}", row.row());
        }
    }
    println!();
}

/// EXP-C1/C2 — differential fuzzing of the verifier against the seeded
/// ground-truth corpus (DESIGN.md §5.10): every sampled instance carries a
/// certificate (clean by construction, or exactly one planted violation with
/// its kind and originating task), and every instance runs through the full
/// configuration matrix — witnesses off and on — with each
/// reconstructed witness tree replayed through the `has-sim` executor and
/// judged by the runtime monitor. Prints the per-certificate-kind
/// scoreboard and exits with status 1 on any soundness mismatch — which is
/// how CI scores the verifier on every push. `HAS_FUZZ_DEEP=1` switches
/// from the smoke batch (EXP-C1) to the deep sweep (EXP-C2, ≥1,000
/// instances).
fn exp_fuzz() {
    let deep = std::env::var("HAS_FUZZ_DEEP")
        .map(|v| v == "1")
        .unwrap_or(false);
    // The smoke batch runs 24 instances (four full plant rotations, so
    // every certificate kind is scored evenly) over the 2-point matrix,
    // well within CI's `timeout 120`; the deep sweep covers the acceptance
    // bar of ≥1,000 instances.
    let opts = FuzzOptions {
        count: if deep { 1200 } else { 24 },
        ..FuzzOptions::default()
    };
    println!(
        "== EXP-C{}: differential fuzzing — {} corpus instances (seed {:#x}) ==",
        if deep { 2 } else { 1 },
        opts.count,
        opts.seed
    );
    let start = Instant::now();
    let report = fuzz(&opts);
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{:<12} {:>6} {:>8} {:>8} {:>8}",
        "certificate", "runs", "agreed", "bounded", "recall"
    );
    for (name, score) in [
        ("clean", report.clean),
        ("lasso", report.lasso),
        ("blocking", report.blocking),
        ("returning", report.returning),
    ] {
        println!(
            "{:<12} {:>6} {:>8} {:>8} {:>7.1}%",
            name,
            score.runs,
            score.agreed,
            score.bounded,
            score.recall() * 100.0
        );
    }
    println!(
        "instances {}  runs {}  witness replays {}  bounded {}  mismatches {}  ({:.1}s)",
        report.instances,
        report.runs,
        report.replays,
        report.bounded(),
        report.mismatches.len(),
        secs
    );
    println!();
    if !report.sound() {
        for m in &report.mismatches {
            eprintln!(
                "MISMATCH {} [{}] ({}): {}\n  params    {:?}\n  minimized {:?}",
                m.label, m.plant, m.at, m.detail, m.params, m.minimized
            );
        }
        eprintln!(
            "error: {} soundness mismatch(es) against the ground-truth corpus",
            report.mismatches.len()
        );
        std::process::exit(1);
    }
}

/// An experiment runner: prints its rows to stdout.
type ExperimentFn = fn();

/// The accepted experiment names, in execution order, with their runners.
const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("table1", exp_table1),
    ("table2", exp_table2),
    ("travel", exp_travel),
    ("witness", exp_witness),
    ("gadget", exp_gadget),
    ("vass", exp_vass),
    ("cells", exp_cells),
    ("analyze", exp_analyze),
    ("projection", exp_projection),
    ("scale", exp_scale),
    ("fuzz", exp_fuzz),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let unknown: Vec<&String> = args
        .iter()
        .filter(|a| EXPERIMENTS.iter().all(|(name, _)| name != a))
        .collect();
    if !unknown.is_empty() {
        let accepted: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "error: unknown experiment name(s): {}",
            unknown
                .iter()
                .map(|a| a.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        eprintln!("accepted names: {}", accepted.join(", "));
        std::process::exit(2);
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    for (name, run) in EXPERIMENTS {
        if want(name) {
            run();
        }
    }
}
