//! Paper-style table harness: prints one measured row per cell of the
//! paper's Tables 1 and 2 plus the figure-level experiments, in the format
//! recorded in EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run --release -p has-bench --bin tables            # all experiments
//! cargo run --release -p has-bench --bin tables -- table1  # one experiment
//! cargo run --release -p has-bench --bin tables -- --json pr6 table2 vass
//! #   ... additionally writes BENCH_pr6.json with one machine-readable
//! #   record per printed row (see has_bench::records_to_json)
//! ```

use has_analysis::{analyze, Severity};
use has_arith::{CellSet, LinExpr, Rational};
use has_bench::{
    bench_config, engine_modes, fast_config, measure, write_records, BenchRecord, Measurement,
};
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

/// Collects the machine-readable benchmark records alongside the printed
/// rows. Every experiment runner receives the recorder and pushes one
/// [`BenchRecord`] per row; `--json <tag>` writes the accumulated set to
/// `BENCH_<tag>.json` after the selected experiments finish.
#[derive(Default)]
struct Recorder {
    records: Vec<BenchRecord>,
}

impl Recorder {
    fn measurement(&mut self, experiment: &str, m: &Measurement) {
        self.records
            .push(BenchRecord::from_measurement(experiment, m));
    }

    fn raw(&mut self, record: BenchRecord) {
        self.records.push(record);
    }
}

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

fn table_grid(arithmetic: bool, threads: usize) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for params in grid_params(arithmetic) {
        let generated = params.generate();
        let config = VerifierConfig {
            use_cells: arithmetic,
            ..bench_config()
        }
        .with_threads(threads);
        rows.push(measure(
            &generated.label,
            &generated.system,
            &generated.property,
            config,
        ));
    }
    rows
}

fn exp_table(name: &str, arithmetic: bool, rec: &mut Recorder) {
    for (_, threads) in engine_modes() {
        for row in table_grid(arithmetic, threads) {
            rec.measurement(name, &row);
            println!("{}", row.row());
        }
    }
}

fn exp_table1(rec: &mut Recorder) {
    println!("== EXP-T1: Table 1 (no arithmetic) — schema class x artifact relations ==");
    println!("{}", Measurement::header());
    exp_table("table1", false, rec);
    println!();
}

fn exp_table2(rec: &mut Recorder) {
    println!("== EXP-T2: Table 2 (with arithmetic) — schema class x artifact relations ==");
    println!("{}", Measurement::header());
    exp_table("table2", true, rec);
    println!();
}

fn exp_travel(rec: &mut Recorder) {
    println!("== EXP-F1: travel booking (Appendix A) — buggy vs fixed ==");
    println!("{}", Measurement::header());
    for (_, threads) in engine_modes() {
        for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
            let t = travel_booking(variant);
            let property = travel_property(&t);
            let row = measure(
                &format!("travel-booking/{variant:?}"),
                &t.system,
                &property,
                fast_config().with_threads(threads),
            );
            rec.measurement("travel", &row);
            println!("{}", row.row());
        }
        // The orders workload doubles as a second realistic process.
        let o = order_fulfilment();
        for (name, property) in [
            ("orders/ship-after-quote", ship_after_quote_property(&o)),
            ("orders/never-enqueue(false)", never_enqueue_property(&o)),
        ] {
            let row = measure(
                name,
                &o.system,
                &property,
                bench_config().with_threads(threads),
            );
            rec.measurement("travel", &row);
            println!("{}", row.row());
        }
    }
    println!();
}

/// EXP-P1 — wall-clock scaling of the parallel engine over the Tables 1/2
/// grids plus the deep-narrow chain. One row per thread count with each
/// workload's total verification time and the speedup relative to one
/// worker. (On a single-core host the speedups hover around
/// 1.0× — the jobs timeshare one CPU.)
///
/// The `deep(d6w1)` column is the family the readiness scheduler exists
/// for: a chain of six tasks has one task per hierarchy level, so PR 3's
/// level barriers exposed almost no job supply per level and serialized the
/// run; the readiness scheduler starts each task's pairs the moment its
/// children commit instead (DESIGN.md §5.6). The `workers` column is the
/// configured count; the scheduler runs at most one worker per pair job.
fn exp_scaling(rec: &mut Recorder) {
    println!("== EXP-P1: parallel engine scaling — speedup vs thread count ==");
    println!(
        "{:<10} {:>8} {:>14} {:>9} {:>14} {:>9} {:>14} {:>9}",
        "threads",
        "workers",
        "table1(ms)",
        "speedup",
        "table2(ms)",
        "speedup",
        "deep(d6w1,ms)",
        "speedup"
    );
    let grid_time = |arithmetic: bool, threads: usize| -> f64 {
        table_grid(arithmetic, threads)
            .iter()
            .map(|m| m.time.as_secs_f64())
            .sum::<f64>()
            * 1000.0
    };
    let deep = GeneratorParams::deep_narrow(6).generate();
    let deep_time = |threads: usize| -> f64 {
        measure(
            &deep.label,
            &deep.system,
            &deep.property,
            fast_config().with_threads(threads),
        )
        .time
        .as_secs_f64()
            * 1000.0
    };
    // Warm-up pass over every workload so first-touch effects (page faults,
    // lazy allocation) do not contaminate the threads = 1 baselines.
    let _ = grid_time(false, 1);
    let _ = grid_time(true, 1);
    let _ = deep_time(1);
    let mut baseline: Option<(f64, f64, f64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let t1 = grid_time(false, threads);
        let t2 = grid_time(true, threads);
        let td = deep_time(threads);
        let (b1, b2, bd) = *baseline.get_or_insert((t1, t2, td));
        for (workload, total) in [("table1", t1), ("table2", t2), ("deep-d6w1", td)] {
            rec.raw(BenchRecord {
                experiment: "scaling".to_string(),
                label: format!("{workload}/threads={threads}"),
                time_ms: total,
                threads: Some(threads),
                ..BenchRecord::default()
            });
        }
        println!(
            "{:<10} {:>8} {:>14.1} {:>8.2}x {:>14.1} {:>8.2}x {:>14.1} {:>8.2}x",
            threads,
            threads,
            t1,
            b1 / t1,
            t2,
            b2 / t2,
            td,
            bd / td
        );
    }
    println!();
}

/// EXP-W1 — hierarchical counterexample witnesses (DESIGN.md §5.7): run the
/// violated travel and orders properties with witness retention on and print
/// the reconstructed witness tree — the run prefix, the pump cycle or
/// blocking point, and the per-task nested runs down to the originating
/// task. The verdict and statistics are identical to the retention-off runs
/// of EXP-F1; only the violation report is richer.
fn exp_witness(rec: &mut Recorder) {
    println!("== EXP-W1: counterexample witness trees — travel (buggy) and orders ==");
    let record = |rec: &mut Recorder, label: &str, outcome: &Outcome, ms: f64| {
        rec.raw(BenchRecord {
            experiment: "witness".to_string(),
            label: label.to_string(),
            time_ms: ms,
            holds: Some(outcome.holds),
            control_states: Some(outcome.stats.control_states),
            km_nodes: Some(outcome.stats.coverability_nodes),
            counter_dims: Some(outcome.stats.counter_dimensions),
            hcd_cells: Some(outcome.stats.hcd_cells),
            ..BenchRecord::default()
        });
    };
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
    let start = Instant::now();
    let outcome =
        Verifier::with_config(&t.system, &liveness, fast_config().with_witnesses(true)).verify();
    let label = "travel-booking/Buggy vs F(status=PAID)";
    record(rec, label, &outcome, start.elapsed().as_secs_f64() * 1000.0);
    print_witness(label, &outcome);
    // The Appendix A.2 policy at the deliberately tight `fast_config` caps:
    // this line reads `HOLDS` — a *bounded* search result, kept in the
    // walkthrough to show what an exhausted budget looks like. The violation
    // itself is no longer out of reach: EXP-S1 and `tests/a2_violation.rs`
    // find it within the default search budgets once `max_merge_pairs` is
    // raised to the branching depth the configuration needs.
    let property = travel_property(&t);
    let start = Instant::now();
    let outcome =
        Verifier::with_config(&t.system, &property, fast_config().with_witnesses(true)).verify();
    let label = "travel-booking/Buggy vs Appendix A.2 (bounded)";
    record(rec, label, &outcome, start.elapsed().as_secs_f64() * 1000.0);
    print_witness(label, &outcome);

    let o = order_fulfilment();
    let property = never_enqueue_property(&o);
    let start = Instant::now();
    let outcome =
        Verifier::with_config(&o.system, &property, bench_config().with_witnesses(true)).verify();
    let label = "orders/never-enqueue(false)";
    record(rec, label, &outcome, start.elapsed().as_secs_f64() * 1000.0);
    print_witness(label, &outcome);
}

fn exp_gadget(rec: &mut Recorder) {
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
        rec.measurement("gadget", &row);
        println!("{}", row.row());
    }
    println!();
}

fn exp_vass(rec: &mut Recorder) {
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
        let start = Instant::now();
        let g = CoverabilityGraph::build(&v, 0);
        let lasso = v.state_repeated_reachable(0, 0);
        rec.raw(BenchRecord {
            experiment: "vass".to_string(),
            label: format!("pump-drain/d={d}"),
            time_ms: start.elapsed().as_secs_f64() * 1000.0,
            holds: Some(lasso),
            km_nodes: Some(g.node_count()),
            ..BenchRecord::default()
        });
        println!("{:<20} {:>12} {:>12}", d, g.node_count(), lasso);
    }
    println!();
}

fn exp_cells(rec: &mut Recorder) {
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
        let start = Instant::now();
        let cells = CellSet::enumerate(&polys).len();
        rec.raw(BenchRecord {
            experiment: "cells".to_string(),
            label: format!("hcd/nvars={nvars}"),
            time_ms: start.elapsed().as_secs_f64() * 1000.0,
            hcd_cells: Some(cells),
            ..BenchRecord::default()
        });
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
fn exp_analyze(rec: &mut Recorder) {
    println!("== EXP-A1: static analysis — diagnostics over all workloads ==");
    let mut errors = 0usize;
    let mut lint = |rec: &mut Recorder,
                    label: &str,
                    system: &has_model::ArtifactSystem,
                    property: Option<&has_ltl::HltlFormula>| {
        let start = Instant::now();
        let report = analyze(system, property);
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        errors += report.with_severity(Severity::Error).count();
        println!("--- {label} ---");
        println!("{report}");
        println!();
        rec.raw(BenchRecord {
            experiment: "analyze".to_string(),
            label: label.to_string(),
            time_ms: ms,
            holds: Some(!report.has_errors()),
            ..BenchRecord::default()
        });
    };
    for variant in [TravelVariant::Buggy, TravelVariant::Fixed] {
        let t = travel_booking(variant);
        let property = travel_property(&t);
        lint(
            rec,
            &format!("travel-booking/{variant:?}"),
            &t.system,
            Some(&property),
        );
    }
    let o = order_fulfilment();
    let property = ship_after_quote_property(&o);
    lint(rec, "orders", &o.system, Some(&property));
    let g = counter_gadget(2);
    let property = counter_liveness_property(&g);
    lint(rec, "counter-gadget/d=2", &g.system, Some(&property));
    for arithmetic in [false, true] {
        for params in grid_params(arithmetic) {
            let generated = params.generate();
            lint(
                rec,
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
fn exp_projection(rec: &mut Recorder) {
    println!("== EXP-A2: dimension cone-of-influence — travel A.2 at fixed KM cap ==");
    println!("{}", Measurement::header());
    let t = travel_booking(TravelVariant::Buggy);
    let property = travel_property(&t);
    let config = VerifierConfig {
        max_successors: 48,
        max_control_states: 20_000,
        km_node_cap: 50_000,
        threads: 1,
        ..VerifierConfig::default()
    };
    let row = measure("travel-A.2", &t.system, &property, config);
    rec.measurement("projection", &row);
    println!("{}", row.row());
    println!();
}

/// EXP-C1/C2 — differential fuzzing of the verifier against the seeded
/// ground-truth corpus (DESIGN.md §5.10): every sampled instance carries a
/// certificate (clean by construction, or exactly one planted violation with
/// its kind and originating task), and every instance runs through the full
/// configuration matrix — threads × witnesses — with each
/// reconstructed witness tree replayed through the `has-sim` executor and
/// judged by the runtime monitor. Prints the per-certificate-kind
/// scoreboard and exits with status 1 on any soundness mismatch — which is
/// how CI scores the verifier on every push. `HAS_FUZZ_DEEP=1` switches
/// from the smoke batch (EXP-C1) to the deep sweep (EXP-C2, ≥1,000
/// instances).
fn exp_fuzz(rec: &mut Recorder) {
    let deep = std::env::var("HAS_FUZZ_DEEP")
        .map(|v| v == "1")
        .unwrap_or(false);
    // The smoke batch runs 24 instances (four full plant rotations, so
    // every certificate kind is scored evenly) over the 4-point matrix,
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
    let ms = start.elapsed().as_secs_f64() * 1000.0;
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
        rec.raw(BenchRecord {
            experiment: "fuzz".to_string(),
            label: format!("fuzz/{name}"),
            time_ms: ms / 4.0,
            holds: Some(score.agreed + score.bounded == score.runs),
            instances: Some(score.runs),
            mismatches: Some(score.runs - score.agreed - score.bounded),
            bounded: Some(score.bounded),
            ..BenchRecord::default()
        });
    }
    println!(
        "instances {}  runs {}  witness replays {}  bounded {}  mismatches {}  ({:.1}s)",
        report.instances,
        report.runs,
        report.replays,
        report.bounded(),
        report.mismatches.len(),
        ms / 1000.0
    );
    rec.raw(BenchRecord {
        experiment: "fuzz".to_string(),
        label: format!("fuzz/total(seed={:#x},count={})", opts.seed, opts.count),
        time_ms: ms,
        holds: Some(report.sound()),
        instances: Some(report.instances),
        mismatches: Some(report.mismatches.len()),
        bounded: Some(report.bounded()),
        ..BenchRecord::default()
    });
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

/// An experiment runner: records its rows into the shared recorder.
type ExperimentFn = fn(&mut Recorder);

/// The accepted experiment names, in execution order, with their runners.
const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("table1", exp_table1),
    ("table2", exp_table2),
    ("travel", exp_travel),
    ("witness", exp_witness),
    ("gadget", exp_gadget),
    ("vass", exp_vass),
    ("cells", exp_cells),
    ("scaling", exp_scaling),
    ("analyze", exp_analyze),
    ("projection", exp_projection),
    ("fuzz", exp_fuzz),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--json <tag>` writes BENCH_<tag>.json next to the working directory
    // in addition to the printed tables. Parsed (and removed) before the
    // experiment-name check below.
    let mut json_tag: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        if pos + 1 >= args.len() {
            eprintln!("error: --json requires a tag argument (e.g. --json pr6)");
            std::process::exit(2);
        }
        let tag = args[pos + 1].clone();
        let tag_ok = !tag.is_empty()
            && tag
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
        if !tag_ok {
            eprintln!("error: --json tag must be non-empty [A-Za-z0-9._-], got {tag:?}");
            std::process::exit(2);
        }
        args.drain(pos..=pos + 1);
        json_tag = Some(tag);
    }
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
    let mut recorder = Recorder::default();
    for (name, run) in EXPERIMENTS {
        if want(name) {
            run(&mut recorder);
        }
    }
    if let Some(tag) = json_tag {
        let path = std::path::PathBuf::from(format!("BENCH_{tag}.json"));
        match write_records(&path, &tag, &recorder.records) {
            Ok(()) => eprintln!(
                "wrote {} record(s) to {}",
                recorder.records.len(),
                path.display()
            ),
            Err(err) => {
                eprintln!("error: failed to write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    }
}
