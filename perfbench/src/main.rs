//! Benchmark of `Verifier::verify` over three workloads at `threads = 1`.
//! A run's timed sweeps all run in one process.
//!
//! ```text
//! has-perfbench --workload <grid|travel-a2|gadget> --seed <n> \
//!               --seconds <s> --trace <0|1> [--flip-key] [--setup-only]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics: every timing is taken
//! around a public `verify` call and scaled to a nominal machine speed by
//! reference passes run between the calls (see `reference.rs`), and every
//! outcome is checked against the workload's answer key. The instances are
//! fixed, so `--seed` changes nothing that is measured. With `--trace 1` it prints the per-layer metrics
//! of the traced driver (see `traced.rs`) after checking that driver
//! against `verify` on every instance. The last line of standard output is
//! one JSON object; the exit code is non-zero when any call failed.
//! `--flip-key` inverts every expected verdict, for the self-test.
//! `--setup-only` makes one set-up and prints its time; `--trace 0` runs
//! start such child processes for their `setup_s` samples.

mod reference;
mod traced;
mod workloads;

use has::verifier::Verifier;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use reference::{Gauge, NOMINAL_S};
use traced::{Counts, Layers};
use workloads::{Instance, Workload};

/// Variables `VerifierConfig::default()` or the verifier read; any of them
/// would change what is measured.
const PINNED_ENV: [&str; 5] = [
    "HAS_THREADS",
    "HAS_PROJECTION",
    "HAS_PRESOLVE",
    "HAS_SHARED_KM",
    "HAS_VERIFIER_DEBUG",
];

/// Set-ups per run; `setup_s` is their median. Each counts from the start
/// of a process of its own, so no set-up finds state an earlier one left in
/// the process (a cross-call cache, say).
const SETUPS: usize = 5;

/// Reference passes that scale each set-up time.
const SETUP_PASSES: usize = 5;

/// Timed sweeps at least. The tail percentile needs ten sweeps beyond it,
/// so with 30 sweeps it sits at p67 or higher, above the median.
const MIN_SWEEPS: usize = 30;

/// Traced rounds (one untraced and one traced sweep each) at least.
const MIN_TRACE_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    flip_key: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut flip_key = false;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if matches!(flag.as_str(), "--flip-key" | "--setup-only") {
            flip_key |= flag == "--flip-key";
            setup_only |= flag == "--setup-only";
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        flip_key,
        setup_only,
    })
}

/// A printed metric: name, value and unit.
type Metric = (&'static str, f64, &'static str);

/// Failures described on standard error; later ones are only counted.
const FAILURES_SHOWN: usize = 10;

/// Verify calls attempted and their failures.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn fail(&mut self, label: &str, why: &str) {
        self.failed += 1;
        if self.failed <= FAILURES_SHOWN {
            eprintln!("FAIL {label}: {why}");
        }
    }
}

/// One sweep: summed and slowest `verify` wall time.
struct Sweep {
    total: Duration,
    hardest: Duration,
}

/// Verifies one instance, checks the outcome and returns its wall time.
fn verify_checked(
    inst: &mut Instance,
    tally: &mut Tally,
) -> (Duration, Option<has::verifier::Outcome>) {
    let config = inst.config.clone();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        Verifier::with_config(&inst.system, &inst.property, config).verify()
    }));
    let elapsed = start.elapsed();
    tally.attempted += 1;
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(_) => {
            tally.fail(&inst.label, "verify panicked");
            return (elapsed, None);
        }
    };
    if let Err(why) = inst.check(&outcome) {
        tally.fail(&inst.label, &why);
    }
    (elapsed, Some(outcome))
}

/// Verifies every instance once. With a gauge, a reference pass runs
/// before each call and after the last one, outside the timed calls.
fn sweep(instances: &mut [Instance], tally: &mut Tally, mut gauge: Option<&mut Gauge>) -> Sweep {
    let mut out = Sweep {
        total: Duration::ZERO,
        hardest: Duration::ZERO,
    };
    for inst in instances.iter_mut() {
        if let Some(gauge) = gauge.as_deref_mut() {
            gauge.pass();
        }
        let (elapsed, _) = verify_checked(inst, tally);
        out.total += elapsed;
        out.hardest = out.hardest.max(elapsed);
    }
    if let Some(gauge) = gauge {
        gauge.pass();
    }
    out
}

/// A timed sweep scaled to the nominal machine: summed seconds and slowest
/// call in milliseconds.
struct Scaled {
    total_s: f64,
    hardest_ms: f64,
}

fn flip(args: &Args, mut instances: Vec<Instance>) -> Vec<Instance> {
    if args.flip_key {
        for inst in &mut instances {
            inst.key = inst.key.flipped();
        }
    }
    instances
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest percentile of `values` that still has at least ten samples
/// beyond it, as `(percentile, value)`.
fn tail(mut values: Vec<f64>) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let index = n.saturating_sub(11);
    (100.0 * (index + 1) as f64 / n as f64, values[index])
}

/// The process's peak resident set size in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One set-up: builds the instances and runs one untimed warm-up sweep.
/// Returns the instances and the seconds since `process_start`, scaled to
/// the nominal machine by reference passes run right after.
fn setup(args: &Args, process_start: Instant, tally: &mut Tally) -> (Vec<Instance>, f64) {
    let mut instances = flip(args, args.workload.instances());
    sweep(&mut instances, tally, None);
    let setup_s = secs(process_start.elapsed());
    let mut gauge = Gauge::default();
    for _ in 0..SETUP_PASSES {
        gauge.pass();
    }
    (instances, gauge.scale() * setup_s)
}

/// Parses a `--setup-only` child's last line,
/// `setup <seconds> <attempted> <failed>`.
fn parse_setup_line(line: Option<&str>) -> Option<(f64, usize, usize)> {
    let mut fields = line?.strip_prefix("setup ")?.split(' ');
    let setup_s = fields.next()?.parse().ok()?;
    let attempted = fields.next()?.parse().ok()?;
    let failed = fields.next()?.parse().ok()?;
    Some((setup_s, attempted, failed))
}

/// Runs one set-up in a child process started with `--setup-only`, adds
/// its calls to `tally` and returns its `setup_s`.
fn setup_in_child(args: &Args, tally: &mut Tally) -> Option<f64> {
    let label = format!("{} set-up in a child process", args.workload.name());
    let mut cmd = Command::new(std::env::current_exe().ok()?);
    cmd.args(["--workload", args.workload.name(), "--trace", "0"])
        .args(["--seed", &args.seed.to_string(), "--seconds", "0"])
        .arg("--setup-only")
        .stderr(Stdio::inherit());
    if args.flip_key {
        cmd.arg("--flip-key");
    }
    let out = match cmd.output() {
        Ok(out) => out,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(&label, &format!("cannot start: {e}"));
            return None;
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let Some((setup_s, attempted, failed)) = parse_setup_line(stdout.lines().last()) else {
        tally.attempted += 1;
        tally.fail(&label, &format!("exited with {} and no result", out.status));
        return None;
    };
    tally.attempted += attempted;
    tally.failed += failed;
    Some(setup_s)
}

/// The end-to-end run: `SETUPS` set-ups, this process's own and the rest in
/// child processes, then timed sweeps for `seconds`.
fn measure(args: &Args, process_start: Instant, tally: &mut Tally) -> Vec<Metric> {
    let (mut instances, first) = setup(args, process_start, tally);
    let mut setups = vec![first];
    setups.extend((1..SETUPS).filter_map(|_| setup_in_child(args, tally)));
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut sweeps = Vec::new();
    let mut gauge = Gauge::default();
    let mut unscaled = Vec::new();
    while sweeps.len() < MIN_SWEEPS || Instant::now() < deadline {
        let mut swept = Gauge::default();
        let raw = sweep(&mut instances, tally, Some(&mut swept));
        let scale = swept.scale();
        sweeps.push(Scaled {
            total_s: scale * secs(raw.total),
            hardest_ms: scale * ms(raw.hardest),
        });
        unscaled.push(secs(raw.total));
        gauge.absorb(&swept);
    }
    let totals: Vec<f64> = sweeps.iter().map(|s| s.total_s).collect();
    let (percentile, tail_s) = tail(totals.clone());
    let calls = tally.attempted as f64;
    println!(
        "# {}: {} instances, {} timed sweeps, verify_s = median sweep; verify_s_tail = p{:.1} of {} sweeps; setup_s = median of {} set-ups",
        args.workload.name(),
        instances.len(),
        sweeps.len(),
        percentile,
        sweeps.len(),
        setups.len()
    );
    println!(
        "# {}: times are scaled to a reference pass of {:.3} ms; passes here took {:.3} ms on average; unscaled median sweep {:.6} s",
        args.workload.name(),
        1000.0 * NOMINAL_S,
        1000.0 * gauge.mean_s(),
        median(unscaled)
    );
    vec![
        ("verify_s", median(totals), "s"),
        ("verify_s_tail", tail_s, "s"),
        (
            "hardest_ms",
            median(sweeps.iter().map(|s| s.hardest_ms).collect()),
            "ms",
        ),
        ("ok_share", 1.0 - tally.failed as f64 / calls, "share"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("setup_s", median(setups), "s"),
    ]
}

/// Verifies every instance with `verify` (checked against the key) and
/// with the traced driver. Returns whether the two agreed on every
/// instance, and how many `verify` calls reached a cap.
fn check_fidelity(instances: &mut [Instance], tally: &mut Tally) -> (bool, usize) {
    let mut faithful = true;
    let mut capped = 0;
    for inst in instances {
        let (_, outcome) = verify_checked(inst, tally);
        let (holds, stats) = traced::verify(
            &inst.system,
            &inst.property,
            &inst.config,
            &mut Layers::default(),
        );
        let Some(outcome) = outcome else { continue };
        capped += usize::from(inst.capped(&outcome.stats));
        let expected = has::verifier::Stats {
            hcd_cells: 0,
            ..outcome.stats
        };
        if holds != outcome.holds || stats != expected {
            faithful = false;
            eprintln!(
                "TRACE MISMATCH {}: verify holds={} {expected}; traced holds={holds} {stats}",
                inst.label, outcome.holds
            );
        }
    }
    (faithful, capped)
}

/// The traced run: fidelity check on every instance, then rounds of one
/// untraced and one traced sweep for `seconds`. Returns `None` when the
/// trace is rejected.
fn trace(args: &Args, tally: &mut Tally) -> Option<Vec<Metric>> {
    let mut instances = flip(args, args.workload.instances());
    let (faithful, capped) = check_fidelity(&mut instances, tally);
    if !faithful {
        eprintln!("TRACE REJECTED: the traced driver disagrees with verify");
        return None;
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut untraced = Vec::new();
    let mut rounds: Vec<Layers> = Vec::new();
    while rounds.len() < MIN_TRACE_ROUNDS || Instant::now() < deadline {
        untraced.push(secs(sweep(&mut instances, tally, None).total));
        let mut layers = Layers::default();
        for inst in &instances {
            traced::verify(&inst.system, &inst.property, &inst.config, &mut layers);
        }
        rounds.push(layers);
    }
    let counts: &Counts = &rounds[0].counts;
    if rounds.iter().any(|r| r.counts != *counts) {
        eprintln!("TRACE REJECTED: per-layer counts differ between sweeps");
        return None;
    }
    let med = |f: &dyn Fn(&Layers) -> Duration| median(rounds.iter().map(|r| secs(f(r))).collect());
    let wall = med(&|l| l.wall);
    let build = med(&|l| l.build);
    let query = med(&|l| l.query());
    let c = counts;
    let p = &c.presolve;
    println!(
        "# {}: {} traced rounds; per-layer times are medians per sweep",
        args.workload.name(),
        rounds.len()
    );
    Some(vec![
        (
            "caps.capped_share",
            ratio(capped as f64, instances.len() as f64),
            "share",
        ),
        ("ltl.automata_ms", 1000.0 * med(&|l| l.ltl), "ms"),
        ("analysis.analyze_ms", 1000.0 * med(&|l| l.analysis), "ms"),
        ("analysis.dead_services", c.dead_services as f64, "count"),
        ("pair.new_ms", 1000.0 * med(&|l| l.pair_new), "ms"),
        ("pair.count", c.pairs as f64, "count"),
        ("build.ms", 1000.0 * build, "ms"),
        ("build.share", ratio(build, wall), "share"),
        ("build.control_states", c.control_states as f64, "count"),
        ("build.transitions", c.transitions as f64, "count"),
        ("build.counter_dims", c.counter_dims as f64, "count"),
        (
            "build.us_per_state",
            ratio(1e6 * build, c.control_states as f64),
            "us",
        ),
        ("projection.ms", 1000.0 * med(&|l| l.projection), "ms"),
        ("projection.dims_before", c.dims_before as f64, "count"),
        ("projection.dims_after", c.dims_after as f64, "count"),
        ("query.ms", 1000.0 * query, "ms"),
        ("query.share", ratio(query, wall), "share"),
        ("query.count", c.queries as f64, "count"),
        (
            "query.presolved_ms",
            1000.0 * med(&|l| l.query_presolved),
            "ms",
        ),
        (
            "query.searched_ms",
            1000.0 * med(&|l| l.query_searched),
            "ms",
        ),
        ("presolve.queries", p.queries as f64, "count"),
        ("presolve.decided", p.decided as f64, "count"),
        (
            "presolve.decided_ratio",
            ratio(p.decided as f64, p.queries as f64),
            "share",
        ),
        ("presolve.km_skipped", p.skipped_builds as f64, "count"),
        ("presolve.control", p.control as f64, "count"),
        ("presolve.state_eq", p.state_eq as f64, "count"),
        ("presolve.dfa", p.counter_dfa as f64, "count"),
        ("presolve.circulation", p.circulation as f64, "count"),
        ("presolve.bounded_dims", p.bounded_dims as f64, "count"),
        ("km.nodes", c.km_nodes as f64, "count"),
        ("km.reused", c.km_reused as f64, "count"),
        ("km.subsumed", c.km_subsumed as f64, "count"),
        (
            "km.subsumed_ratio",
            ratio(c.km_subsumed as f64, (c.km_subsumed + c.km_nodes) as f64),
            "share",
        ),
        ("reduce.ms", 1000.0 * med(&|l| l.reduce), "ms"),
        ("reduce.rt_entries", c.rt_entries as f64, "count"),
        (
            "trace.attributed_share",
            ratio(med(&|l| l.attributed()), wall),
            "share",
        ),
        (
            "trace.overhead_pct",
            100.0 * ratio(wall - median(untraced.clone()), median(untraced)),
            "%",
        ),
    ])
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|var| std::env::var_os(var).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "error: unset {} before benchmarking; they change the verifier's configuration",
            set.join(", ")
        );
        return ExitCode::from(2);
    }

    let mut tally = Tally::default();
    if args.setup_only {
        let (_, setup_s) = setup(&args, process_start, &mut tally);
        println!("setup {setup_s} {} {}", tally.attempted, tally.failed);
        return if tally.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let metrics = if args.trace {
        trace(&args, &mut tally)
    } else {
        Some(measure(&args, process_start, &mut tally))
    };
    let Some(metrics) = metrics else {
        return ExitCode::FAILURE;
    };
    let correct = tally.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!("{}", result_json(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
