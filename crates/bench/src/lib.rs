//! Shared helpers for the benchmark harness.
//!
//! The `tables` binary (one experiment per paper table/figure — see
//! DESIGN.md §3) goes through [`measure`], which runs the verifier on a
//! workload and extracts the cost measures the paper's complexity analysis
//! talks about: wall time, symbolic control states, Karp–Miller coverability
//! nodes, counter dimensions, HCD cells, and the static-reduction counters
//! (projection dimensions, dead guards). [`BenchRecord`]/[`records_to_json`]
//! turn the same rows into the tracked `BENCH_<tag>.json` documents CI
//! commits for regression comparison.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use has_core::{Outcome, Verifier, VerifierConfig};
use has_ltl::HltlFormula;
use has_model::ArtifactSystem;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// The cost measures of one verification run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Label of the instance.
    pub label: String,
    /// Whether the property holds.
    pub holds: bool,
    /// Wall-clock time.
    pub time: Duration,
    /// Symbolic control states constructed across all per-task VASS.
    pub control_states: usize,
    /// Karp–Miller coverability-graph nodes.
    pub coverability_nodes: usize,
    /// Total counter dimensions (TS-isomorphism types).
    pub counter_dimensions: usize,
    /// Cells of the hierarchical cell decomposition (0 without arithmetic).
    pub hcd_cells: usize,
    /// Counter dimensions summed over all coverability queries before
    /// cone-of-influence projection.
    pub counter_dims_before: usize,
    /// Counter dimensions summed over all coverability queries after
    /// projection. The verifier always projects, and projection is
    /// verdict-neutral (`crates/analysis/tests/prop_cone_project.rs`).
    pub counter_dims_after: usize,
    /// Service guards proven dead and pruned from graph construction. The
    /// verifier always prunes; this adds precision over its optimistic
    /// arithmetic (DESIGN.md §5.5).
    pub dead_services: usize,
    /// Karp–Miller successors pruned by the per-query subsumption check.
    pub km_subsumed: usize,
}

impl Measurement {
    /// One formatted row for the `tables` binary.
    pub fn row(&self) -> String {
        format!(
            "{:<42} {:>7} {:>9} {:>9} {:>6} {:>9} {:>8} {:>7} {:>9.1}",
            self.label,
            if self.holds { "holds" } else { "viol." },
            self.control_states,
            self.coverability_nodes,
            self.counter_dimensions,
            format!("{}->{}", self.counter_dims_before, self.counter_dims_after),
            self.km_subsumed,
            self.hcd_cells,
            self.time.as_secs_f64() * 1000.0
        )
    }

    /// The header matching [`Measurement::row`].
    pub fn header() -> String {
        format!(
            "{:<42} {:>7} {:>9} {:>9} {:>6} {:>9} {:>8} {:>7} {:>9}",
            "instance",
            "result",
            "states",
            "km-nodes",
            "dims",
            "proj",
            "subsume",
            "cells",
            "time(ms)"
        )
    }
}

/// One machine-readable benchmark record: a row of an experiment, with the
/// cost columns that apply to it. Rows that do not run the verifier (the
/// VASS and cell-decomposition sweeps) leave the inapplicable columns
/// `None`, and the JSON writer omits them.
#[derive(Clone, Debug, Default)]
pub struct BenchRecord {
    /// Experiment name (`table2`, `vass`, …) as accepted by the `tables`
    /// binary.
    pub experiment: String,
    /// Row label within the experiment.
    pub label: String,
    /// Wall-clock time of the row, in milliseconds.
    pub time_ms: f64,
    /// Whether the verified property holds (verifier rows only).
    pub holds: Option<bool>,
    /// Symbolic control states (verifier rows only).
    pub control_states: Option<usize>,
    /// Karp–Miller coverability nodes.
    pub km_nodes: Option<usize>,
    /// Counter dimensions (verifier rows only).
    pub counter_dims: Option<usize>,
    /// HCD cells (verifier and cell-sweep rows).
    pub hcd_cells: Option<usize>,
    /// Query counter dimensions before projection (verifier rows only).
    pub counter_dims_before: Option<usize>,
    /// Query counter dimensions after the always-on, verdict-neutral
    /// projection (verifier rows only).
    pub counter_dims_after: Option<usize>,
    /// Dead service guards pruned (verifier rows only).
    pub dead_services: Option<usize>,
    /// Karp–Miller successors pruned by subsumption (verifier rows only).
    pub km_subsumed: Option<usize>,
    /// Corpus instances scored (fuzz rows only).
    pub instances: Option<usize>,
    /// Soundness mismatches found (fuzz rows only).
    pub mismatches: Option<usize>,
    /// Runs excused as bounded by the exploration caps (fuzz rows only).
    pub bounded: Option<usize>,
}

impl BenchRecord {
    /// A record carrying the full verifier measurement.
    pub fn from_measurement(experiment: &str, m: &Measurement) -> Self {
        BenchRecord {
            experiment: experiment.to_string(),
            label: m.label.clone(),
            time_ms: m.time.as_secs_f64() * 1000.0,
            holds: Some(m.holds),
            control_states: Some(m.control_states),
            km_nodes: Some(m.coverability_nodes),
            counter_dims: Some(m.counter_dimensions),
            hcd_cells: Some(m.hcd_cells),
            counter_dims_before: Some(m.counter_dims_before),
            counter_dims_after: Some(m.counter_dims_after),
            dead_services: Some(m.dead_services),
            km_subsumed: Some(m.km_subsumed),
            ..BenchRecord::default()
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"experiment\":{},\"label\":{},\"time_ms\":{:.3}",
            json_string(&self.experiment),
            json_string(&self.label),
            self.time_ms
        );
        if let Some(holds) = self.holds {
            let _ = write!(out, ",\"holds\":{holds}");
        }
        if let Some(states) = self.control_states {
            let _ = write!(out, ",\"control_states\":{states}");
        }
        if let Some(nodes) = self.km_nodes {
            let _ = write!(out, ",\"km_nodes\":{nodes}");
        }
        if let Some(dims) = self.counter_dims {
            let _ = write!(out, ",\"counter_dims\":{dims}");
        }
        if let Some(cells) = self.hcd_cells {
            let _ = write!(out, ",\"hcd_cells\":{cells}");
        }
        if let Some(before) = self.counter_dims_before {
            let _ = write!(out, ",\"counter_dims_before\":{before}");
        }
        if let Some(after) = self.counter_dims_after {
            let _ = write!(out, ",\"counter_dims_after\":{after}");
        }
        if let Some(dead) = self.dead_services {
            let _ = write!(out, ",\"dead_services\":{dead}");
        }
        if let Some(subsumed) = self.km_subsumed {
            let _ = write!(out, ",\"km_subsumed\":{subsumed}");
        }
        if let Some(instances) = self.instances {
            let _ = write!(out, ",\"instances\":{instances}");
        }
        if let Some(mismatches) = self.mismatches {
            let _ = write!(out, ",\"mismatches\":{mismatches}");
        }
        if let Some(bounded) = self.bounded {
            let _ = write!(out, ",\"bounded\":{bounded}");
        }
        out.push('}');
        out
    }
}

/// Escapes a string as a JSON string literal (hand-rolled: the workspace
/// build carries no serialization dependency).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes a record set as the `BENCH_<tag>.json` document: a top-level
/// object with the schema marker, the tag, and one record object per row.
pub fn records_to_json(tag: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"has-bench-records/1\",\n  \"tag\": {},\n  \"records\": [",
        json_string(tag)
    );
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&r.to_json());
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the `BENCH_<tag>.json` document to `path`.
pub fn write_records(path: &Path, tag: &str, records: &[BenchRecord]) -> io::Result<()> {
    std::fs::write(path, records_to_json(tag, records))
}

/// Runs the verifier on one instance and collects the measurement.
pub fn measure(
    label: &str,
    system: &ArtifactSystem,
    property: &HltlFormula,
    config: VerifierConfig,
) -> Measurement {
    let start = Instant::now();
    let outcome: Outcome = Verifier::with_config(system, property, config).verify();
    let time = start.elapsed();
    Measurement {
        label: label.to_string(),
        holds: outcome.holds,
        time,
        control_states: outcome.stats.control_states,
        coverability_nodes: outcome.stats.coverability_nodes,
        counter_dimensions: outcome.stats.counter_dimensions,
        hcd_cells: outcome.stats.hcd_cells,
        counter_dims_before: outcome.stats.counter_dims_before,
        counter_dims_after: outcome.stats.counter_dims_after,
        dead_services: outcome.stats.dead_services_pruned,
        km_subsumed: outcome.stats.km_subsumed,
    }
}

/// The verifier configuration used by the benchmarks: modest caps so the
/// sweeps finish quickly while the *relative* cost ordering remains visible.
pub fn bench_config() -> VerifierConfig {
    VerifierConfig {
        max_successors: 48,
        max_control_states: 3_000,
        km_node_cap: 20_000,
        ..VerifierConfig::default()
    }
}

/// A tighter configuration for the large hand-written workloads (travel
/// booking): the per-iteration cost stays in the hundreds of milliseconds so
/// timing sweeps remain practical. A `holds` under these caps covers only
/// the explored portion of the state space; see EXPERIMENTS.md on how to
/// re-run with larger budgets.
pub fn fast_config() -> VerifierConfig {
    VerifierConfig {
        max_successors: 24,
        max_control_states: 800,
        km_node_cap: 4_000,
        ..VerifierConfig::default()
    }
}
