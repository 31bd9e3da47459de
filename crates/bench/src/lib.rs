//! Shared helpers for the benchmark harness.
//!
//! The `tables` binary (one experiment per paper table/figure — see
//! DESIGN.md §3) goes through [`measure`], which runs the verifier on a
//! workload and extracts the cost measures the paper's complexity analysis
//! talks about: wall time, symbolic control states, Karp–Miller coverability
//! nodes, counter dimensions, HCD cells, and the static-reduction counters
//! (projection dimensions, Karp–Miller subsumption), plus the union
//! attempts of the post-state enumeration's merge refinement
//! (`Stats::merge_unions`, the `unions` column). [`bench_config`] and
//! [`fast_config`] are also the caps perfbench measures with; perfbench,
//! not this crate, keeps the machine-readable timing record.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use has_core::{Stats, Verifier, VerifierConfig};
use has_ltl::HltlFormula;
use has_model::ArtifactSystem;
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
    /// The run's exploration statistics; [`Measurement::row`] prints the
    /// cost columns of the paper's complexity analysis from them.
    pub stats: Stats,
}

impl Measurement {
    /// One formatted row for the `tables` binary.
    pub fn row(&self) -> String {
        let s = &self.stats;
        format!(
            "{:<42} {:>7} {:>9} {:>9} {:>6} {:>9} {:>8} {:>7} {:>7} {:>9.1}",
            self.label,
            if self.holds { "holds" } else { "viol." },
            s.control_states,
            s.coverability_nodes,
            s.counter_dimensions,
            format!("{}->{}", s.counter_dims_before, s.counter_dims_after),
            s.km_subsumed,
            s.hcd_cells,
            s.merge_unions,
            self.time.as_secs_f64() * 1000.0
        )
    }

    /// The header matching [`Measurement::row`].
    pub fn header() -> String {
        format!(
            "{:<42} {:>7} {:>9} {:>9} {:>6} {:>9} {:>8} {:>7} {:>7} {:>9}",
            "instance",
            "result",
            "states",
            "km-nodes",
            "dims",
            "proj",
            "subsume",
            "cells",
            "unions",
            "time(ms)"
        )
    }
}

/// Runs the verifier on one instance and collects the measurement.
pub fn measure(
    label: &str,
    system: &ArtifactSystem,
    property: &HltlFormula,
    config: VerifierConfig,
) -> Measurement {
    let start = Instant::now();
    let outcome = Verifier::with_config(system, property, config).verify();
    Measurement {
        label: label.to_string(),
        holds: outcome.holds,
        time: start.elapsed(),
        stats: outcome.stats,
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
