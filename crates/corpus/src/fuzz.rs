//! The differential fuzzing driver.
//!
//! [`fuzz`] samples a seeded corpus, runs every instance through the full
//! configuration matrix (threads ∈ {1, 4} × witnesses on/off), and
//! cross-checks each outcome against the instance's
//! [`Certificate`]:
//!
//! * **verdict** — clean instances must verify; planted instances must be
//!   reported violated (a missed plant is excused only when the exploration
//!   statistics show the configured caps were reached — a *bounded* verdict,
//!   counted separately);
//! * **kind and origin** — the reported [`ViolationKind`] and
//!   `Violation::origin()` must match the certificate at each witness mode;
//! * **witness replay** — every reconstructed witness tree is lowered to a
//!   script ([`witness_script`]), re-executed step by step in the `has-sim`
//!   executor on a [`replay_database`], and the resulting concrete tree of
//!   runs must *violate* the property under the runtime monitor.
//!
//! Any mismatch is delta-minimized ([`minimize_params`]) before being
//! reported, so a fuzz failure is actionable as a small regression.

use crate::{
    instance, minimize_params, replay_database, sample, witness_script, Certificate,
    CorpusInstance, CorpusParams,
};
use has_core::{Outcome, Stats, Verifier, VerifierConfig};
use has_sim::{monitor_property, replay_with_retries, ExecutionConfig};
use has_workloads::generator::{GeneratorParams, Plant};
use std::fmt;

/// One point of the configuration matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigPoint {
    /// Worker threads.
    pub threads: usize,
    /// Witness reconstruction.
    pub witnesses: bool,
}

impl fmt::Display for ConfigPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "threads={} witnesses={}",
            self.threads,
            if self.witnesses { "on" } else { "off" }
        )
    }
}

/// The full matrix: threads ∈ {1, 4} × witnesses.
pub fn config_matrix() -> Vec<ConfigPoint> {
    let mut out = Vec::new();
    for threads in [1usize, 4] {
        for witnesses in [false, true] {
            out.push(ConfigPoint { threads, witnesses });
        }
    }
    out
}

/// Options of a fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Corpus seed.
    pub seed: u64,
    /// Number of instances.
    pub count: usize,
    /// Base verifier configuration; the matrix overrides threads and
    /// witnesses per run.
    pub config: VerifierConfig,
    /// Sampling seeds tried per witness replay (each retry re-runs the
    /// script with fresh draws for unconstrained variables).
    pub replay_attempts: u64,
    /// Pump-cycle unrollings in replayed lassos.
    pub cycle_repeats: usize,
    /// Whether to delta-minimize mismatching instances.
    pub minimize: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0xC0DE_5EED,
            count: 120,
            // Bounded exploration caps (the bench harness's profile): the
            // planted violations are all *shallow* — root-level lassos, a
            // root child that blocks, a root child whose returned call
            // violates — so they are found well within these budgets, and
            // the clean plants are cap-immune (see [`Certificate::Clean`]).
            // Tight caps buy a ~10× larger corpus for the same wall-clock.
            config: VerifierConfig {
                max_successors: 48,
                max_control_states: 3_000,
                km_node_cap: 20_000,
                ..VerifierConfig::default()
            },
            replay_attempts: 24,
            cycle_repeats: 2,
            minimize: true,
        }
    }
}

/// What one verifier run amounted to, against the certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunVerdict {
    /// Outcome matches the certificate (including a confirmed replay when a
    /// witness tree was produced).
    Agrees,
    /// A planted violation was not found, but the exploration statistics
    /// show a configured cap was reached: a documented bounded verdict, not
    /// a soundness mismatch.
    Bounded,
    /// Soundness mismatch (wrong verdict, kind or origin; or a witness tree
    /// that does not replay as a violating concrete run).
    Mismatch(String),
}

/// Per-certificate-kind scoreboard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindScore {
    /// Verifier runs checked against this certificate kind.
    pub runs: usize,
    /// Runs agreeing with the certificate.
    pub agreed: usize,
    /// Runs excused as bounded.
    pub bounded: usize,
}

impl KindScore {
    fn absorb(&mut self, verdict: &RunVerdict) {
        self.runs += 1;
        match verdict {
            RunVerdict::Agrees => self.agreed += 1,
            RunVerdict::Bounded => self.bounded += 1,
            RunVerdict::Mismatch(_) => {}
        }
    }

    /// Recall in [0, 1]: agreeing runs over non-bounded runs.
    pub fn recall(&self) -> f64 {
        let scored = self.runs - self.bounded;
        if scored == 0 {
            1.0
        } else {
            self.agreed as f64 / scored as f64
        }
    }
}

/// One soundness mismatch, with its minimized reproducer.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Label of the offending instance.
    pub label: String,
    /// The plant it carried.
    pub plant: Plant,
    /// The parameter point it was generated from.
    pub params: GeneratorParams,
    /// The configuration point the mismatch occurred at.
    pub at: ConfigPoint,
    /// What disagreed.
    pub detail: String,
    /// The delta-minimized parameter point still reproducing the mismatch
    /// (equals `params` when minimization is disabled or no reduction
    /// preserved the failure).
    pub minimized: GeneratorParams,
}

/// Aggregate result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Instances generated.
    pub instances: usize,
    /// Verifier runs performed (instances × matrix points).
    pub runs: usize,
    /// Witness trees replayed in the simulator.
    pub replays: usize,
    /// Scoreboard for clean certificates.
    pub clean: KindScore,
    /// Scoreboard for planted lassos.
    pub lasso: KindScore,
    /// Scoreboard for planted blocking violations.
    pub blocking: KindScore,
    /// Scoreboard for planted returning violations.
    pub returning: KindScore,
    /// Every soundness mismatch found.
    pub mismatches: Vec<Mismatch>,
}

impl FuzzReport {
    /// `true` when no soundness mismatch was observed.
    pub fn sound(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Total bounded verdicts across certificate kinds.
    pub fn bounded(&self) -> usize {
        self.clean.bounded + self.lasso.bounded + self.blocking.bounded + self.returning.bounded
    }
}

/// Whether the run's statistics show a configured exploration cap was
/// reached. Karp–Miller truncation is counted per build (`km_capped`); the
/// control-state count is summed across tasks, so that half is a
/// *conservative over*-classification (a sum can reach the cap without any
/// single graph having been truncated) — acceptable because bounded
/// verdicts only ever excuse a missed plant, never a wrong violation.
fn truncated(stats: &Stats, config: &VerifierConfig) -> bool {
    stats.control_states >= config.max_control_states || stats.km_capped > 0
}

/// Checks one verifier outcome (and, with witnesses on, its replayed
/// witness) against the certificate.
fn check_outcome(
    inst: &CorpusInstance,
    outcome: &Outcome,
    at: ConfigPoint,
    config: &VerifierConfig,
    opts: &FuzzOptions,
    replays: &mut usize,
) -> RunVerdict {
    match &inst.certificate {
        Certificate::Clean => {
            if outcome.holds {
                RunVerdict::Agrees
            } else {
                // Clean plants are tautology-shaped: satisfied on every
                // explored path, so not even a truncated search may report
                // a violation.
                RunVerdict::Mismatch(format!("clean instance reported violated: {outcome}"))
            }
        }
        Certificate::Planted {
            origin,
            origin_name,
            ..
        } => {
            if outcome.holds {
                return if truncated(&outcome.stats, config) {
                    RunVerdict::Bounded
                } else {
                    RunVerdict::Mismatch(format!(
                        "planted {} violation missed without reaching any cap: {outcome}",
                        inst.plant
                    ))
                };
            }
            let Some(violation) = outcome.violation.as_ref() else {
                return RunVerdict::Mismatch("violated but no violation record".to_string());
            };
            let expected_kind = inst
                .certificate
                .expected_kind(at.witnesses)
                .expect("planted certificate");
            if violation.kind != expected_kind {
                return RunVerdict::Mismatch(format!(
                    "expected {expected_kind:?}, verifier reported {:?}",
                    violation.kind
                ));
            }
            if at.witnesses {
                if violation.origin() != *origin {
                    return RunVerdict::Mismatch(format!(
                        "expected origin `{origin_name}`, verifier reported `{}`",
                        violation.origin_name().unwrap_or("<root>")
                    ));
                }
                let Some(witness) = violation.witness.as_ref() else {
                    return RunVerdict::Mismatch(
                        "witnesses enabled but no tree reconstructed".to_string(),
                    );
                };
                let script = match witness_script(&inst.system, witness, opts.cycle_repeats) {
                    Ok(script) => script,
                    Err(e) => return RunVerdict::Mismatch(format!("unscriptable witness: {e}")),
                };
                let db = replay_database(&inst.system.schema.database);
                *replays += 1;
                let exec_config = ExecutionConfig {
                    seed: 1,
                    ..ExecutionConfig::default()
                };
                let tree = match replay_with_retries(
                    &inst.system,
                    &db,
                    &script,
                    exec_config,
                    opts.replay_attempts,
                ) {
                    Ok(tree) => tree,
                    Err(e) => return RunVerdict::Mismatch(format!("witness does not replay: {e}")),
                };
                if monitor_property(&inst.system, &db, &tree, &inst.property) {
                    return RunVerdict::Mismatch(
                        "replayed witness run satisfies the property".to_string(),
                    );
                }
            }
            RunVerdict::Agrees
        }
    }
}

/// Runs one instance at one matrix point.
fn check_at(
    inst: &CorpusInstance,
    at: ConfigPoint,
    opts: &FuzzOptions,
    replays: &mut usize,
) -> RunVerdict {
    let config = opts
        .config
        .clone()
        .with_threads(at.threads)
        .with_witnesses(at.witnesses);
    let outcome = Verifier::with_config(&inst.system, &inst.property, config.clone()).verify();
    check_outcome(inst, &outcome, at, &config, opts, replays)
}

/// Runs the differential fuzzing campaign.
pub fn fuzz(opts: &FuzzOptions) -> FuzzReport {
    let corpus = sample(&CorpusParams {
        seed: opts.seed,
        count: opts.count,
    });
    let matrix = config_matrix();
    let mut report = FuzzReport {
        instances: corpus.len(),
        ..FuzzReport::default()
    };
    for inst in &corpus {
        for &at in &matrix {
            report.runs += 1;
            let verdict = check_at(inst, at, opts, &mut report.replays);
            let score = match (&inst.certificate, inst.plant) {
                (Certificate::Clean, _) => &mut report.clean,
                (_, Plant::Lasso) => &mut report.lasso,
                (_, Plant::Blocking) => &mut report.blocking,
                (_, Plant::Returning) => &mut report.returning,
                _ => &mut report.clean,
            };
            score.absorb(&verdict);
            if let RunVerdict::Mismatch(detail) = verdict {
                let minimized = if opts.minimize {
                    let plant = inst.plant;
                    let mut scratch_replays = 0usize;
                    minimize_params(&inst.params, |candidate| {
                        let reduced = instance(candidate, plant);
                        matches!(
                            check_at(&reduced, at, opts, &mut scratch_replays),
                            RunVerdict::Mismatch(_)
                        )
                    })
                } else {
                    inst.params.clone()
                };
                report.mismatches.push(Mismatch {
                    label: inst.label.clone(),
                    plant: inst.plant,
                    params: inst.params.clone(),
                    at,
                    detail,
                    minimized,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small smoke batch across the whole matrix: zero mismatches, and
    /// every certificate kind actually scored.
    #[test]
    fn smoke_batch_is_sound() {
        let opts = FuzzOptions {
            seed: 11,
            count: 6,
            ..FuzzOptions::default()
        };
        let report = fuzz(&opts);
        assert_eq!(report.instances, 6);
        assert_eq!(report.runs, 6 * 4);
        assert!(report.sound(), "mismatches: {:#?}", report.mismatches);
        for (name, score) in [
            ("clean", report.clean),
            ("lasso", report.lasso),
            ("blocking", report.blocking),
            ("returning", report.returning),
        ] {
            assert!(score.runs > 0, "{name} never scored");
            assert!(score.recall() == 1.0, "{name} recall {}", score.recall());
        }
        assert!(report.replays > 0, "no witness was replayed");
    }

    /// An instance whose certificate is deliberately wrong is caught and
    /// minimized — exercising the mismatch path end to end.
    #[test]
    fn wrong_certificates_are_caught_and_minimized() {
        let params = GeneratorParams {
            depth: 2,
            width: 2,
            ..GeneratorParams::default()
        };
        let mut inst = instance(&params, Plant::Lasso);
        inst.certificate = Certificate::Clean; // lie
        let opts = FuzzOptions::default();
        let mut replays = 0;
        let at = ConfigPoint {
            threads: 1,
            witnesses: false,
        };
        let verdict = check_at(&inst, at, &opts, &mut replays);
        assert!(matches!(verdict, RunVerdict::Mismatch(_)), "{verdict:?}");
    }
}
