//! The three workloads: their instances, verifier configurations and answer
//! keys.
//!
//! Every configuration sets `threads = 1` explicitly and takes `projection`,
//! `presolve` and `shared_km` from `VerifierConfig::default()` (the caller
//! refuses to run when the environment could change those defaults).

use has::ltl::HltlFormula;
use has::model::{ArtifactSystem, SchemaClass};
use has::verifier::{Outcome, Stats, VerifierConfig};
use has::workloads::counters::{counter_gadget, counter_liveness_property};
use has::workloads::generator::GeneratorParams;
use has::workloads::travel::{travel_booking, travel_property, TravelVariant};
use has_bench::{bench_config, fast_config};

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// EXP-T1/T2: schema class × artifact relations × arithmetic, d2w1.
    Grid,
    /// Appendix A.2 policy on Buggy and Fixed travel booking.
    TravelA2,
    /// The Theorem 11 counter gadget at d = 1, 2, 3 (EXP-F2).
    Gadget,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::TravelA2, Workload::Gadget];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::TravelA2 => "travel-a2",
            Workload::Gadget => "gadget",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the instances every sweep verifies. None depends on the seed:
    /// each is a fixed instance of the paper's or the repository's
    /// experiments.
    pub fn instances(self) -> Vec<Instance> {
        match self {
            Workload::Grid => grid(),
            Workload::TravelA2 => travel_a2(),
            Workload::Gadget => gadget(),
        }
    }
}

/// What the answer key expects of one instance's outcome.
#[derive(Clone, Debug)]
pub enum Key {
    /// The property holds.
    Holds,
    /// The property is violated; kind and origin are not pinned.
    Violated,
    /// The property is violated, the witness tree is rooted at the named
    /// task and resolves an originating task.
    ViolatedRootedAt(&'static str),
}

impl Key {
    /// The key with its expected verdict inverted (for the self-test).
    pub fn flipped(&self) -> Key {
        if matches!(self, Key::Holds) {
            Key::Violated
        } else {
            Key::Holds
        }
    }
}

/// One verification call of a workload.
pub struct Instance {
    /// Row label.
    pub label: String,
    /// The system.
    pub system: ArtifactSystem,
    /// The property.
    pub property: HltlFormula,
    /// The verifier configuration.
    pub config: VerifierConfig,
    /// The expected outcome.
    pub key: Key,
}

impl Instance {
    fn new(
        label: String,
        system: ArtifactSystem,
        property: HltlFormula,
        config: VerifierConfig,
        key: Key,
    ) -> Self {
        Instance {
            label,
            system,
            property,
            config: config.with_threads(1),
            key,
        }
    }

    /// Whether the run's statistics reach a cap, by the fuzz driver's rule.
    pub fn capped(&self, stats: &Stats) -> bool {
        stats.control_states >= self.config.max_control_states
            || stats.coverability_nodes >= self.config.km_node_cap
    }

    /// Checks an outcome against the answer key. A missed violation is a
    /// failure even when a cap was reached.
    pub fn check(&self, outcome: &Outcome) -> Result<(), String> {
        match (&self.key, outcome.holds) {
            (Key::Holds, true) | (Key::Violated, false) => Ok(()),
            (Key::Holds, false) => Err(format!("expected HOLDS: {outcome}")),
            (Key::Violated | Key::ViolatedRootedAt(_), true) => {
                Err(format!("expected a violation: {outcome}"))
            }
            (Key::ViolatedRootedAt(root), false) => {
                let violation = outcome.violation.as_ref().ok_or("no violation record")?;
                let witness = violation.witness.as_ref().ok_or("no witness tree")?;
                if witness.task_name != *root {
                    return Err(format!(
                        "witness rooted at `{}`, expected `{root}`",
                        witness.task_name
                    ));
                }
                violation
                    .origin_name()
                    .map(|_| ())
                    .ok_or_else(|| "no originating task resolved".to_string())
            }
        }
    }
}

/// The 12 EXP-T1/T2 instances at `bench_config`, with the cell
/// decomposition on for the arithmetic rows. No independent key exists:
/// the verdicts are pinned to the ones the verifier gave when the benchmark
/// was defined (`-ar` rows hold, `+ar` rows are violated), so this key only
/// detects regressions.
fn grid() -> Vec<Instance> {
    let mut out = Vec::new();
    for arithmetic in [false, true] {
        for schema_class in [
            SchemaClass::Acyclic,
            SchemaClass::LinearlyCyclic,
            SchemaClass::Cyclic,
        ] {
            for artifact_relations in [false, true] {
                let generated = GeneratorParams {
                    schema_class,
                    artifact_relations,
                    arithmetic,
                    depth: 2,
                    width: 1,
                    numeric_vars: if arithmetic { 2 } else { 1 },
                }
                .generate();
                let config = VerifierConfig {
                    use_cells: arithmetic,
                    ..bench_config()
                };
                let key = if artifact_relations {
                    Key::Violated
                } else {
                    Key::Holds
                };
                out.push(Instance::new(
                    generated.label,
                    generated.system,
                    generated.property,
                    config,
                    key,
                ));
            }
        }
    }
    out
}

/// Appendix A.2 on Buggy and Fixed travel booking, configured as
/// `tests/a2_violation.rs`: default search budgets, `max_merge_pairs = 12`,
/// witnesses on.
fn travel_a2() -> Vec<Instance> {
    let config = VerifierConfig {
        max_merge_pairs: 12,
        ..VerifierConfig::default()
    }
    .with_witnesses(true);
    [
        (
            TravelVariant::Buggy,
            "buggy",
            Key::ViolatedRootedAt("ManageTrips"),
        ),
        (TravelVariant::Fixed, "fixed", Key::Holds),
    ]
    .into_iter()
    .map(|(variant, name, key)| {
        let t = travel_booking(variant);
        let property = travel_property(&t);
        Instance::new(
            format!("travel-a2/{name}"),
            t.system,
            property,
            config.clone(),
            key,
        )
    })
    .collect()
}

/// The counter gadget at d = 1, 2, 3 with `fast_config`: violated for every
/// d, since `Inc` can repeat forever without `Dec`.
fn gadget() -> Vec<Instance> {
    (1..=3)
        .map(|d| {
            let g = counter_gadget(d);
            let property = counter_liveness_property(&g);
            Instance::new(
                format!("counter-gadget/d={d}"),
                g.system,
                property,
                fast_config(),
                Key::Violated,
            )
        })
        .collect()
}
