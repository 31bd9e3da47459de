//! Ground-truth corpus and differential fuzzing for the HAS verifier.
//!
//! Every other test in this repository checks the verifier against
//! hand-built workloads or against itself. This crate closes the loop the
//! way VERIFAS did for the PODS'16 theory: it *generates* verification
//! instances whose expected outcome is known **by construction** — a
//! [`Certificate`] — and scores the verifier against thousands of them.
//!
//! * [`CorpusInstance`] — one generated instance: the system and property
//!   from a [`Plant`]ed [`has_workloads::generator`] construction, plus the
//!   certificate recording the expected verdict, violation kind (per
//!   witness mode), and originating task. DESIGN.md §5.10 gives the
//!   soundness argument for each plant.
//! * [`sample`] — deterministic seeded sampling of instances across the
//!   generator's parameter space (schema class, depth, width, arithmetic,
//!   artifact relations) with plants cycled round-robin.
//! * [`fuzz`] — the differential driver: runs every instance through the
//!   configuration matrix (threads × witnesses), cross-checks
//!   verdict/kind/origin against the certificate, replays every
//!   reconstructed witness tree in the `has-sim` executor, and
//!   delta-minimizes any mismatching instance.
//! * [`witness_script`] / [`replay_database`] — the bridge from a symbolic
//!   [`has_core::WitnessNode`] tree to a concrete scripted run the simulator can
//!   execute and the monitor can judge.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod db;
mod fuzz;
mod minimize;
mod script;

pub use db::replay_database;
pub use fuzz::{fuzz, ConfigPoint, FuzzOptions, FuzzReport, KindScore, Mismatch, RunVerdict};
pub use minimize::minimize_params;
pub use script::{witness_script, ScriptError};

use has_core::ViolationKind;
use has_ltl::HltlFormula;
use has_model::{ArtifactSystem, SchemaClass, TaskId};
use has_workloads::generator::{GeneratorParams, Plant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The expected outcome of verifying a corpus instance, recorded at
/// generation time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// The property holds on every database and every tree of runs; any
    /// violation verdict is a soundness bug. The clean plants are
    /// *tautology-shaped* (satisfied on every explored path), so exploration
    /// caps cannot flip them — a clean certificate is cap-immune.
    Clean,
    /// Exactly one violation was planted.
    Planted {
        /// The kind reported without witness reconstruction: the root run's
        /// own path kind (a returned-call plant surfaces as the root's
        /// lasso until reconstruction attributes it).
        root_kind: ViolationKind,
        /// The kind reported with witness reconstruction enabled.
        kind: ViolationKind,
        /// The task `Violation::origin()` must name with witnesses enabled
        /// (without a witness tree the origin defaults to the root).
        origin: TaskId,
        /// That task's name.
        origin_name: String,
    },
}

impl Certificate {
    /// The violation kind expected at the given witness setting, or `None`
    /// for clean instances.
    pub fn expected_kind(&self, witnesses: bool) -> Option<ViolationKind> {
        match self {
            Certificate::Clean => None,
            Certificate::Planted {
                root_kind, kind, ..
            } => Some(if witnesses { *kind } else { *root_kind }),
        }
    }
}

/// One corpus instance: a planted system with its certificate.
#[derive(Clone, Debug)]
pub struct CorpusInstance {
    /// Human-readable label (generator parameters plus plant slug).
    pub label: String,
    /// The generator parameters the instance was built from.
    pub params: GeneratorParams,
    /// The plant it carries.
    pub plant: Plant,
    /// The artifact system.
    pub system: ArtifactSystem,
    /// The property to verify.
    pub property: HltlFormula,
    /// The expected outcome.
    pub certificate: Certificate,
}

/// Builds the instance for one parameter point and plant, deriving the
/// certificate from the plant's construction.
pub fn instance(params: &GeneratorParams, plant: Plant) -> CorpusInstance {
    let planted = params.generate_planted(plant);
    let certificate = match plant {
        Plant::CleanTautology | Plant::CleanDichotomy | Plant::CleanNested => Certificate::Clean,
        Plant::Lasso => Certificate::Planted {
            root_kind: ViolationKind::Lasso,
            kind: ViolationKind::Lasso,
            origin: planted.origin,
            origin_name: planted.origin_name.clone(),
        },
        Plant::Blocking => Certificate::Planted {
            root_kind: ViolationKind::Blocking,
            kind: ViolationKind::Blocking,
            origin: planted.origin,
            origin_name: planted.origin_name.clone(),
        },
        // The root's own violating run is an idle lasso; only witness
        // reconstruction attributes the violation to the returned call.
        Plant::Returning => Certificate::Planted {
            root_kind: ViolationKind::Lasso,
            kind: ViolationKind::Returning,
            origin: planted.origin,
            origin_name: planted.origin_name.clone(),
        },
    };
    CorpusInstance {
        label: planted.label,
        params: params.clone(),
        plant,
        system: planted.system,
        property: planted.property,
        certificate,
    }
}

/// Seeded sampling parameters for [`sample`].
#[derive(Clone, Debug)]
pub struct CorpusParams {
    /// RNG seed; the same seed always yields the same instance sequence.
    pub seed: u64,
    /// Number of instances to generate.
    pub count: usize,
}

/// The plant rotation used by [`sample`]: clean and violating plants
/// alternate so every batch scores both false-positive and false-negative
/// behaviour, and all three violation kinds appear with equal frequency.
pub const PLANT_ROTATION: [Plant; 6] = [
    Plant::CleanTautology,
    Plant::Lasso,
    Plant::CleanDichotomy,
    Plant::Blocking,
    Plant::CleanNested,
    Plant::Returning,
];

/// Samples one parameter point. Sizes are kept small (depth ≤ 3, width ≤ 2)
/// so the default exploration caps are generous relative to the instance and
/// bounded verdicts stay rare — the corpus measures soundness, not capacity.
fn sample_params(rng: &mut StdRng) -> GeneratorParams {
    let schema_class = match rng.random_range(0..3u32) {
        0 => SchemaClass::Acyclic,
        1 => SchemaClass::LinearlyCyclic,
        _ => SchemaClass::Cyclic,
    };
    GeneratorParams {
        schema_class,
        depth: rng.random_range(1..=3),
        width: rng.random_range(1..=2),
        numeric_vars: rng.random_range(1..=2),
        artifact_relations: rng.random_bool(0.25),
        arithmetic: rng.random_bool(0.2),
    }
}

/// Generates a deterministic instance sequence: parameter points are drawn
/// from the seeded RNG, plants cycle through [`PLANT_ROTATION`].
pub fn sample(params: &CorpusParams) -> Vec<CorpusInstance> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    (0..params.count)
        .map(|i| {
            let point = sample_params(&mut rng);
            let plant = PLANT_ROTATION[i % PLANT_ROTATION.len()];
            let mut inst = instance(&point, plant);
            inst.label = format!("#{i:04}/{}", inst.label);
            inst
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let params = CorpusParams {
            seed: 42,
            count: 12,
        };
        let a = sample(&params);
        let b = sample(&params);
        let labels =
            |v: &[CorpusInstance]| -> Vec<String> { v.iter().map(|i| i.label.clone()).collect() };
        assert_eq!(labels(&a), labels(&b));
        let c = sample(&CorpusParams {
            seed: 43,
            count: 12,
        });
        assert_ne!(
            labels(&a),
            labels(&c),
            "different seeds explore different points"
        );
    }

    #[test]
    fn rotation_covers_every_plant_and_half_the_batch_is_clean() {
        let batch = sample(&CorpusParams { seed: 7, count: 12 });
        let clean = batch
            .iter()
            .filter(|i| i.certificate == Certificate::Clean)
            .count();
        assert_eq!(clean, 6);
        for plant in PLANT_ROTATION {
            assert!(batch.iter().any(|i| i.plant == plant), "{plant} missing");
        }
    }

    #[test]
    fn certificates_match_the_plants() {
        let params = GeneratorParams::default();
        assert_eq!(
            instance(&params, Plant::CleanNested).certificate,
            Certificate::Clean
        );
        let ret = instance(&params, Plant::Returning);
        let Certificate::Planted {
            root_kind,
            kind,
            origin_name,
            ..
        } = ret.certificate
        else {
            panic!("returning plant must certify a violation");
        };
        assert_eq!(root_kind, ViolationKind::Lasso);
        assert_eq!(kind, ViolationKind::Returning);
        assert_eq!(origin_name, "Probe");
    }
}
