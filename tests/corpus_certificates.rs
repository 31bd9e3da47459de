//! Certificate soundness of the ground-truth corpus (DESIGN.md §5.10): the
//! generator's plants must mean what their certificates claim, *before* the
//! fuzz driver uses them to score the verifier.
//!
//! - Clean certificates: the verifier proves the property, and randomized
//!   simulator sweeps never produce a run the monitor rejects.
//! - Planted certificates: the verifier reports the certified violation
//!   kind at both witness settings, attributes the certified origin with
//!   witnesses enabled, and the reconstructed witness tree is *executable*
//!   — it replays step by step in the concrete executor as a run the
//!   monitor judges violating.

use has::corpus::{
    fuzz, instance, replay_database, sample, witness_script, Certificate, CorpusParams,
    FuzzOptions, PLANT_ROTATION,
};
use has::data::{DatabaseGenerator, GeneratorConfig};
use has::sim::{monitor_property, replay_with_retries, ExecutionConfig, Executor};
use has::verifier::{Verifier, VerifierConfig};
use has::workloads::generator::{GeneratorParams, Plant};

/// Every plant of the rotation at the default parameter point: the verifier
/// verdict, kind and origin match the certificate at both witness settings.
#[test]
fn planted_outcomes_match_certificates_at_both_witness_settings() {
    let params = GeneratorParams::default();
    for plant in PLANT_ROTATION {
        let inst = instance(&params, plant);
        for witnesses in [false, true] {
            let config = VerifierConfig::default().with_witnesses(witnesses);
            let outcome = Verifier::with_config(&inst.system, &inst.property, config).verify();
            match &inst.certificate {
                Certificate::Clean => {
                    assert!(outcome.holds, "{}: {outcome}", inst.label);
                }
                Certificate::Planted {
                    origin,
                    origin_name,
                    ..
                } => {
                    assert!(!outcome.holds, "{}: {outcome}", inst.label);
                    let violation = outcome.violation.as_ref().expect("violation record");
                    let expected = inst.certificate.expected_kind(witnesses).unwrap();
                    assert_eq!(
                        violation.kind, expected,
                        "{} (witnesses={witnesses}): {outcome}",
                        inst.label
                    );
                    if witnesses {
                        assert_eq!(
                            violation.origin(),
                            *origin,
                            "{}: expected origin `{origin_name}`",
                            inst.label
                        );
                    }
                }
            }
        }
    }
}

/// Clean instances are clean *semantically*, not just symbolically: random
/// concrete executions on a generated database never violate the property.
#[test]
fn clean_instances_survive_simulator_sweeps() {
    let params = GeneratorParams::default();
    for plant in [
        Plant::CleanTautology,
        Plant::CleanDichotomy,
        Plant::CleanNested,
    ] {
        let inst = instance(&params, plant);
        let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
        let db = generator.generate(&inst.system.schema.database);
        for seed in 0..8 {
            let mut exec = Executor::new(
                &inst.system,
                &db,
                ExecutionConfig {
                    seed,
                    max_steps: 150,
                    ..ExecutionConfig::default()
                },
            );
            let tree = exec.run();
            assert!(
                monitor_property(&inst.system, &db, &tree, &inst.property),
                "{}: simulated run (seed {seed}) violated a clean certificate",
                inst.label
            );
        }
    }
}

/// Every planted violation's witness tree is executable: the lowered script
/// replays in the concrete executor and the monitor rejects the replayed run.
#[test]
fn planted_witnesses_replay_step_by_step() {
    let params = GeneratorParams::default();
    for plant in [Plant::Lasso, Plant::Blocking, Plant::Returning] {
        let inst = instance(&params, plant);
        let outcome = Verifier::with_config(
            &inst.system,
            &inst.property,
            VerifierConfig::default().with_witnesses(true),
        )
        .verify();
        let witness = outcome
            .violation
            .as_ref()
            .and_then(|v| v.witness.as_ref())
            .unwrap_or_else(|| panic!("{}: no witness tree", inst.label));
        let script = witness_script(&inst.system, witness, 2)
            .unwrap_or_else(|e| panic!("{}: {e}", inst.label));
        let db = replay_database(&inst.system.schema.database);
        let exec_config = ExecutionConfig {
            seed: 1,
            ..ExecutionConfig::default()
        };
        let tree = replay_with_retries(&inst.system, &db, &script, exec_config, 64)
            .unwrap_or_else(|e| panic!("{}: witness does not replay: {e}", inst.label));
        assert!(
            !monitor_property(&inst.system, &db, &tree, &inst.property),
            "{}: the replayed witness run satisfies the property",
            inst.label
        );
    }
}

/// A small differential batch across the full configuration matrix finds no
/// soundness mismatch (the deep sweep is EXP-C2, run by the bench harness).
#[test]
fn small_fuzz_batch_is_sound() {
    let opts = FuzzOptions {
        seed: 5,
        count: 6,
        ..FuzzOptions::default()
    };
    let report = fuzz(&opts);
    assert_eq!(report.instances, 6);
    assert!(report.sound(), "mismatches: {:#?}", report.mismatches);
    assert!(report.replays > 0, "no witness tree was replayed");
}

/// Corpus sampling is reproducible: a committed seed names the same instance
/// sequence on every machine.
#[test]
fn corpus_sampling_is_reproducible() {
    let params = CorpusParams { seed: 9, count: 8 };
    let a = sample(&params);
    let b = sample(&params);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.certificate, y.certificate);
        assert_eq!(format!("{:?}", x.params), format!("{:?}", y.params));
    }
}
