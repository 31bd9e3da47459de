//! Witness-tree → replay-script conversion.
//!
//! A reconstructed [`WitnessNode`] tree names the steps of a violating
//! symbolic run per task. [`witness_script`] lowers it to a
//! [`RunScript`] the `has-sim` replayer can execute: service names are
//! resolved to indices, each `OpenChild` step is paired with the child node
//! describing the chosen child run, and a lasso's pump cycle is unrolled a
//! configurable number of times (the monitor's finite-trace semantics judges
//! the unrolled run).

use has_core::{WitnessNode, WitnessStep};
use has_model::{ArtifactSystem, TaskId};
use has_sim::{RunScript, ScriptMove};
use std::fmt;

/// Why a witness tree could not be lowered to a script.
#[derive(Clone, Debug)]
pub struct ScriptError {
    /// The task whose node failed to lower.
    pub task: TaskId,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot script witness of task {:?}: {}",
            self.task, self.reason
        )
    }
}

impl std::error::Error for ScriptError {}

/// Lowers a witness tree to a replay script. `cycle_repeats` is how many
/// times a lasso node's pump cycle is unrolled (0 replays the prefix alone;
/// 2 demonstrates the cycle is re-enterable from its own post-state).
pub fn witness_script(
    system: &ArtifactSystem,
    node: &WitnessNode,
    cycle_repeats: usize,
) -> Result<RunScript, ScriptError> {
    let mut moves = Vec::new();
    let steps = node.prefix.iter().chain(
        node.cycle
            .iter()
            .cycle()
            .take(node.cycle.len() * cycle_repeats),
    );
    for step in steps {
        match step {
            WitnessStep::Internal { service } => {
                let task = system.schema.task(node.task);
                let Some(idx) = task
                    .internal_services
                    .iter()
                    .position(|s| s.name == *service)
                else {
                    return Err(ScriptError {
                        task: node.task,
                        reason: format!("no internal service named `{service}`"),
                    });
                };
                moves.push(ScriptMove::Internal(idx));
            }
            WitnessStep::OpenChild {
                child,
                child_name,
                beta,
                output,
                ..
            } => {
                // Witness children are deduplicated structurally, so the
                // node for this call is *any* child node realizing the same
                // task, truth assignment and returned-ness.
                let Some(child_node) = node.children.iter().find(|c| {
                    c.task == *child
                        && c.beta == *beta
                        && (c.kind == has_core::ViolationKind::Returning) == output.is_some()
                }) else {
                    return Err(ScriptError {
                        task: node.task,
                        reason: format!(
                            "no child node matches the `{child_name}` call (β={beta:?})"
                        ),
                    });
                };
                let script = witness_script(system, child_node, cycle_repeats)?;
                moves.push(ScriptMove::Open {
                    child: *child,
                    script,
                });
            }
            WitnessStep::CloseChild { child, .. } => {
                moves.push(ScriptMove::Close(*child));
            }
            // The task's own closing is driven by the *parent's* CloseChild
            // move (the replayer applies the output map there); as the last
            // step of a returning run it needs no move of its own.
            WitnessStep::CloseTask => {}
        }
    }
    Ok(RunScript { moves })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance;
    use has_core::{Verifier, VerifierConfig};
    use has_sim::ScriptMove;
    use has_workloads::generator::{GeneratorParams, Plant};

    /// The returning plant's witness lowers to opening `Probe`, running its
    /// empty script and closing it. The root's pump cycle may itself open
    /// and close the child again (the cycle search is free to pick any
    /// non-negative closed walk), so the lowering guarantees balanced
    /// open/close pairs rather than an exact count.
    #[test]
    fn returning_witness_lowers_to_open_and_close() {
        let inst = instance(&GeneratorParams::default(), Plant::Returning);
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
            .expect("witness tree");
        let script = witness_script(&inst.system, witness, 1).expect("lowers");
        let opens = script
            .moves
            .iter()
            .filter(|m| matches!(m, ScriptMove::Open { .. }))
            .count();
        let closes = script
            .moves
            .iter()
            .filter(|m| matches!(m, ScriptMove::Close(_)))
            .count();
        assert!(opens >= 1, "the Probe call must be opened");
        assert_eq!(opens, closes, "every opened child is closed");
        let Some(ScriptMove::Open { script: child, .. }) = script
            .moves
            .iter()
            .find(|m| matches!(m, ScriptMove::Open { .. }))
        else {
            unreachable!()
        };
        assert!(child.moves.is_empty(), "the serviceless Probe has no moves");
    }
}
