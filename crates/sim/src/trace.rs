//! Recorded trees of local runs.

use has_data::Valuation;
use has_model::{ServiceRef, TaskId};

/// One recorded step of a local run: the service that fired and the task's
/// valuation immediately afterwards. Steps that open a child carry the index
/// of the child's run node.
#[derive(Clone, Debug)]
pub struct Step {
    /// The service observed at this position.
    pub service: ServiceRef,
    /// The task's valuation after the step.
    pub valuation: Valuation,
    /// For child-opening steps, the node index of the spawned child run.
    pub child: Option<usize>,
}

/// The recorded local run of one task invocation.
#[derive(Clone, Debug)]
pub struct TaskTrace {
    /// The task.
    pub task: TaskId,
    /// The steps, starting with the opening service.
    pub steps: Vec<Step>,
    /// Whether the run ended with the task's closing service.
    pub returned: bool,
}

impl TaskTrace {
    /// Number of recorded positions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if no step was recorded (never the case for runs
    /// produced by the executor, which always records the opening).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// A tree of local runs: all task invocations recorded during one execution,
/// linked parent-to-child through the opening steps.
#[derive(Clone, Debug, Default)]
pub struct TreeOfRuns {
    /// All run nodes; index 0 is the root task's run.
    pub nodes: Vec<TaskTrace>,
}

impl TreeOfRuns {
    /// The root run.
    pub fn root(&self) -> &TaskTrace {
        &self.nodes[0]
    }

    /// Total number of recorded steps across all runs.
    pub fn total_steps(&self) -> usize {
        self.nodes.iter().map(TaskTrace::len).sum()
    }

    /// Number of task invocations.
    pub fn invocation_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_accessors() {
        let tree = TreeOfRuns {
            nodes: vec![
                TaskTrace {
                    task: TaskId(0),
                    steps: vec![Step {
                        service: ServiceRef::Opening(TaskId(0)),
                        valuation: Valuation::new(),
                        child: None,
                    }],
                    returned: false,
                },
                TaskTrace {
                    task: TaskId(1),
                    steps: vec![],
                    returned: true,
                },
            ],
        };
        assert_eq!(tree.root().task, TaskId(0));
        assert_eq!(tree.total_steps(), 1);
        assert_eq!(tree.invocation_count(), 2);
        assert!(tree.nodes[1].is_empty());
        assert!(!tree.root().is_empty());
    }
}
