//! Task schemas, artifact variables and services (Definitions 2–6).

use crate::condition::Condition;
use crate::ids::{TaskId, VarId};

/// The sort of an artifact variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VarSort {
    /// An ID variable: its domain is `{null} ∪ DOM_id`.
    Id,
    /// A numeric variable: its domain is ℝ (ℚ in this implementation).
    Numeric,
}

/// An artifact variable. Variables are owned by exactly one task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Variable {
    /// Human-readable name (unique within its task).
    pub name: String,
    /// Sort of the variable.
    pub sort: VarSort,
    /// Owning task.
    pub task: TaskId,
}

/// The artifact relation `S^T` of a task, with its fixed insertion/retrieval
/// tuple `s̄^T` (Definition 2, restriction 7 of Section 6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactRelation {
    /// Name of the artifact relation.
    pub name: String,
    /// The tuple of distinct ID variables `s̄^T ⊆ x̄^T` whose value is
    /// inserted into / retrieved from the relation.
    pub tuple: Vec<VarId>,
}

/// The set update `δ` of an internal service (Definition 5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SetUpdate {
    /// No set update.
    #[default]
    None,
    /// `+S^T(s̄^T)`: insert the current value of `s̄^T`.
    Insert,
    /// `-S^T(s̄^T)`: retrieve (remove) some tuple and assign it to `s̄^T`.
    Retrieve,
    /// Both an insertion of the current tuple and a retrieval.
    InsertRetrieve,
}

impl SetUpdate {
    /// Returns `true` if the update inserts the current tuple.
    pub fn inserts(&self) -> bool {
        matches!(self, SetUpdate::Insert | SetUpdate::InsertRetrieve)
    }

    /// Returns `true` if the update retrieves a tuple.
    pub fn retrieves(&self) -> bool {
        matches!(self, SetUpdate::Retrieve | SetUpdate::InsertRetrieve)
    }
}

/// An internal service `σ = ⟨π, ψ, δ⟩` of a task (Definition 5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InternalService {
    /// Service name (for reporting and for property propositions).
    pub name: String,
    /// Pre-condition `π` over the task's variables.
    pub pre: Condition,
    /// Post-condition `ψ` over the task's variables (constrains the *next*
    /// valuation).
    pub post: Condition,
    /// Artifact-relation update.
    pub delta: SetUpdate,
}

/// The opening service `σ^o_{Tc}` of a child task (Definition 6(i)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpeningService {
    /// Pre-condition over the *parent's* variables (for the root task this is
    /// `true`; the global pre-condition Π is stored on the system).
    pub pre: Condition,
    /// The input variable mapping `f_in`, as pairs `(child_input_var,
    /// parent_var)`: when the child opens, each child input variable receives
    /// the value of the corresponding parent variable.
    pub input_map: Vec<(VarId, VarId)>,
}

/// The closing service `σ^c_{Tc}` of a child task (Definition 6(ii)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosingService {
    /// Pre-condition over the *child's* variables.
    pub pre: Condition,
    /// The output variable mapping `f_out`, as pairs `(parent_var,
    /// child_return_var)`: when the child closes, each listed parent variable
    /// receives the value of the corresponding child variable — subject to
    /// the restriction that only `null` parent ID variables are overwritten
    /// (restriction 2 of Section 6).
    pub output_map: Vec<(VarId, VarId)>,
}

/// A task schema `T = ⟨x̄^T, S^T, s̄^T⟩` plus its services and its position
/// in the hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSchema {
    /// Task name.
    pub name: String,
    /// The task's artifact variables `x̄^T` (all sorts), in declaration order.
    pub variables: Vec<VarId>,
    /// The input variables `x̄^T_in ⊆ x̄^T`.
    pub input_vars: Vec<VarId>,
    /// The artifact relation, if the task uses one.
    pub artifact_relation: Option<ArtifactRelation>,
    /// Internal services `Σ_T`.
    pub internal_services: Vec<InternalService>,
    /// Opening service (pre-condition over the parent's variables).
    pub opening: OpeningService,
    /// Closing service (pre-condition over this task's variables).
    pub closing: ClosingService,
    /// Parent task (`None` for the root).
    pub parent: Option<TaskId>,
    /// Children, in declaration order.
    pub children: Vec<TaskId>,
}

impl TaskSchema {
    /// Returns `true` if this is a leaf task.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// The return variables of this task: the child-side variables of the
    /// output mapping (`x̄^T_ret` in the paper).
    pub fn return_vars(&self) -> Vec<VarId> {
        self.closing.output_map.iter().map(|(_, c)| *c).collect()
    }

    /// Returns `true` if the given variable is an input variable.
    pub fn is_input_var(&self, v: VarId) -> bool {
        self.input_vars.contains(&v)
    }

    /// Returns `true` if the task owns the given variable.
    pub fn owns(&self, v: VarId) -> bool {
        self.variables.contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_task() -> TaskSchema {
        TaskSchema {
            name: "T".into(),
            variables: vec![VarId(0), VarId(1)],
            input_vars: vec![VarId(0)],
            artifact_relation: None,
            internal_services: vec![],
            opening: OpeningService {
                pre: Condition::True,
                input_map: vec![(VarId(0), VarId(7))],
            },
            closing: ClosingService {
                pre: Condition::False,
                output_map: vec![(VarId(8), VarId(1))],
            },
            parent: Some(TaskId(0)),
            children: vec![],
        }
    }

    #[test]
    fn set_update_flags() {
        assert!(!SetUpdate::None.inserts());
        assert!(SetUpdate::Insert.inserts());
        assert!(!SetUpdate::Insert.retrieves());
        assert!(SetUpdate::Retrieve.retrieves());
        assert!(SetUpdate::InsertRetrieve.inserts() && SetUpdate::InsertRetrieve.retrieves());
    }

    #[test]
    fn task_variable_roles() {
        let t = minimal_task();
        assert!(t.is_leaf());
        assert!(t.owns(VarId(0)));
        assert!(!t.owns(VarId(9)));
        assert!(t.is_input_var(VarId(0)));
        assert!(!t.is_input_var(VarId(1)));
        assert_eq!(t.return_vars(), vec![VarId(1)]);
    }
}
