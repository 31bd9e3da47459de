//! Artifact schemas and artifact systems (Definitions 3, 4 and 7).

use crate::condition::Condition;
use crate::ids::{ServiceRef, TaskId, VarId};
use crate::schema::{DatabaseSchema, SchemaClass};
use crate::task::{TaskSchema, VarSort, Variable};

/// An artifact schema `A = ⟨H, DB⟩`: a database schema plus a rooted tree of
/// task schemas with pairwise disjoint variables (Definition 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactSchema {
    /// The underlying database schema.
    pub database: DatabaseSchema,
    /// All artifact variables of all tasks, indexed by [`VarId`].
    pub variables: Vec<Variable>,
    /// All task schemas, indexed by [`TaskId`]. The root task is
    /// [`ArtifactSchema::root`].
    pub tasks: Vec<TaskSchema>,
    /// The root task of the hierarchy (`T1` in the paper).
    pub root: TaskId,
}

impl ArtifactSchema {
    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> &TaskSchema {
        &self.tasks[id.0]
    }

    /// The variable with the given id.
    pub fn variable(&self, id: VarId) -> &Variable {
        &self.variables[id.0]
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Iterates over `(id, task)` pairs.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &TaskSchema)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Iterates over `(id, variable)` pairs.
    pub fn variables(&self) -> impl Iterator<Item = (VarId, &Variable)> {
        self.variables
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId(i), v))
    }

    /// Looks up a task by name.
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.name == name).map(TaskId)
    }

    /// Looks up a variable of a task by name.
    pub fn var_by_name(&self, task: TaskId, name: &str) -> Option<VarId> {
        self.task(task)
            .variables
            .iter()
            .copied()
            .find(|v| self.variable(*v).name == name)
    }

    /// The ID variables of a task (`x̄^T_id`).
    pub fn id_vars(&self, task: TaskId) -> Vec<VarId> {
        self.task(task)
            .variables
            .iter()
            .copied()
            .filter(|v| self.variable(*v).sort == VarSort::Id)
            .collect()
    }

    /// The numeric variables of a task (`x̄^T_ℝ`).
    pub fn numeric_vars(&self, task: TaskId) -> Vec<VarId> {
        self.task(task)
            .variables
            .iter()
            .copied()
            .filter(|v| self.variable(*v).sort == VarSort::Numeric)
            .collect()
    }

    /// The descendants of a task, excluding the task itself (`desc(T)`),
    /// in pre-order.
    pub fn descendants(&self, task: TaskId) -> Vec<TaskId> {
        let mut out = Vec::new();
        let mut stack: Vec<TaskId> = self.task(task).children.clone();
        while let Some(t) = stack.pop() {
            out.push(t);
            stack.extend(self.task(t).children.iter().copied());
        }
        out
    }

    /// Depth of the hierarchy `H` (a single task has depth 1).
    pub fn depth(&self) -> usize {
        fn rec(schema: &ArtifactSchema, t: TaskId) -> usize {
            1 + schema
                .task(t)
                .children
                .iter()
                .map(|c| rec(schema, *c))
                .max()
                .unwrap_or(0)
        }
        rec(self, self.root)
    }

    /// The services observable in runs of task `T` (`Σ^obs_T`): the task's
    /// internal services, its own opening and closing services, and the
    /// opening/closing services of its children.
    pub fn observable_services(&self, task: TaskId) -> Vec<ServiceRef> {
        let mut out = Vec::new();
        let t = self.task(task);
        for i in 0..t.internal_services.len() {
            out.push(ServiceRef::Internal(task, i));
        }
        out.push(ServiceRef::Opening(task));
        out.push(ServiceRef::Closing(task));
        for &c in &t.children {
            out.push(ServiceRef::Opening(c));
            out.push(ServiceRef::Closing(c));
        }
        out
    }

    /// The paper's navigation depth `h(T)` (Section 4.1):
    /// `h(T) = 1 + |x̄^T| · F(δ)` where `δ = 1` for leaf tasks and
    /// `δ = max h(T_c)` over children otherwise, and `F(n)` is the maximum
    /// number of foreign-key paths of length ≤ n from any relation.
    ///
    /// Both the path count and the result are clamped at `cap`; for cyclic
    /// schemas the exact value is astronomically large (see DESIGN.md §5.3),
    /// and every caller of `h(T)` treats it as "navigate at most this deep".
    pub fn navigation_depth(&self, task: TaskId, cap: usize) -> usize {
        let t = self.task(task);
        let delta = if t.is_leaf() {
            1
        } else {
            t.children
                .iter()
                .map(|c| self.navigation_depth(*c, cap))
                .max()
                .unwrap_or(1)
        };
        let f = self.database.max_paths_up_to(delta, cap);
        (1usize)
            .saturating_add(t.variables.len().saturating_mul(f))
            .min(cap)
    }

    /// Classification of the database schema (acyclic / linearly-cyclic /
    /// cyclic).
    pub fn schema_class(&self) -> SchemaClass {
        self.database.classify()
    }

    /// Returns `true` if any task declares an artifact relation.
    pub fn uses_artifact_relations(&self) -> bool {
        self.tasks.iter().any(|t| t.artifact_relation.is_some())
    }

    /// Returns `true` if any condition in the system uses arithmetic atoms.
    pub fn uses_arithmetic(&self) -> bool {
        self.tasks.iter().any(|t| {
            t.internal_services.iter().any(|s| {
                !s.pre.arithmetic_atoms().is_empty() || !s.post.arithmetic_atoms().is_empty()
            }) || !t.opening.pre.arithmetic_atoms().is_empty()
                || !t.closing.pre.arithmetic_atoms().is_empty()
        })
    }

    /// Total size of the specification: number of tasks + variables +
    /// services + atoms, the `N` of Tables 1 and 2.
    pub fn size(&self) -> usize {
        let mut n = self.tasks.len() + self.variables.len() + self.database.len();
        for t in &self.tasks {
            n += t.internal_services.len();
            for s in &t.internal_services {
                n += s.pre.atoms().len() + s.post.atoms().len();
            }
            n += t.opening.pre.atoms().len() + t.closing.pre.atoms().len();
        }
        n
    }
}

/// A Hierarchical Artifact System `Γ = ⟨A, Σ, Π⟩` (Definition 7).
///
/// The services `Σ` are stored inside the task schemas of `A`; `Π` is the
/// global pre-condition on the root task's input variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactSystem {
    /// The artifact schema (tasks + database schema + services).
    pub schema: ArtifactSchema,
    /// The global pre-condition `Π` over the root task's input variables.
    pub precondition: Condition,
}

impl ArtifactSystem {
    /// The root task id.
    pub fn root(&self) -> TaskId {
        self.schema.root
    }

    /// Shorthand for [`ArtifactSchema::task`].
    pub fn task(&self, id: TaskId) -> &TaskSchema {
        self.schema.task(id)
    }

    /// Shorthand for [`ArtifactSchema::variable`].
    pub fn variable(&self, id: VarId) -> &Variable {
        self.schema.variable(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;

    /// A small two-level system used by several unit tests in this crate.
    fn sample() -> ArtifactSystem {
        let mut b = SystemBuilder::new("sample");
        let hotels = b.relation("HOTELS", &["price"], &[]);
        let _flights = b.relation("FLIGHTS", &["price"], &[("hotel", "HOTELS")]);
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        let y = b.id_var(root, "y");
        let amount = b.num_var(root, "amount");
        b.input_vars(root, &[x]);
        let child = b.child_task(root, "Child");
        let cx = b.id_var(child, "cx");
        let cy = b.id_var(child, "cy");
        b.open_when(child, Condition::True);
        b.map_input(child, cx, x);
        b.close_when(child, Condition::True);
        b.map_output(child, y, cy);
        let _ = (hotels, amount);
        b.internal_service(
            root,
            "noop",
            Condition::True,
            Condition::True,
            crate::SetUpdate::None,
        );
        b.build().expect("valid sample system")
    }

    #[test]
    fn hierarchy_navigation() {
        let sys = sample();
        let schema = &sys.schema;
        assert_eq!(schema.task_count(), 2);
        assert_eq!(schema.depth(), 2);
        let root = schema.root;
        let child = schema.task_by_name("Child").unwrap();
        assert_eq!(schema.descendants(root), vec![child]);
        assert!(schema.descendants(child).is_empty());
    }

    #[test]
    fn variable_lookup_and_sorts() {
        let sys = sample();
        let schema = &sys.schema;
        let root = schema.root;
        let x = schema.var_by_name(root, "x").unwrap();
        let y = schema.var_by_name(root, "y").unwrap();
        assert_eq!(schema.variable(x).sort, VarSort::Id);
        assert_eq!(schema.id_vars(root), vec![x, y]);
        assert_eq!(schema.numeric_vars(root).len(), 1);
        assert!(schema.var_by_name(root, "cx").is_none());
    }

    #[test]
    fn observable_services_cover_children() {
        let sys = sample();
        let schema = &sys.schema;
        let root = schema.root;
        let child = schema.task_by_name("Child").unwrap();
        let obs = schema.observable_services(root);
        assert!(obs.contains(&ServiceRef::Internal(root, 0)));
        assert!(obs.contains(&ServiceRef::Opening(child)));
        assert!(obs.contains(&ServiceRef::Closing(child)));
        assert!(obs.contains(&ServiceRef::Opening(root)));
    }

    #[test]
    fn schema_level_flags() {
        let sys = sample();
        assert_eq!(sys.schema.schema_class(), SchemaClass::Acyclic);
        assert!(!sys.schema.uses_artifact_relations());
        assert!(!sys.schema.uses_arithmetic());
        assert!(sys.schema.size() > 4);
        assert!(sys.schema.navigation_depth(sys.root(), 64) >= 1);
    }
}
