//! Ergonomic construction of artifact systems.
//!
//! [`SystemBuilder`] accumulates relations, tasks, variables and services in
//! any convenient order, resolves foreign-key references by relation name
//! (forward references allowed), and finally [`SystemBuilder::build`]s an
//! [`ArtifactSystem`], running the full structural validation of
//! [`crate::validate()`].
//!
//! ```
//! use has_model::{Condition, SystemBuilder, SetUpdate};
//!
//! let mut b = SystemBuilder::new("demo");
//! b.relation("ITEMS", &["price"], &[]);
//! let root = b.root_task("Main");
//! let item = b.id_var(root, "item");
//! b.input_vars(root, &[item]);
//! b.internal_service(root, "pick", Condition::True, Condition::not_null(item), SetUpdate::None);
//! let system = b.build().expect("well-formed system");
//! assert_eq!(system.task(system.root()).name, "Main");
//! ```

use crate::condition::Condition;
use crate::ids::{RelationId, TaskId, VarId};
use crate::schema::{AttrKind, Attribute, DatabaseSchema, Relation};
use crate::system::{ArtifactSchema, ArtifactSystem};
use crate::task::{
    ArtifactRelation, ClosingService, InternalService, OpeningService, SetUpdate, TaskSchema,
    VarSort, Variable,
};
use crate::validate::{validate, ValidationError};

/// Builder for [`ArtifactSystem`] values.
#[derive(Debug)]
pub struct SystemBuilder {
    #[allow(dead_code)]
    name: String,
    relations: Vec<Relation>,
    pending_fks: Vec<(usize, String, String)>, // (relation idx, attr name, target relation name)
    variables: Vec<Variable>,
    tasks: Vec<TaskSchema>,
    root: Option<TaskId>,
    precondition: Condition,
}

impl SystemBuilder {
    /// Creates a new builder. The name is informational only.
    pub fn new(name: &str) -> Self {
        SystemBuilder {
            name: name.to_string(),
            relations: Vec::new(),
            pending_fks: Vec::new(),
            variables: Vec::new(),
            tasks: Vec::new(),
            root: None,
            precondition: Condition::True,
        }
    }

    /// Declares a database relation with the given numeric attributes and
    /// foreign keys. Foreign keys are given as `(attribute_name,
    /// target_relation_name)`; the target may be declared later.
    pub fn relation(
        &mut self,
        name: &str,
        numeric_attrs: &[&str],
        foreign_keys: &[(&str, &str)],
    ) -> RelationId {
        let idx = self.relations.len();
        let mut attributes = vec![Attribute {
            name: "id".to_string(),
            kind: AttrKind::Key,
        }];
        for a in numeric_attrs {
            attributes.push(Attribute {
                name: (*a).to_string(),
                kind: AttrKind::Numeric,
            });
        }
        for (attr, target) in foreign_keys {
            attributes.push(Attribute {
                name: (*attr).to_string(),
                // Placeholder; patched in `build` once all relations exist.
                kind: AttrKind::ForeignKey(RelationId(usize::MAX)),
            });
            self.pending_fks
                .push((idx, (*attr).to_string(), (*target).to_string()));
        }
        self.relations.push(Relation {
            name: name.to_string(),
            attributes,
        });
        RelationId(idx)
    }

    /// Looks up a previously declared relation by name.
    pub fn relation_id(&self, name: &str) -> Option<RelationId> {
        self.relations
            .iter()
            .position(|r| r.name == name)
            .map(RelationId)
    }

    /// Declares the root task. May only be called once.
    pub fn root_task(&mut self, name: &str) -> TaskId {
        assert!(self.root.is_none(), "root task already declared");
        let id = self.new_task(name, None);
        self.root = Some(id);
        id
    }

    /// Declares a child task of `parent`.
    pub fn child_task(&mut self, parent: TaskId, name: &str) -> TaskId {
        let id = self.new_task(name, Some(parent));
        self.tasks[parent.0].children.push(id);
        id
    }

    fn new_task(&mut self, name: &str, parent: Option<TaskId>) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(TaskSchema {
            name: name.to_string(),
            variables: Vec::new(),
            input_vars: Vec::new(),
            artifact_relation: None,
            internal_services: Vec::new(),
            opening: OpeningService {
                pre: Condition::True,
                input_map: Vec::new(),
            },
            closing: ClosingService {
                // The root's closing service never fires (pre-condition
                // false); children default to closable at any time.
                pre: if parent.is_none() {
                    Condition::False
                } else {
                    Condition::True
                },
                output_map: Vec::new(),
            },
            parent,
            children: Vec::new(),
        });
        id
    }

    /// Declares an ID variable owned by `task`.
    pub fn id_var(&mut self, task: TaskId, name: &str) -> VarId {
        self.new_var(task, name, VarSort::Id)
    }

    /// Declares a numeric variable owned by `task`.
    pub fn num_var(&mut self, task: TaskId, name: &str) -> VarId {
        self.new_var(task, name, VarSort::Numeric)
    }

    fn new_var(&mut self, task: TaskId, name: &str, sort: VarSort) -> VarId {
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: name.to_string(),
            sort,
            task,
        });
        self.tasks[task.0].variables.push(id);
        id
    }

    /// Declares the input variables of a task (appending to any already
    /// declared).
    pub fn input_vars(&mut self, task: TaskId, vars: &[VarId]) {
        self.tasks[task.0].input_vars.extend_from_slice(vars);
    }

    /// Declares the artifact relation of a task with its fixed tuple of ID
    /// variables `s̄^T`.
    pub fn artifact_relation(&mut self, task: TaskId, name: &str, tuple: &[VarId]) {
        self.tasks[task.0].artifact_relation = Some(ArtifactRelation {
            name: name.to_string(),
            tuple: tuple.to_vec(),
        });
    }

    /// Adds an internal service to a task.
    pub fn internal_service(
        &mut self,
        task: TaskId,
        name: &str,
        pre: Condition,
        post: Condition,
        delta: SetUpdate,
    ) {
        self.tasks[task.0].internal_services.push(InternalService {
            name: name.to_string(),
            pre,
            post,
            delta,
        });
    }

    /// Sets the opening pre-condition of a (non-root) task; the condition is
    /// over the *parent's* variables.
    pub fn open_when(&mut self, task: TaskId, pre: Condition) {
        self.tasks[task.0].opening.pre = pre;
    }

    /// Adds an input mapping entry: on opening, `child_var := parent_var`.
    pub fn map_input(&mut self, task: TaskId, child_var: VarId, parent_var: VarId) {
        self.tasks[task.0]
            .opening
            .input_map
            .push((child_var, parent_var));
        if !self.tasks[task.0].input_vars.contains(&child_var) {
            self.tasks[task.0].input_vars.push(child_var);
        }
    }

    /// Sets the closing pre-condition of a task; the condition is over the
    /// task's own variables.
    pub fn close_when(&mut self, task: TaskId, pre: Condition) {
        self.tasks[task.0].closing.pre = pre;
    }

    /// Adds an output mapping entry: on closing, `parent_var := child_var`
    /// (subject to the null-overwrite rule for ID variables).
    pub fn map_output(&mut self, task: TaskId, parent_var: VarId, child_var: VarId) {
        self.tasks[task.0]
            .closing
            .output_map
            .push((parent_var, child_var));
    }

    /// Sets the global pre-condition `Π` over the root task's input
    /// variables.
    pub fn precondition(&mut self, pre: Condition) {
        self.precondition = pre;
    }

    /// Finalizes the system, resolving foreign keys and validating the
    /// result.
    pub fn build(mut self) -> Result<ArtifactSystem, ValidationError> {
        // Resolve pending foreign keys by name.
        for (rel_idx, attr_name, target_name) in std::mem::take(&mut self.pending_fks) {
            let target = self
                .relations
                .iter()
                .position(|r| r.name == target_name)
                .ok_or_else(|| ValidationError::UnknownRelation(target_name.clone()))?;
            let rel = &mut self.relations[rel_idx];
            let attr = rel
                .attributes
                .iter_mut()
                .find(|a| a.name == attr_name)
                .expect("attribute was just created");
            attr.kind = AttrKind::ForeignKey(RelationId(target));
        }
        let root = self.root.ok_or(ValidationError::NoRootTask)?;
        let schema = ArtifactSchema {
            database: DatabaseSchema {
                relations: self.relations,
            },
            variables: self.variables,
            tasks: self.tasks,
            root,
        };
        let system = ArtifactSystem {
            schema,
            precondition: self.precondition,
        };
        validate(&system)?;
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_system_builds() {
        let mut b = SystemBuilder::new("t");
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        b.input_vars(root, &[x]);
        let sys = b.build().unwrap();
        assert_eq!(sys.task(sys.root()).name, "Root");
        assert_eq!(sys.schema.task_count(), 1);
    }

    #[test]
    fn forward_foreign_key_references_resolve() {
        let mut b = SystemBuilder::new("t");
        b.relation("A", &[], &[("to_b", "B")]);
        b.relation("B", &["v"], &[]);
        let root = b.root_task("Root");
        let _ = b.id_var(root, "x");
        let sys = b.build().unwrap();
        let a = sys.schema.database.relation_by_name("A").unwrap();
        let b_id = sys.schema.database.relation_by_name("B").unwrap();
        let fk: Vec<_> = sys.schema.database.relation(a).foreign_keys().collect();
        assert_eq!(fk, vec![(1, b_id)]);
    }

    #[test]
    fn unknown_foreign_key_target_is_an_error() {
        let mut b = SystemBuilder::new("t");
        b.relation("A", &[], &[("to_b", "MISSING")]);
        let root = b.root_task("Root");
        let _ = b.id_var(root, "x");
        assert!(matches!(
            b.build(),
            Err(ValidationError::UnknownRelation(_))
        ));
    }

    #[test]
    fn missing_root_is_an_error() {
        let b = SystemBuilder::new("t");
        assert!(matches!(b.build(), Err(ValidationError::NoRootTask)));
    }

    #[test]
    fn map_input_registers_input_variable() {
        let mut b = SystemBuilder::new("t");
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        let child = b.child_task(root, "Child");
        let cx = b.id_var(child, "cx");
        b.map_input(child, cx, x);
        let sys = b.build().unwrap();
        let child_id = sys.schema.task_by_name("Child").unwrap();
        assert!(sys.task(child_id).is_input_var(cx));
    }
}
