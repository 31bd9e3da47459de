//! Structural validation of artifact systems.
//!
//! [`validate()`] checks the well-formedness requirements of Definitions 1–7
//! plus the *syntactic* decidability restrictions of Section 6 (the
//! remaining restrictions are enforced by the operational and symbolic
//! semantics rather than by the syntax):
//!
//! * the task hierarchy is a rooted tree with consistent parent/child links;
//! * variables are owned by exactly one task, with unique names per task;
//! * input variables, artifact-relation tuples and service conditions only
//!   mention variables of the appropriate task;
//! * relation atoms have the right arity and argument sorts, arithmetic
//!   atoms use only numeric variables, equalities are sort-consistent;
//! * input/output mappings are 1–1, sort-preserving and connect the right
//!   tasks;
//! * restriction 3: variables written by returning children are disjoint
//!   from the task's input variables;
//! * the artifact-relation tuple `s̄^T` consists of distinct ID variables
//!   (restrictions 5 and 7 are enforced by construction: one relation per
//!   task, fixed tuple);
//! * the global pre-condition `Π` only mentions root input variables.

use crate::condition::{Atom, Condition, Term};
use crate::ids::{TaskId, VarId};
use crate::schema::AttrKind;
use crate::system::ArtifactSystem;
use crate::task::VarSort;
use std::collections::BTreeSet;
use std::fmt;

/// An error found while validating an artifact system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// No root task was declared.
    NoRootTask,
    /// A foreign key referenced a relation name that does not exist.
    UnknownRelation(String),
    /// The hierarchy is not a tree (broken parent/child links or a cycle).
    BrokenHierarchy(String),
    /// A variable is referenced by a task that does not own it.
    ForeignVariable {
        /// The task in whose declaration the problem was found.
        task: String,
        /// Description of where the variable was used.
        context: String,
    },
    /// Duplicate variable name within a task.
    DuplicateVariableName(String, String),
    /// A condition mentions a variable outside its allowed scope.
    ConditionScope {
        /// The task whose service owns the condition.
        task: String,
        /// Which condition (service name / role).
        context: String,
        /// The offending variable name.
        variable: String,
    },
    /// A relation atom has the wrong number of arguments.
    RelationArity {
        /// Relation name.
        relation: String,
        /// Expected arity.
        expected: usize,
        /// Found arity.
        found: usize,
    },
    /// A term of the wrong sort was used (e.g. a numeric variable in an ID
    /// position).
    SortMismatch(String),
    /// An input or output mapping is not 1–1 or connects the wrong tasks.
    BadMapping(String),
    /// Restriction 3 violated: a returned-into parent variable is also an
    /// input variable of the parent task.
    ReturnOverlapsInput {
        /// Parent task name.
        task: String,
        /// Offending variable name.
        variable: String,
    },
    /// The artifact-relation tuple is not a sequence of distinct ID
    /// variables of the task.
    BadArtifactTuple(String),
    /// The global pre-condition mentions a variable that is not a root input
    /// variable.
    PreconditionScope(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NoRootTask => write!(f, "no root task declared"),
            ValidationError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            ValidationError::BrokenHierarchy(m) => write!(f, "broken task hierarchy: {m}"),
            ValidationError::ForeignVariable { task, context } => {
                write!(f, "task `{task}` uses a variable it does not own ({context})")
            }
            ValidationError::DuplicateVariableName(t, v) => {
                write!(f, "task `{t}` declares variable `{v}` more than once")
            }
            ValidationError::ConditionScope {
                task,
                context,
                variable,
            } => write!(
                f,
                "condition {context} of task `{task}` mentions out-of-scope variable `{variable}`"
            ),
            ValidationError::RelationArity {
                relation,
                expected,
                found,
            } => write!(
                f,
                "relation atom `{relation}` has {found} arguments, expected {expected}"
            ),
            ValidationError::SortMismatch(m) => write!(f, "sort mismatch: {m}"),
            ValidationError::BadMapping(m) => write!(f, "bad input/output mapping: {m}"),
            ValidationError::ReturnOverlapsInput { task, variable } => write!(
                f,
                "restriction 3 violated in task `{task}`: returned variable `{variable}` is also an input variable"
            ),
            ValidationError::BadArtifactTuple(m) => write!(f, "bad artifact relation tuple: {m}"),
            ValidationError::PreconditionScope(v) => write!(
                f,
                "global pre-condition mentions non-input variable `{v}`"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates an artifact system, returning the first problem found.
pub fn validate(system: &ArtifactSystem) -> Result<(), ValidationError> {
    let schema = &system.schema;

    check_hierarchy(system)?;

    // Variable ownership and name uniqueness.
    for (tid, task) in schema.tasks() {
        let mut names = BTreeSet::new();
        for &v in &task.variables {
            let var = schema.variable(v);
            if var.task != tid {
                return Err(ValidationError::ForeignVariable {
                    task: task.name.clone(),
                    context: format!("variable list contains `{}`", var.name),
                });
            }
            if !names.insert(var.name.clone()) {
                return Err(ValidationError::DuplicateVariableName(
                    task.name.clone(),
                    var.name.clone(),
                ));
            }
        }
        for &v in &task.input_vars {
            if !task.variables.contains(&v) {
                return Err(ValidationError::ForeignVariable {
                    task: task.name.clone(),
                    context: format!("input variable `{}`", schema.variable(v).name),
                });
            }
        }
    }

    // Artifact relation tuples: distinct ID variables of the task.
    for (_, task) in schema.tasks() {
        if let Some(ar) = &task.artifact_relation {
            let mut seen = BTreeSet::new();
            for &v in &ar.tuple {
                if !task.variables.contains(&v) {
                    return Err(ValidationError::BadArtifactTuple(format!(
                        "task `{}`: tuple variable not owned by the task",
                        task.name
                    )));
                }
                if schema.variable(v).sort != VarSort::Id {
                    return Err(ValidationError::BadArtifactTuple(format!(
                        "task `{}`: tuple variable `{}` is not an ID variable",
                        task.name,
                        schema.variable(v).name
                    )));
                }
                if !seen.insert(v) {
                    return Err(ValidationError::BadArtifactTuple(format!(
                        "task `{}`: tuple variable `{}` repeated",
                        task.name,
                        schema.variable(v).name
                    )));
                }
            }
        }
    }

    // Conditions: scope and sorts.
    for (tid, task) in schema.tasks() {
        let own_scope: BTreeSet<VarId> = task.variables.iter().copied().collect();
        for service in &task.internal_services {
            check_condition(
                system,
                &service.pre,
                &own_scope,
                tid,
                &format!("pre({})", service.name),
            )?;
            check_condition(
                system,
                &service.post,
                &own_scope,
                tid,
                &format!("post({})", service.name),
            )?;
        }
        // Opening pre-condition is over the parent's variables (true and thus
        // vacuous for the root).
        if let Some(parent) = task.parent {
            let parent_scope: BTreeSet<VarId> =
                schema.task(parent).variables.iter().copied().collect();
            check_condition(system, &task.opening.pre, &parent_scope, tid, "opening pre")?;
        }
        check_condition(system, &task.closing.pre, &own_scope, tid, "closing pre")?;
    }

    // Input/output mappings.
    for (_, task) in schema.tasks() {
        let Some(parent) = task.parent else { continue };
        let parent_task = schema.task(parent);
        let mut seen_child = BTreeSet::new();
        let mut seen_parent = BTreeSet::new();
        for (child_var, parent_var) in &task.opening.input_map {
            if !task.variables.contains(child_var) {
                return Err(ValidationError::BadMapping(format!(
                    "input map of `{}` maps a variable the child does not own",
                    task.name
                )));
            }
            if !parent_task.variables.contains(parent_var) {
                return Err(ValidationError::BadMapping(format!(
                    "input map of `{}` reads a variable the parent does not own",
                    task.name
                )));
            }
            if !seen_child.insert(*child_var) || !seen_parent.insert(*parent_var) {
                return Err(ValidationError::BadMapping(format!(
                    "input map of `{}` is not 1-1",
                    task.name
                )));
            }
            if schema.variable(*child_var).sort != schema.variable(*parent_var).sort {
                return Err(ValidationError::SortMismatch(format!(
                    "input map of `{}` maps `{}` to `{}` of a different sort",
                    task.name,
                    schema.variable(*parent_var).name,
                    schema.variable(*child_var).name
                )));
            }
            if !task.input_vars.contains(child_var) {
                return Err(ValidationError::BadMapping(format!(
                    "input map of `{}` targets `{}` which is not declared as an input variable",
                    task.name,
                    schema.variable(*child_var).name
                )));
            }
        }
        let mut seen_out_parent = BTreeSet::new();
        let mut seen_out_child = BTreeSet::new();
        for (parent_var, child_var) in &task.closing.output_map {
            if !parent_task.variables.contains(parent_var) {
                return Err(ValidationError::BadMapping(format!(
                    "output map of `{}` writes a variable the parent does not own",
                    task.name
                )));
            }
            if !task.variables.contains(child_var) {
                return Err(ValidationError::BadMapping(format!(
                    "output map of `{}` returns a variable the child does not own",
                    task.name
                )));
            }
            if !seen_out_parent.insert(*parent_var) || !seen_out_child.insert(*child_var) {
                return Err(ValidationError::BadMapping(format!(
                    "output map of `{}` is not 1-1",
                    task.name
                )));
            }
            if schema.variable(*child_var).sort != schema.variable(*parent_var).sort {
                return Err(ValidationError::SortMismatch(format!(
                    "output map of `{}` returns `{}` into `{}` of a different sort",
                    task.name,
                    schema.variable(*child_var).name,
                    schema.variable(*parent_var).name
                )));
            }
            // Restriction 3: returned-into parent variables are disjoint from
            // the parent's input variables.
            if parent_task.input_vars.contains(parent_var) {
                return Err(ValidationError::ReturnOverlapsInput {
                    task: parent_task.name.clone(),
                    variable: schema.variable(*parent_var).name.clone(),
                });
            }
        }
    }

    // Global pre-condition scope: root input variables only.
    let root_inputs: BTreeSet<VarId> = schema
        .task(schema.root)
        .input_vars
        .iter()
        .copied()
        .collect();
    for v in system.precondition.variables() {
        if !root_inputs.contains(&v) {
            return Err(ValidationError::PreconditionScope(
                schema.variable(v).name.clone(),
            ));
        }
    }
    // Sort-check the precondition too (scope = root inputs).
    check_condition(
        system,
        &system.precondition,
        &root_inputs,
        schema.root,
        "global precondition",
    )?;

    Ok(())
}

fn check_hierarchy(system: &ArtifactSystem) -> Result<(), ValidationError> {
    let schema = &system.schema;
    if schema.task(schema.root).parent.is_some() {
        return Err(ValidationError::BrokenHierarchy(
            "root task has a parent".into(),
        ));
    }
    // Parent/child link consistency.
    for (tid, task) in schema.tasks() {
        for &c in &task.children {
            if schema.task(c).parent != Some(tid) {
                return Err(ValidationError::BrokenHierarchy(format!(
                    "task `{}` lists `{}` as a child but is not its parent",
                    task.name,
                    schema.task(c).name
                )));
            }
        }
        if let Some(p) = task.parent {
            if !schema.task(p).children.contains(&tid) {
                return Err(ValidationError::BrokenHierarchy(format!(
                    "task `{}` has parent `{}` which does not list it as a child",
                    task.name,
                    schema.task(p).name
                )));
            }
        } else if tid != schema.root {
            return Err(ValidationError::BrokenHierarchy(format!(
                "task `{}` has no parent but is not the root",
                task.name
            )));
        }
    }
    // Reachability from the root (tree-ness / no cycles).
    let mut reached = BTreeSet::new();
    let mut stack = vec![schema.root];
    while let Some(t) = stack.pop() {
        if !reached.insert(t) {
            return Err(ValidationError::BrokenHierarchy(
                "cycle in the task hierarchy".into(),
            ));
        }
        stack.extend(schema.task(t).children.iter().copied());
    }
    if reached.len() != schema.task_count() {
        return Err(ValidationError::BrokenHierarchy(
            "some tasks are unreachable from the root".into(),
        ));
    }
    Ok(())
}

fn check_condition(
    system: &ArtifactSystem,
    condition: &Condition,
    scope: &BTreeSet<VarId>,
    task: TaskId,
    context: &str,
) -> Result<(), ValidationError> {
    let schema = &system.schema;
    let task_name = schema.task(task).name.clone();
    for v in condition.variables() {
        if !scope.contains(&v) {
            return Err(ValidationError::ConditionScope {
                task: task_name.clone(),
                context: context.to_string(),
                variable: schema.variable(v).name.clone(),
            });
        }
    }
    for atom in condition.atoms() {
        match atom {
            Atom::Eq(a, b) => {
                let sort = |t: &Term| match t {
                    Term::Var(v) => Some(schema.variable(*v).sort),
                    Term::Null => Some(VarSort::Id),
                    Term::Const(_) => Some(VarSort::Numeric),
                };
                if sort(&a) != sort(&b) {
                    return Err(ValidationError::SortMismatch(format!(
                        "equality in {context} of `{task_name}` compares terms of different sorts"
                    )));
                }
            }
            Atom::Relation { relation, args } => {
                let rel = schema.database.relation(relation);
                if args.len() != rel.arity() {
                    return Err(ValidationError::RelationArity {
                        relation: rel.name.clone(),
                        expected: rel.arity(),
                        found: args.len(),
                    });
                }
                for (attr, term) in rel.attributes.iter().zip(args.iter()) {
                    let want = match attr.kind {
                        AttrKind::Key | AttrKind::ForeignKey(_) => VarSort::Id,
                        AttrKind::Numeric => VarSort::Numeric,
                    };
                    let got = match term {
                        Term::Var(v) => schema.variable(*v).sort,
                        Term::Null => VarSort::Id,
                        Term::Const(_) => VarSort::Numeric,
                    };
                    if want != got {
                        return Err(ValidationError::SortMismatch(format!(
                            "argument `{}` of relation atom `{}` in {context} of `{task_name}` has the wrong sort",
                            attr.name, rel.name
                        )));
                    }
                }
            }
            Atom::Arith(c) => {
                for v in c.variables() {
                    if schema.variable(*v).sort != VarSort::Numeric {
                        return Err(ValidationError::SortMismatch(format!(
                            "arithmetic atom in {context} of `{task_name}` uses non-numeric variable `{}`",
                            schema.variable(*v).name
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;
    use crate::task::SetUpdate;
    use has_arith::{LinExpr, LinearConstraint};

    #[test]
    fn accepts_a_well_formed_system() {
        let mut b = SystemBuilder::new("ok");
        b.relation("R", &["v"], &[]);
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        let n = b.num_var(root, "n");
        b.input_vars(root, &[x]);
        b.internal_service(
            root,
            "s",
            Condition::not_null(x),
            Condition::arith(LinearConstraint::ge(LinExpr::var(n), LinExpr::zero())),
            SetUpdate::None,
        );
        assert!(b.build().is_ok());
    }

    #[test]
    fn rejects_condition_using_other_tasks_variable() {
        let mut b = SystemBuilder::new("bad");
        let root = b.root_task("Root");
        let _x = b.id_var(root, "x");
        let child = b.child_task(root, "Child");
        let cx = b.id_var(child, "cx");
        // Root internal service mentioning the child's variable.
        b.internal_service(
            root,
            "s",
            Condition::is_null(cx),
            Condition::True,
            SetUpdate::None,
        );
        assert!(matches!(
            b.build(),
            Err(ValidationError::ConditionScope { .. })
        ));
    }

    #[test]
    fn rejects_return_into_input_variable() {
        let mut b = SystemBuilder::new("bad");
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        b.input_vars(root, &[x]);
        let child = b.child_task(root, "Child");
        let cy = b.id_var(child, "cy");
        b.map_output(child, x, cy);
        assert!(matches!(
            b.build(),
            Err(ValidationError::ReturnOverlapsInput { .. })
        ));
    }

    #[test]
    fn rejects_sort_mismatch_in_mapping() {
        let mut b = SystemBuilder::new("bad");
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        let child = b.child_task(root, "Child");
        let cn = b.num_var(child, "cn");
        b.map_input(child, cn, x);
        assert!(matches!(b.build(), Err(ValidationError::SortMismatch(_))));
    }

    #[test]
    fn rejects_numeric_variable_in_artifact_tuple() {
        let mut b = SystemBuilder::new("bad");
        let root = b.root_task("Root");
        let n = b.num_var(root, "n");
        b.artifact_relation(root, "S", &[n]);
        assert!(matches!(
            b.build(),
            Err(ValidationError::BadArtifactTuple(_))
        ));
    }

    #[test]
    fn rejects_relation_atom_with_wrong_arity() {
        let mut b = SystemBuilder::new("bad");
        b.relation("R", &["v"], &[]);
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        let rel = b.relation_id("R").unwrap();
        b.internal_service(
            root,
            "s",
            Condition::relation(rel, vec![Term::Var(x)]),
            Condition::True,
            SetUpdate::None,
        );
        assert!(matches!(
            b.build(),
            Err(ValidationError::RelationArity { .. })
        ));
    }

    #[test]
    fn rejects_precondition_over_non_input_variables() {
        let mut b = SystemBuilder::new("bad");
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        let y = b.id_var(root, "y");
        b.input_vars(root, &[x]);
        b.precondition(Condition::not_null(y));
        assert!(matches!(
            b.build(),
            Err(ValidationError::PreconditionScope(_))
        ));
    }

    #[test]
    fn rejects_equality_between_id_and_numeric() {
        let mut b = SystemBuilder::new("bad");
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        let n = b.num_var(root, "n");
        b.internal_service(
            root,
            "s",
            Condition::var_eq(x, n),
            Condition::True,
            SetUpdate::None,
        );
        assert!(matches!(b.build(), Err(ValidationError::SortMismatch(_))));
    }

    #[test]
    fn error_messages_are_human_readable() {
        let e = ValidationError::ReturnOverlapsInput {
            task: "Root".into(),
            variable: "x".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("restriction 3"));
        assert!(msg.contains("Root"));
    }
}
