//! Read/write dataflow over a validated artifact system.
//!
//! The pass computes, per variable, whether its value is *observable* —
//! whether some step of a run can read it (guards, mapping sources, counter
//! keys, property conditions; the exact list is on [`Dataflow::observable`])
//! — and where it is *written* (post-conditions, mapping targets,
//! retrievals), then reports:
//!
//! * `HAS101` — a variable that is not observable: its value influences
//!   neither the control flow nor any observation (for artifact-relation
//!   tuple variables this is the "write-only column" case: the task has a
//!   relation but no service inserts into or retrieves from it);
//! * `HAS104` — an internal service whose effects are never observed: no
//!   set update, not named by the property, and every variable its
//!   post-condition constrains is not observable.
//!
//! The verifier uses the same set: each task's non-observable variables are
//! forgotten from its symbolic states after every internal step and every
//! child return (`has_symbolic::SymState::forget`, DESIGN.md §5.14), so
//! HAS101 lists exactly the variables the verifier does not track.
//!
//! Reads and writes are collected from the model only (plus the property's
//! conditions and service propositions); the pass is purely syntactic and
//! complements the guard-satisfiability pass of [`crate::guards`].

use crate::diagnostic::Diagnostic;
use has_ltl::hltl::HltlProp;
use has_ltl::HltlFormula;
use has_model::{ArtifactSystem, ServiceRef, TaskId, VarId, VarSort};
use std::collections::BTreeSet;

/// The property's footprint on the model: variables its conditions mention
/// (reads) and services its propositions name (observations).
#[derive(Clone, Debug, Default)]
pub struct PropertyFootprint {
    /// Variables read by some condition proposition (of any sub-formula).
    pub read_vars: BTreeSet<VarId>,
    /// Services named by some service proposition.
    pub observed_services: BTreeSet<ServiceRef>,
}

/// Collects the property footprint, descending through child sub-formulas.
pub fn property_footprint(property: &HltlFormula) -> PropertyFootprint {
    let mut out = PropertyFootprint::default();
    fn walk(f: &HltlFormula, out: &mut PropertyFootprint) {
        for p in &f.props {
            match p {
                HltlProp::Condition(c) => out.read_vars.extend(c.variables()),
                HltlProp::Service(s) => {
                    out.observed_services.insert(*s);
                }
                HltlProp::Child(_, sub) => walk(sub, out),
            }
        }
    }
    walk(property, &mut out);
    out
}

/// The observable/written sets of one dataflow analysis.
#[derive(Clone, Debug, Default)]
pub struct Dataflow {
    /// Variables whose value some step of a run can read:
    ///
    /// * the global pre-condition, an internal service's pre-condition, an
    ///   opening or closing pre-condition, or a property condition of any
    ///   sub-formula mentions it;
    /// * an internal service's post-condition mentions it and it is an
    ///   input variable of the task (input variables keep their value, so
    ///   the post-condition reads it);
    /// * it is the source of a child's input map, or a return variable of
    ///   its task (the source of the task's own output map);
    /// * it is an ID-sorted target of a child's output map (the return
    ///   overwrites it only while it is `null`, so the return reads it);
    /// * it is an artifact-relation tuple variable of a task some service of
    ///   which inserts or retrieves (the counter key reads it);
    /// * it is an input variable (input variables are never forgotten).
    pub observable: BTreeSet<VarId>,
    /// Variables some post-condition, mapping target or retrieval assigns.
    pub written: BTreeSet<VarId>,
}

/// Computes the system-wide observable/written sets (see
/// [`Dataflow::observable`] for what counts as a read).
pub fn dataflow(system: &ArtifactSystem, property: Option<&HltlFormula>) -> Dataflow {
    let schema = &system.schema;
    let mut flow = Dataflow::default();
    // The global pre-condition reads root input variables.
    flow.observable.extend(system.precondition.variables());
    if let Some(p) = property {
        flow.observable.extend(property_footprint(p).read_vars);
    }
    for (_, task) in schema.tasks() {
        let input: BTreeSet<VarId> = task.input_vars.iter().copied().collect();
        flow.observable.extend(input.iter().copied());
        for service in &task.internal_services {
            flow.observable.extend(service.pre.variables());
            for v in service.post.variables() {
                // Input variables keep their value across a service step, so
                // a post-condition mentioning one reads it; any other
                // mention constrains the next valuation — a write.
                if input.contains(&v) {
                    flow.observable.insert(v);
                } else {
                    flow.written.insert(v);
                }
            }
        }
        if let Some(ar) = &task.artifact_relation {
            let delta = task.internal_services.iter().map(|s| s.delta);
            let (inserts, retrieves) = delta.fold((false, false), |(i, r), d| {
                (i || d.inserts(), r || d.retrieves())
            });
            // An insertion's counter key reads the pre-state's tuple; a
            // retrieval's reads the post-state's.
            if inserts || retrieves {
                flow.observable.extend(ar.tuple.iter().copied());
            }
            if retrieves {
                flow.written.extend(ar.tuple.iter().copied());
            }
        }
        flow.observable.extend(task.closing.pre.variables());
        // Opening a child: the pre-condition and the input-map sources read
        // *this* task's variables; the input-map targets write the child's.
        // Closing it reads the child's return variables and writes this
        // task's output-map targets, reading an ID target's nullness.
        for &child in &task.children {
            let opening = &schema.task(child).opening;
            flow.observable.extend(opening.pre.variables());
            for &(child_var, parent_var) in &opening.input_map {
                flow.observable.insert(parent_var);
                flow.written.insert(child_var);
            }
            for &(parent_var, child_var) in &schema.task(child).closing.output_map {
                flow.observable.insert(child_var);
                flow.written.insert(parent_var);
                if schema.variable(parent_var).sort == VarSort::Id {
                    flow.observable.insert(parent_var);
                }
            }
        }
        // Opening this task writes its input variables.
        flow.written.extend(task.input_vars.iter().copied());
    }
    flow
}

/// The variables of `task` that [`dataflow`] finds not observable, in the
/// task's declaration order: what the verifier forgets from the task's
/// symbolic states, and what `HAS101` reports for the task.
pub fn unobservable_vars(flow: &Dataflow, system: &ArtifactSystem, task: TaskId) -> Vec<VarId> {
    let task = system.schema.task(task);
    let observable = |v: &VarId| flow.observable.contains(v);
    task.variables
        .iter()
        .copied()
        .filter(|v| !observable(v))
        .collect()
}

/// Runs the dataflow pass and renders its diagnostics.
pub fn dataflow_diagnostics(
    system: &ArtifactSystem,
    property: Option<&HltlFormula>,
) -> Vec<Diagnostic> {
    let schema = &system.schema;
    let flow = dataflow(system, property);
    let observed: BTreeSet<ServiceRef> = property
        .map(|p| property_footprint(p).observed_services)
        .unwrap_or_default();
    let mut out = Vec::new();
    // HAS101: variables that are not observable.
    for (tid, task) in schema.tasks() {
        for v in unobservable_vars(&flow, system, tid) {
            let var = schema.variable(v);
            let in_tuple = task
                .artifact_relation
                .as_ref()
                .is_some_and(|ar| ar.tuple.contains(&v));
            let message = if in_tuple {
                format!(
                    "artifact-relation column `{}` is write-only: no service inserts \
                     or retrieves a tuple, so its value is never consulted",
                    var.name
                )
            } else if flow.written.contains(&v) {
                format!("variable `{}` is written but never read", var.name)
            } else {
                format!("variable `{}` is never used", var.name)
            };
            out.push(Diagnostic::warning(101, message).with_task(task.name.clone()));
        }
    }
    // HAS104: internal services whose effects are unobservable.
    for (tid, task) in schema.tasks() {
        for (idx, service) in task.internal_services.iter().enumerate() {
            if service.delta != has_model::SetUpdate::None {
                continue;
            }
            if observed.contains(&ServiceRef::Internal(tid, idx)) {
                continue;
            }
            let constrained: Vec<VarId> = service
                .post
                .variables()
                .into_iter()
                .filter(|v| !task.input_vars.contains(v))
                .collect();
            if constrained.is_empty() || constrained.iter().any(|v| flow.observable.contains(v)) {
                continue;
            }
            out.push(
                Diagnostic::warning(
                    104,
                    "service effects are never observed: every variable its \
                     post-condition constrains is not observable",
                )
                .with_task(task.name.clone())
                .with_service(service.name.clone()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_arith::Rational;
    use has_model::{Condition, SetUpdate, SystemBuilder};

    #[test]
    fn unread_variable_is_flagged_and_read_one_is_not() {
        let mut b = SystemBuilder::new("df");
        let root = b.root_task("Main");
        let used = b.num_var(root, "used");
        let _unused = b.num_var(root, "unused");
        b.internal_service(
            root,
            "bump",
            Condition::eq_const(used, Rational::ZERO),
            Condition::eq_const(used, Rational::from_int(1)),
            SetUpdate::None,
        );
        let system = b.build().unwrap();
        let diags = dataflow_diagnostics(&system, None);
        assert!(
            diags
                .iter()
                .any(|d| d.code == 101 && d.message.contains("`unused`")),
            "{diags:?}"
        );
        assert!(!diags.iter().any(|d| d.message.contains("`used`")));
    }

    #[test]
    fn unobserved_service_is_flagged_until_property_reads_it() {
        let mut b = SystemBuilder::new("df2");
        let root = b.root_task("Main");
        let ghost = b.num_var(root, "ghost");
        b.internal_service(
            root,
            "shadow",
            Condition::True,
            Condition::eq_const(ghost, Rational::from_int(1)),
            SetUpdate::None,
        );
        let system = b.build().unwrap();
        let diags = dataflow_diagnostics(&system, None);
        assert!(diags.iter().any(|d| d.code == 104), "{diags:?}");
        // A property reading `ghost` observes the effect.
        let mut hb = has_ltl::hltl::HltlBuilder::new(system.root());
        let set = hb.condition(Condition::eq_const(ghost, Rational::from_int(1)));
        let property = hb.finish(set.eventually());
        let diags = dataflow_diagnostics(&system, Some(&property));
        assert!(!diags.iter().any(|d| d.code == 104), "{diags:?}");
        // `ghost` is now read (by the property), so HAS101 clears too.
        assert!(!diags.iter().any(|d| d.code == 101), "{diags:?}");
    }

    /// What counts as observable: a tuple variable of a task that only
    /// retrieves (the retrieval's counter key reads it), a return variable,
    /// an input-map source, a variable only the property reads, and an ID
    /// output-map target (the return reads its nullness). A numeric target
    /// nothing reads is not, and HAS101 reports exactly the complement.
    #[test]
    fn observable_reads_cover_keys_maps_and_the_property() {
        let mut b = SystemBuilder::new("obs");
        let root = b.root_task("Main");
        let passed = b.id_var(root, "passed");
        let id_target = b.id_var(root, "id_target");
        let num_target = b.num_var(root, "num_target");
        let watched = b.num_var(root, "watched");
        let column = b.id_var(root, "column");
        b.artifact_relation(root, "BAG", &[column]);
        b.internal_service(
            root,
            "take",
            Condition::True,
            Condition::True,
            SetUpdate::Retrieve,
        );
        let child = b.child_task(root, "Child");
        let input = b.id_var(child, "input");
        let ret_id = b.id_var(child, "ret_id");
        let ret_num = b.num_var(child, "ret_num");
        let tally = b.num_var(child, "tally");
        b.map_input(child, input, passed);
        b.map_output(child, id_target, ret_id);
        b.map_output(child, num_target, ret_num);
        b.internal_service(
            child,
            "work",
            Condition::True,
            Condition::eq_const(tally, Rational::from_int(2)),
            SetUpdate::None,
        );
        let system = b.build().unwrap();
        let mut hb = has_ltl::hltl::HltlBuilder::new(system.root());
        let seen = hb.condition(Condition::eq_const(watched, Rational::from_int(1)));
        let property = hb.finish(seen.eventually());

        let flow = dataflow(&system, Some(&property));
        for v in [column, ret_id, ret_num, passed, watched, id_target, input] {
            assert!(flow.observable.contains(&v), "{v:?} is observable");
        }
        assert_eq!(unobservable_vars(&flow, &system, root), vec![num_target]);
        assert_eq!(unobservable_vars(&flow, &system, child), vec![tally]);
        // Without the property, `watched` is no longer read.
        let flow = dataflow(&system, None);
        assert_eq!(
            unobservable_vars(&flow, &system, root),
            vec![num_target, watched]
        );
        let diags = dataflow_diagnostics(&system, Some(&property));
        let flagged: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == 101)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(flagged.len(), 2, "{flagged:?}");
        assert!(flagged.iter().any(|m| m.contains("`num_target`")));
        assert!(flagged.iter().any(|m| m.contains("`tally`")));
    }
}
