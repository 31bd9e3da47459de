//! Property preparation: flattening, per-task contexts, Büchi automata.

use has_ltl::hltl::{FlattenedProperty, TaskProp};
use has_ltl::{Buchi, HltlFormula, Ltl};
use has_model::{
    ArtifactSystem, Atom, AttrKind, Condition, RelationId, TaskId, Term, VarId, VarSort,
};
use has_symbolic::TaskContext;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything derived from the property before state exploration starts:
/// the flattened per-task formula lists `Φ_T`, the per-task symbolic
/// contexts (whose expression universes include the property's conditions),
/// and a cache of Büchi automata per `(task, β)`.
///
/// The contexts and the cached automata are the schema-wide tables every
/// `(T, β)` exploration reads; both are reference-counted so every pair
/// reads the same instances instead of deep-cloning them per assignment.
pub struct PropertyContext {
    /// The flattened property.
    pub flat: FlattenedProperty,
    /// Symbolic context per task (for *all* tasks of the system, not only
    /// those mentioned by the property), behind a shared handle: every
    /// pair reads the same map.
    pub contexts: Arc<BTreeMap<TaskId, TaskContext>>,
    buchi_cache: BTreeMap<(TaskId, Vec<bool>), Arc<Buchi<TaskProp>>>,
}

impl PropertyContext {
    /// Prepares the property against a system.
    ///
    /// `nav_depth` is forwarded to the per-task symbolic contexts.
    pub fn new(system: &ArtifactSystem, property: &HltlFormula, nav_depth: usize) -> Self {
        let flat = property.flatten();
        let extra_conditions: BTreeMap<TaskId, Vec<Condition>> = system
            .schema
            .tasks()
            .map(|(task, _)| {
                let extra: Vec<Condition> = flat
                    .phi(task)
                    .iter()
                    .flat_map(|f| f.propositions())
                    .filter_map(|p| match p {
                        TaskProp::Condition(c) => Some(c.clone()),
                        _ => None,
                    })
                    .collect();
                (task, extra)
            })
            .collect();
        let bindings = Self::global_bindings(system, &extra_conditions);
        // What no step reads is forgotten from the symbolic states
        // (DESIGN.md §5.14).
        let flow = has_analysis::dataflow(system, Some(property));
        let mut contexts = BTreeMap::new();
        for (task, _) in system.schema.tasks() {
            let ctx = TaskContext::build_with_bindings(
                system,
                task,
                &extra_conditions[&task],
                nav_depth,
                &bindings,
            );
            let unobservable = has_analysis::unobservable_vars(&flow, system, task);
            contexts.insert(task, ctx.with_unobservable(unobservable));
        }
        PropertyContext {
            flat,
            contexts: Arc::new(contexts),
            buchi_cache: BTreeMap::new(),
        }
    }

    /// Computes candidate relation bindings for every ID variable of the
    /// system, propagated along input/output mappings to a fixpoint: if a
    /// parent variable is passed to (or written by) a child variable that
    /// some condition navigates, the parent variable must be navigable too,
    /// otherwise facts established inside the child would be lost when they
    /// flow through the parent to a sibling task (see DESIGN.md §5.4).
    fn global_bindings(
        system: &ArtifactSystem,
        extra_conditions: &BTreeMap<TaskId, Vec<Condition>>,
    ) -> BTreeMap<VarId, Vec<RelationId>> {
        let schema = &system.schema;
        let mut bindings: BTreeMap<VarId, Vec<RelationId>> = BTreeMap::new();
        let add = |bindings: &mut BTreeMap<VarId, Vec<RelationId>>, v: VarId, r: RelationId| {
            let entry = bindings.entry(v).or_default();
            if !entry.contains(&r) {
                entry.push(r);
            }
        };
        // Seed from every condition in the system and the property.
        let mut all_conditions: Vec<&Condition> = vec![&system.precondition];
        for (task, t) in schema.tasks() {
            for s in &t.internal_services {
                all_conditions.push(&s.pre);
                all_conditions.push(&s.post);
            }
            all_conditions.push(&t.opening.pre);
            all_conditions.push(&t.closing.pre);
            all_conditions.extend(extra_conditions[&task].iter());
        }
        for cond in all_conditions {
            for atom in cond.atoms() {
                if let Atom::Relation { relation, args } = atom {
                    if let Some(Term::Var(x)) = args.first() {
                        if schema.variable(*x).sort == VarSort::Id {
                            add(&mut bindings, *x, relation);
                        }
                    }
                    let attrs = &schema.database.relation(relation).attributes;
                    for (i, term) in args.iter().enumerate().skip(1) {
                        if let (Some(AttrKind::ForeignKey(target)), Term::Var(z)) =
                            (attrs.get(i).map(|a| a.kind), term)
                        {
                            if schema.variable(*z).sort == VarSort::Id {
                                add(&mut bindings, *z, target);
                            }
                        }
                    }
                }
            }
        }
        // Propagate along input/output mappings until fixpoint.
        loop {
            let mut changed = false;
            for (_, t) in schema.tasks() {
                let links = t
                    .opening
                    .input_map
                    .iter()
                    .map(|(c, p)| (*c, *p))
                    .chain(t.closing.output_map.iter().map(|(p, c)| (*c, *p)));
                for (a, b) in links {
                    if schema.variable(a).sort != VarSort::Id {
                        continue;
                    }
                    for (x, y) in [(a, b), (b, a)] {
                        let from: Vec<RelationId> = bindings.get(&x).cloned().unwrap_or_default();
                        for r in from {
                            let entry = bindings.entry(y).or_default();
                            if !entry.contains(&r) {
                                entry.push(r);
                                changed = true;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        bindings
    }

    /// The formulas `Φ_T` attached to a task.
    pub fn phi(&self, task: TaskId) -> &[Ltl<TaskProp>] {
        self.flat.phi(task)
    }

    /// All truth assignments over `Φ_T` (a single empty assignment when the
    /// task has no attached formulas).
    pub fn assignments(&self, task: TaskId) -> Vec<Vec<bool>> {
        let n = self.phi(task).len();
        let mut out = Vec::with_capacity(1 << n);
        for mask in 0..(1usize << n) {
            out.push((0..n).map(|i| mask & (1 << i) != 0).collect());
        }
        out
    }

    /// The canonical `(task, β)` pair enumeration over a bottom-up task
    /// order: tasks in the given order, assignments in β-enumeration order.
    ///
    /// The verifier's bottom-up pair loop runs, reduces and commits the
    /// pairs front to back in this order — which is what makes the
    /// determinism contract of DESIGN.md §5.6 a statement about one fixed
    /// list. Witness reconstruction
    /// (§5.7) leans on the same order twice over: retained run details are
    /// reduced with their entries, and the descent reads the committed
    /// summary layout this order fixes.
    pub fn pairs(&self, order: &[TaskId]) -> Vec<(TaskId, Vec<bool>)> {
        order
            .iter()
            .flat_map(|&t| self.assignments(t).into_iter().map(move |b| (t, b)))
            .collect()
    }

    /// A shared handle to the cached `B(T, β)`.
    ///
    /// The verifier calls [`PropertyContext::precompute_automata`] once
    /// and then hands these handles to its pairs, so every pair of one
    /// `(task, β)` reads the *same* automaton.
    ///
    /// # Panics
    /// Panics if [`PropertyContext::precompute_automata`] has not run.
    pub fn buchi_shared(&self, task: TaskId, beta: &[bool]) -> Arc<Buchi<TaskProp>> {
        self.buchi_cache
            .get(&(task, beta.to_vec()))
            .cloned()
            .expect("Büchi automaton not precomputed for this (task, β)")
    }

    /// Builds and caches `B(T, β)` for every task and every truth assignment
    /// over its `Φ_T`, in the canonical `(task, β)` order.
    ///
    /// This is exactly the set of automata one full verification run builds
    /// anyway; precomputing moves the only mutation of `self` ahead of the
    /// pair loop, which then shares `&PropertyContext` immutably.
    pub fn precompute_automata(&mut self) {
        let tasks: Vec<TaskId> = self.contexts.keys().copied().collect();
        for task in tasks {
            for beta in self.assignments(task) {
                let key = (task, beta.clone());
                if !self.buchi_cache.contains_key(&key) {
                    let automaton = self.build_buchi(task, &beta);
                    self.buchi_cache.insert(key, Arc::new(automaton));
                }
            }
        }
    }

    fn build_buchi(&self, task: TaskId, beta: &[bool]) -> Buchi<TaskProp> {
        let phi = self.flat.phi(task);
        let mut formula: Ltl<TaskProp> = Ltl::True;
        for (i, f) in phi.iter().enumerate() {
            let clause = if beta[i] { f.clone() } else { f.clone().not() };
            formula = formula.and(clause);
        }
        Buchi::from_ltl(&formula)
    }

    /// The symbolic context of a task.
    pub fn context(&self, task: TaskId) -> &TaskContext {
        &self.contexts[&task]
    }

    /// The index of the root formula within `Φ_{T1}` and the root task.
    pub fn root(&self) -> (TaskId, usize) {
        (self.flat.root_task, self.flat.root_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_ltl::hltl::HltlBuilder;
    use has_model::{Condition, SystemBuilder};

    fn system_and_property() -> (ArtifactSystem, HltlFormula) {
        let mut b = SystemBuilder::new("t");
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        b.input_vars(root, &[x]);
        let child = b.child_task(root, "Child");
        let cx = b.id_var(child, "cx");
        b.map_input(child, cx, x);
        let system = b.build().unwrap();
        let root_id = system.root();
        let child_id = system.schema.task_by_name("Child").unwrap();

        let mut cb = HltlBuilder::new(child_id);
        let c = cb.condition(Condition::not_null(cx));
        let child_formula = cb.finish(c.eventually());
        let mut rb = HltlBuilder::new(root_id);
        let sub = rb.child(child_id, child_formula);
        let property = rb.finish(sub.eventually());
        (system, property)
    }

    #[test]
    fn contexts_are_built_for_every_task() {
        let (system, property) = system_and_property();
        let pc = PropertyContext::new(&system, &property, 1);
        assert_eq!(pc.contexts.len(), 2);
        let (root, idx) = pc.root();
        assert_eq!(root, system.root());
        assert_eq!(idx, 0);
    }

    #[test]
    fn assignments_enumerate_all_truth_vectors() {
        let (system, property) = system_and_property();
        let pc = PropertyContext::new(&system, &property, 1);
        let child = system.schema.task_by_name("Child").unwrap();
        assert_eq!(pc.phi(child).len(), 1);
        assert_eq!(pc.assignments(child), vec![vec![false], vec![true]]);
        // Tasks without formulas get the single empty assignment.
        let unrelated_assignments = pc.assignments(system.root());
        assert_eq!(unrelated_assignments.len(), 2); // root has the top formula
    }

    #[test]
    fn precompute_covers_every_assignment_and_shares_automata() {
        let (system, property) = system_and_property();
        let mut pc = PropertyContext::new(&system, &property, 1);
        pc.precompute_automata();
        for (task, _) in system.schema.tasks() {
            for beta in pc.assignments(task) {
                let shared = pc.buchi_shared(task, &beta);
                assert!(shared.state_count() > 0);
                // Every handle points at the one cached automaton.
                assert!(Arc::ptr_eq(&shared, &pc.buchi_shared(task, &beta)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not precomputed")]
    fn buchi_shared_panics_without_precompute() {
        let (system, property) = system_and_property();
        let pc = PropertyContext::new(&system, &property, 1);
        let child = system.schema.task_by_name("Child").unwrap();
        let _ = pc.buchi_shared(child, &[true]);
    }
}
