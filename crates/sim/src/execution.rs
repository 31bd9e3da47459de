//! Randomized concrete execution of artifact systems.

use crate::trace::{Step, TaskTrace, TreeOfRuns};
use has_data::{eval_condition, DatabaseInstance, Valuation, Value};
use has_model::{
    ArtifactSchema, ArtifactSystem, Atom, Condition, ServiceRef, TaskId, Term, VarId, VarSort,
};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of the randomized executor.
#[derive(Clone, Debug)]
pub struct ExecutionConfig {
    /// Maximum number of global steps to execute.
    pub max_steps: usize,
    /// Number of random valuation samples tried when solving a
    /// post-condition.
    pub post_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            max_steps: 200,
            post_samples: 400,
            seed: 1,
        }
    }
}

/// The kind of step the executor fired (for reporting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// An internal service of some task.
    Internal,
    /// A child task was opened.
    Open,
    /// A child task returned.
    Close,
}

/// A live task instance during execution.
#[derive(Clone, Debug)]
pub struct TaskInstance {
    /// The task.
    pub task: TaskId,
    /// Current valuation of the task's variables.
    pub valuation: Valuation,
    /// Contents of the artifact relation.
    pub set: Vec<Vec<Value>>,
    /// Children opened in the current segment (task ids).
    pub segment_children: BTreeSet<TaskId>,
    /// Currently active children: (task, node index in the tree).
    pub active_children: Vec<(TaskId, usize)>,
    /// Index of this instance's trace node in the tree.
    pub node: usize,
}

/// Randomized executor producing trees of local runs.
pub struct Executor<'a> {
    system: &'a ArtifactSystem,
    db: &'a DatabaseInstance,
    config: ExecutionConfig,
    rng: StdRng,
}

impl<'a> Executor<'a> {
    /// Creates an executor over a concrete database.
    pub fn new(
        system: &'a ArtifactSystem,
        db: &'a DatabaseInstance,
        config: ExecutionConfig,
    ) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Executor {
            system,
            db,
            config,
            rng,
        }
    }

    /// Sets up the tree's root node and the root task instance (shared
    /// between the randomized executor and the scripted replayer).
    pub(crate) fn init_root(&mut self, tree: &mut TreeOfRuns) -> TaskInstance {
        let schema = &self.system.schema;
        let root = schema.root;
        tree.nodes.push(TaskTrace {
            task: root,
            steps: Vec::new(),
            returned: false,
        });
        let mut root_instance = TaskInstance {
            task: root,
            valuation: Valuation::new(),
            set: Vec::new(),
            segment_children: BTreeSet::new(),
            active_children: Vec::new(),
            node: 0,
        };
        // The root's input variables receive arbitrary values subject to Π.
        let input_vars = schema.task(root).input_vars.clone();
        if let Some(v) = self.solve_condition(
            &Valuation::new(),
            &input_vars,
            &self.system.precondition.clone(),
        ) {
            root_instance.valuation = v;
        }
        tree.nodes[0].steps.push(Step {
            service: ServiceRef::Opening(root),
            valuation: root_instance.valuation.clone(),
            child: None,
        });
        root_instance
    }

    /// Runs one randomized execution and returns the recorded tree of local
    /// runs.
    pub fn run(&mut self) -> TreeOfRuns {
        let mut tree = TreeOfRuns::default();
        let root_instance = self.init_root(&mut tree);

        // The stack of active instances: the root plus any transitively open
        // children. Steps pick a random active instance and a random enabled
        // move.
        let mut instances: Vec<TaskInstance> = vec![root_instance];
        for _ in 0..self.config.max_steps {
            if instances.is_empty() {
                break;
            }
            let idx = self.rng.random_range(0..instances.len());
            if !self.step_instance(idx, &mut instances, &mut tree) {
                // No move enabled for that instance; try another a few times,
                // giving up if nothing is enabled anywhere.
                let any =
                    (0..instances.len()).any(|i| self.step_instance(i, &mut instances, &mut tree));
                if !any {
                    break;
                }
            }
        }
        tree
    }

    /// Attempts one step of the given instance. Returns `true` if a step was
    /// taken.
    fn step_instance(
        &mut self,
        idx: usize,
        instances: &mut Vec<TaskInstance>,
        tree: &mut TreeOfRuns,
    ) -> bool {
        let schema = &self.system.schema;
        let task_id = instances[idx].task;
        let task = schema.task(task_id);

        // Candidate moves in random order: internal services, child
        // openings, child closings.
        #[derive(Clone, Copy)]
        enum Move {
            Internal(usize),
            Open(TaskId),
            Close(usize), // index into active_children
        }
        let mut moves: Vec<Move> = Vec::new();
        if instances[idx].active_children.is_empty() {
            for i in 0..task.internal_services.len() {
                moves.push(Move::Internal(i));
            }
        }
        for &child in &task.children {
            if !instances[idx].segment_children.contains(&child) {
                moves.push(Move::Open(child));
            }
        }
        for i in 0..instances[idx].active_children.len() {
            moves.push(Move::Close(i));
        }
        //

        while !moves.is_empty() {
            let pick = *moves.choose(&mut self.rng).expect("non-empty");
            let taken = match pick {
                Move::Internal(i) => self.fire_internal(idx, i, instances, tree),
                Move::Open(child) => self.fire_open(idx, child, instances, tree),
                Move::Close(ci) => self.fire_close(idx, ci, instances, tree),
            };
            if taken {
                return true;
            }
            moves.retain(|m| {
                !matches!((m, &pick),
                (Move::Internal(a), Move::Internal(b)) if a == b)
            });
            match pick {
                Move::Internal(_) => {}
                Move::Open(c) => moves.retain(|m| !matches!(m, Move::Open(x) if *x == c)),
                Move::Close(ci) => moves.retain(|m| !matches!(m, Move::Close(x) if *x == ci)),
            }
        }
        false
    }

    pub(crate) fn fire_internal(
        &mut self,
        idx: usize,
        service_idx: usize,
        instances: &mut [TaskInstance],
        tree: &mut TreeOfRuns,
    ) -> bool {
        let schema = &self.system.schema;
        let task_id = instances[idx].task;
        let task = schema.task(task_id);
        let service = &task.internal_services[service_idx];
        if !eval_condition(schema, self.db, &instances[idx].valuation, &service.pre) {
            return false;
        }
        // Build the next valuation: inputs preserved, everything else
        // re-sampled subject to the post-condition.
        let free: Vec<VarId> = task
            .variables
            .iter()
            .copied()
            .filter(|v| !task.input_vars.contains(v))
            .collect();
        let base = instances[idx].valuation.project(&task.input_vars);
        let Some(mut next) = self.solve_condition(&base, &free, &service.post) else {
            return false;
        };
        // Artifact relation updates.
        if let Some(ar) = &task.artifact_relation {
            let current_tuple: Vec<Value> = ar
                .tuple
                .iter()
                .map(|v| instances[idx].valuation.get(schema, *v))
                .collect();
            if service.delta.retrieves() {
                let mut pool = instances[idx].set.clone();
                if service.delta.inserts() {
                    pool.push(current_tuple.clone());
                }
                if pool.is_empty() {
                    return false;
                }
                let chosen = pool.choose(&mut self.rng).expect("non-empty pool").clone();
                if service.delta.inserts() {
                    instances[idx].set.push(current_tuple);
                }
                instances[idx].set.retain(|t| *t != chosen);
                for (var, value) in ar.tuple.iter().zip(&chosen) {
                    next.set(*var, *value);
                }
            } else if service.delta.inserts() {
                instances[idx].set.push(current_tuple);
            }
        }
        instances[idx].valuation = next.clone();
        instances[idx].segment_children.clear();
        let node = instances[idx].node;
        tree.nodes[node].steps.push(Step {
            service: ServiceRef::Internal(task_id, service_idx),
            valuation: next,
            child: None,
        });
        true
    }

    pub(crate) fn fire_open(
        &mut self,
        idx: usize,
        child: TaskId,
        instances: &mut Vec<TaskInstance>,
        tree: &mut TreeOfRuns,
    ) -> bool {
        let schema = &self.system.schema;
        let child_task = schema.task(child);
        if !eval_condition(
            schema,
            self.db,
            &instances[idx].valuation,
            &child_task.opening.pre,
        ) {
            return false;
        }
        // Child initial valuation: inputs from the parent, everything else
        // at the sort default.
        let mut valuation = Valuation::new();
        for (cv, pv) in &child_task.opening.input_map {
            valuation.set(*cv, instances[idx].valuation.get(schema, *pv));
        }
        let node = tree.nodes.len();
        tree.nodes.push(TaskTrace {
            task: child,
            steps: vec![Step {
                service: ServiceRef::Opening(child),
                valuation: valuation.clone(),
                child: None,
            }],
            returned: false,
        });
        let parent_node = instances[idx].node;
        tree.nodes[parent_node].steps.push(Step {
            service: ServiceRef::Opening(child),
            valuation: instances[idx].valuation.clone(),
            child: Some(node),
        });
        instances[idx].segment_children.insert(child);
        instances[idx].active_children.push((child, node));
        instances.push(TaskInstance {
            task: child,
            valuation,
            set: Vec::new(),
            segment_children: BTreeSet::new(),
            active_children: Vec::new(),
            node,
        });
        true
    }

    pub(crate) fn fire_close(
        &mut self,
        idx: usize,
        child_pos: usize,
        instances: &mut Vec<TaskInstance>,
        tree: &mut TreeOfRuns,
    ) -> bool {
        let schema = &self.system.schema;
        let (child_id, child_node) = instances[idx].active_children[child_pos];
        // Find the live instance of the child.
        let Some(child_idx) = instances.iter().position(|i| i.node == child_node) else {
            return false;
        };
        // The child itself must have no active children and satisfy its
        // closing condition.
        if !instances[child_idx].active_children.is_empty() {
            return false;
        }
        let child_task = schema.task(child_id);
        if !eval_condition(
            schema,
            self.db,
            &instances[child_idx].valuation,
            &child_task.closing.pre,
        ) {
            return false;
        }
        // Apply the output mapping to the parent.
        let child_val = instances[child_idx].valuation.clone();
        for (pv, cv) in &child_task.closing.output_map {
            let overwrite = match schema.variable(*pv).sort {
                VarSort::Numeric => true,
                VarSort::Id => instances[idx].valuation.get(schema, *pv).is_null(),
            };
            if overwrite {
                instances[idx]
                    .valuation
                    .set(*pv, child_val.get(schema, *cv));
            }
        }
        tree.nodes[child_node].returned = true;
        tree.nodes[child_node].steps.push(Step {
            service: ServiceRef::Closing(child_id),
            valuation: child_val,
            child: None,
        });
        let parent_node = instances[idx].node;
        tree.nodes[parent_node].steps.push(Step {
            service: ServiceRef::Closing(child_id),
            valuation: instances[idx].valuation.clone(),
            child: None,
        });
        instances[idx].active_children.remove(child_pos);
        instances.remove(child_idx);
        true
    }

    /// Samples a valuation of `free_vars` extending `base` that satisfies the
    /// condition on the concrete database, or `None` after the configured
    /// number of attempts.
    ///
    /// Blind joint sampling has vanishing success probability on wide
    /// conjunctions (five independently pinned variables already put one
    /// sample below 1e-4), so every other attempt is *hinted*: variables
    /// pinned by a positive conjunct are proposed at their pinned value.
    /// Hints only shape the proposal distribution — acceptance is still
    /// decided by `eval_condition`, so unsatisfiable hints cost nothing and
    /// the un-hinted attempts keep exploring the full space.
    pub(crate) fn solve_condition(
        &mut self,
        base: &Valuation,
        free_vars: &[VarId],
        condition: &Condition,
    ) -> Option<Valuation> {
        let schema = &self.system.schema;
        let mut atoms = Vec::new();
        positive_conjuncts(condition, &mut atoms);
        // Candidate value pools.
        let ids: Vec<Value> = self
            .db
            .active_domain()
            .into_iter()
            .filter(|v| v.as_id().is_some())
            .collect();
        let mut numerics: Vec<Value> = self
            .db
            .active_domain()
            .into_iter()
            .filter(|v| v.as_num().is_some())
            .collect();
        numerics.extend((0..6).map(Value::num));
        for attempt in 0..self.config.post_samples {
            let hints = if attempt % 2 == 0 && !atoms.is_empty() {
                condition_hints(&mut self.rng, self.db, schema, base, free_vars, &atoms)
            } else {
                BTreeMap::new()
            };
            let mut candidate = base.clone();
            for &v in free_vars {
                let value = if let Some(hinted) = hints.get(&v) {
                    *hinted
                } else {
                    match schema.variable(v).sort {
                        VarSort::Id => {
                            if self.rng.random_bool(0.3) || ids.is_empty() {
                                Value::Null
                            } else {
                                *ids.choose(&mut self.rng).expect("non-empty")
                            }
                        }
                        VarSort::Numeric => *numerics.choose(&mut self.rng).expect("non-empty"),
                    }
                };
                candidate.set(v, value);
            }
            if eval_condition(schema, self.db, &candidate, condition) {
                return Some(candidate);
            }
        }
        None
    }
}

/// Collects the positive atomic conjuncts of a condition: the `Atom` leaves
/// reachable through `And` nodes only. `Not`/`Or` subtrees are skipped —
/// their atoms are not implied by the condition, so they must not pin
/// proposal values.
fn positive_conjuncts<'c>(condition: &'c Condition, out: &mut Vec<&'c Atom>) {
    match condition {
        Condition::And(parts) => {
            for part in parts {
                positive_conjuncts(part, out);
            }
        }
        Condition::Atom(atom) => out.push(atom),
        _ => {}
    }
}

/// Derives per-variable proposal values from positive conjuncts: `v = null`
/// and `v = c` pin `v` directly, a positive relation atom pins its variable
/// arguments to a randomly chosen row of that relation, and `v = w`
/// equalities propagate known bindings (from hints or from `base` for
/// non-free variables) through short chains.
fn condition_hints(
    rng: &mut StdRng,
    db: &DatabaseInstance,
    schema: &ArtifactSchema,
    base: &Valuation,
    free_vars: &[VarId],
    atoms: &[&Atom],
) -> BTreeMap<VarId, Value> {
    let mut hints: BTreeMap<VarId, Value> = BTreeMap::new();
    for atom in atoms {
        if let Atom::Eq(a, b) = atom {
            match (a, b) {
                (Term::Var(v), Term::Null) | (Term::Null, Term::Var(v)) => {
                    hints.insert(*v, Value::Null);
                }
                (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
                    hints.insert(*v, Value::Num(*c));
                }
                _ => {}
            }
        }
    }
    for atom in atoms {
        if let Atom::Relation { relation, args } = atom {
            let n = db.cardinality(*relation);
            if n == 0 {
                continue;
            }
            let pick = rng.random_range(0..n);
            if let Some(row) = db.rows(*relation).nth(pick) {
                for (term, value) in args.iter().zip(row.iter()) {
                    if let Term::Var(v) = term {
                        hints.entry(*v).or_insert(*value);
                    }
                }
            }
        }
    }
    for _ in 0..2 {
        for atom in atoms {
            if let Atom::Eq(Term::Var(a), Term::Var(b)) = atom {
                let known = |v: VarId, hints: &BTreeMap<VarId, Value>| {
                    hints
                        .get(&v)
                        .copied()
                        .or_else(|| (!free_vars.contains(&v)).then(|| base.get(schema, v)))
                };
                match (known(*a, &hints), known(*b, &hints)) {
                    (Some(x), None) => {
                        hints.insert(*b, x);
                    }
                    (None, Some(x)) => {
                        hints.insert(*a, x);
                    }
                    _ => {}
                }
            }
        }
    }
    hints
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_data::{DatabaseGenerator, GeneratorConfig};
    use has_workloads::orders::order_fulfilment;
    use has_workloads::travel::{travel_booking, TravelVariant};

    #[test]
    fn executes_the_order_system_without_panicking() {
        let o = order_fulfilment();
        let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
        let db = generator.generate(&o.system.schema.database);
        let mut exec = Executor::new(&o.system, &db, ExecutionConfig::default());
        let tree = exec.run();
        assert!(tree.total_steps() > 1);
        assert_eq!(tree.root().task, o.root);
    }

    #[test]
    fn executes_the_travel_system_and_spawns_children() {
        let t = travel_booking(TravelVariant::Buggy);
        let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
        let db = generator.generate(&t.system.schema.database);
        let mut exec = Executor::new(
            &t.system,
            &db,
            ExecutionConfig {
                max_steps: 400,
                seed: 3,
                ..ExecutionConfig::default()
            },
        );
        let tree = exec.run();
        assert!(tree.invocation_count() >= 1);
        // Different seeds give different executions (with very high
        // probability on this system).
        let mut exec2 = Executor::new(
            &t.system,
            &db,
            ExecutionConfig {
                max_steps: 400,
                seed: 4,
                ..ExecutionConfig::default()
            },
        );
        let tree2 = exec2.run();
        assert!(tree.total_steps() > 0 && tree2.total_steps() > 0);
    }

    #[test]
    fn executions_are_reproducible_per_seed() {
        let o = order_fulfilment();
        let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
        let db = generator.generate(&o.system.schema.database);
        let run = |seed| {
            let mut exec = Executor::new(
                &o.system,
                &db,
                ExecutionConfig {
                    seed,
                    ..ExecutionConfig::default()
                },
            );
            exec.run().total_steps()
        };
        assert_eq!(run(7), run(7));
    }
}
