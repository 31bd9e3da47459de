//! The top-level verifier: bottom-up computation of `R_T` and the final
//! model-checking answer.

use crate::outcome::{Outcome, Stats, Violation, ViolationKind, WitnessNode, WitnessStep};
use crate::property::PropertyContext;
use crate::task_verifier::{RtEntry, SummaryMap, TaskSummary, TaskVerifier};
use has_analysis::{DeadServiceMap, DeadServices};
use has_arith::{HcdBuilder, LinExpr};
use has_ltl::buchi::Buchi;
use has_ltl::hltl::TaskProp;
use has_ltl::HltlFormula;
use has_model::{ArtifactSchema, ArtifactSystem, TaskId, VarId};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Tuning knobs of the verifier.
///
/// The defaults are adequate for the systems in `has-workloads`; the caps
/// exist because several enumeration steps are worst-case exponential (that
/// is the content of Tables 1 and 2) and runaway instances should degrade
/// into an explicit truncation rather than an apparent hang. Any truncation
/// is an *under*-approximation of the violation search (`holds = true`
/// results are then "no violation found within the explored space").
#[derive(Clone, Debug)]
pub struct VerifierConfig {
    /// Foreign-key navigation depth of the symbolic expression universe.
    pub nav_depth: usize,
    /// Cap on the number of symbolic successor states per enumeration step.
    pub max_successors: usize,
    /// Cap on the number of control states explored per `(T, β)` pair.
    pub max_control_states: usize,
    /// Cap on the number of undecided related-expression pairs branched over
    /// when refining a successor state.
    pub max_merge_pairs: usize,
    /// Cap on the number of Karp–Miller coverability-graph nodes built per
    /// reachability query (truncation under-approximates the search).
    pub km_node_cap: usize,
    /// Whether to build the Hierarchical Cell Decomposition for arithmetic
    /// constraints (Section 5). Its cell count is only recorded in
    /// [`crate::outcome::Stats::hcd_cells`]; no verification step reads the
    /// decomposition, and arithmetic atoms stay three-valued and resolved
    /// optimistically (DESIGN.md §5.5).
    pub use_cells: bool,
    /// Number of worker threads for the `(T, β)` fan-out. Every value runs
    /// the same readiness scheduler: a `(T, β)` pair becomes ready the
    /// moment the last of its task's children commits its summary — no
    /// level barrier. At most one worker runs per pair job; with one worker
    /// the scheduler runs inline on the calling thread (no thread is
    /// spawned). The outcome and statistics are identical at every thread
    /// count (DESIGN.md §5.6); `0` is treated as `1`.
    ///
    /// Defaults to [`VerifierConfig::default_threads`].
    pub threads: usize,
    /// Whether to retain per-run witness data and reconstruct a hierarchical
    /// counterexample ([`crate::outcome::WitnessNode`]) when the property is
    /// violated. Off by default: retention records one step label per VASS
    /// transition and materializes pump cycles, so the no-witness hot path
    /// keeps its current allocations (DESIGN.md §5.7 states the cost model).
    ///
    /// Enabling witnesses never changes `holds` or the statistics; it
    /// refines the reported violation — `Violation::witness` is populated,
    /// and the kind becomes [`crate::ViolationKind::Returning`] when a
    /// returned sub-call carries the violation.
    pub witnesses: bool,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            nav_depth: 1,
            max_successors: 512,
            max_control_states: 20_000,
            max_merge_pairs: 6,
            km_node_cap: 50_000,
            use_cells: false,
            threads: Self::default_threads(),
            witnesses: false,
        }
    }
}

impl VerifierConfig {
    /// The default worker count: the `HAS_THREADS` environment variable when
    /// it is set to a positive integer, otherwise the machine's available
    /// parallelism (`1` if that cannot be determined).
    pub fn default_threads() -> usize {
        if let Ok(value) = std::env::var("HAS_THREADS") {
            if let Ok(n) = value.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Returns this configuration with the given worker count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns this configuration with witness reconstruction switched on or
    /// off (see [`VerifierConfig::witnesses`]).
    #[must_use]
    pub fn with_witnesses(mut self, witnesses: bool) -> Self {
        self.witnesses = witnesses;
        self
    }
}

/// The HAS verifier.
pub struct Verifier<'a> {
    system: &'a ArtifactSystem,
    property: &'a HltlFormula,
    config: VerifierConfig,
}

impl<'a> Verifier<'a> {
    /// Creates a verifier for a system and property with default settings.
    pub fn new(system: &'a ArtifactSystem, property: &'a HltlFormula) -> Self {
        Verifier {
            system,
            property,
            config: VerifierConfig::default(),
        }
    }

    /// Creates a verifier with an explicit configuration.
    pub fn with_config(
        system: &'a ArtifactSystem,
        property: &'a HltlFormula,
        config: VerifierConfig,
    ) -> Self {
        Verifier {
            system,
            property,
            config,
        }
    }

    /// Decides `Γ ⊨ φ`.
    ///
    /// Returns an [`Outcome`] with the answer, a symbolic witness when the
    /// property can be violated, and exploration statistics.
    ///
    /// The task hierarchy runs on one readiness scheduler at every thread
    /// count: each `(T, β)` pair starts as soon as *its* task's children
    /// have committed their summaries (no level barrier), and all results
    /// are reduced and committed in the fixed `(task, β, τ_in)` order — the
    /// outcome and statistics are identical at every `config.threads`
    /// (DESIGN.md §5.6 states the contract; `tests/parallel_determinism.rs`
    /// enforces it).
    ///
    /// # Panics
    /// Panics if the property fails validation against the system.
    pub fn verify(&self) -> Outcome {
        self.property
            .validate(self.system)
            .expect("property must be well-formed for the system");

        let mut stats = Stats::default();
        if self.config.use_cells {
            stats.hcd_cells = self.build_hcd_cell_count();
        }

        let mut pc = PropertyContext::new(self.system, self.property, self.config.nav_depth);
        // Every B(T, β) one verification run needs, built up front: after
        // this the property context is never mutated again, so workers can
        // share it immutably.
        pc.precompute_automata();

        // Dead-service pruning: guards proven unsatisfiable by the exact
        // analyzer are excluded from every graph construction. This adds
        // precision: the search resolves arithmetic atoms optimistically
        // (DESIGN.md §5.5), so an unpruned FM-dead guard could fire. An
        // invalid system yields an error report with an empty dead map.
        let dead: DeadServiceMap = has_analysis::analyze(self.system, Some(self.property)).dead;
        stats.dead_services_pruned = dead.values().map(DeadServices::count).sum();

        let order = self.bottom_up_order();
        let (summaries, explored) = self.schedule(&pc, &order, &dead);
        stats.absorb(&explored);

        // Γ ⊨ φ iff there is no non-returning root run with β(ξ) = 0.
        let (root_task, root_index) = pc.root();
        let root_summary = &summaries[&root_task];
        let violating = root_summary
            .entries
            .iter()
            .find(|e| e.output.is_none() && !e.beta.get(root_index).copied().unwrap_or(false));

        match violating {
            None => Outcome {
                holds: true,
                violation: None,
                stats,
            },
            Some(entry) => {
                // The Lemma 21 path kind of the witnessing entry: an
                // infinite local run when one exists, otherwise the run
                // blocks on a never-returning child. (Every non-returning
                // entry carries at least one of the two witnesses.)
                debug_assert!(entry.witness.lasso || entry.witness.blocking);
                let root_kind = if entry.witness.lasso {
                    ViolationKind::Lasso
                } else {
                    ViolationKind::Blocking
                };
                // Witness reconstruction (when retained): descend from the
                // violating root entry through the summaries to build the
                // per-task witness tree, and refine the reported kind to
                // `Returning` when the carrier chain starts with a returned
                // sub-call — the sub-task's returned run, not the root's
                // own path, is what carries the violation.
                let witness = self
                    .config
                    .witnesses
                    .then(|| self.reconstruct(&summaries, root_task, entry));
                let kind = match witness.as_ref().and_then(WitnessNode::carrier) {
                    Some(carrier) if carrier.kind == ViolationKind::Returning => {
                        ViolationKind::Returning
                    }
                    _ => root_kind,
                };
                Outcome {
                    holds: false,
                    violation: Some(Violation {
                        task: root_task,
                        kind,
                        input_description: format!(
                            "input isomorphism type {}",
                            crate::outcome::render_input_key(&entry.input_key)
                        ),
                        witness,
                    }),
                    stats,
                }
            }
        }
    }

    /// Reconstructs the hierarchical witness tree rooted at `entry` — one
    /// [`WitnessNode`] per task run, descending through the committed
    /// summaries: every `OpenChild` step on the entry's retained run records
    /// the child `R_T` tuple the run chose, which identifies the child's own
    /// entry (and retained details) in `summaries`, recursively. Distinct
    /// child calls appear once each, in run order; the hierarchy is a tree,
    /// so the descent terminates at the leaves.
    ///
    /// Everything read here — the entry list layout, each entry's details —
    /// is produced by the canonical-order reduction of DESIGN.md §5.6, so
    /// the reconstructed tree is byte-identical at every thread count.
    fn reconstruct(&self, summaries: &SummaryMap, task: TaskId, entry: &RtEntry) -> WitnessNode {
        let schema = &self.system.schema;
        let kind = if entry.output.is_some() {
            ViolationKind::Returning
        } else if entry.witness.lasso {
            ViolationKind::Lasso
        } else {
            ViolationKind::Blocking
        };
        let (prefix, cycle, cycle_truncated) = match entry.details.as_deref() {
            Some(d) => (d.prefix.clone(), d.cycle.clone(), d.cycle_truncated),
            None => (Vec::new(), Vec::new(), false),
        };
        let mut children: Vec<WitnessNode> = Vec::new();
        let mut seen: Vec<&WitnessStep> = Vec::new();
        for step in prefix.iter().chain(cycle.iter()) {
            let WitnessStep::OpenChild {
                child,
                beta,
                input_key,
                output,
                ..
            } = step
            else {
                continue;
            };
            if seen.contains(&step) {
                continue;
            }
            seen.push(step);
            let child_entry = summaries.get(child).and_then(|summary| {
                summary
                    .entries
                    .iter()
                    .find(|e| e.input_key == *input_key && e.output == *output && e.beta == *beta)
            });
            let node = match child_entry {
                Some(e) => self.reconstruct(summaries, *child, e),
                // Defensive: the opening consumed this tuple from the
                // committed summary, so it must be there — degrade to a
                // detail-less node rather than panic in a reporting path.
                None => WitnessNode {
                    task: *child,
                    task_name: schema.task(*child).name.clone(),
                    kind: if output.is_some() {
                        ViolationKind::Returning
                    } else {
                        ViolationKind::Blocking
                    },
                    input_description: format!(
                        "input isomorphism type {}",
                        crate::outcome::render_input_key(input_key)
                    ),
                    beta: beta.clone(),
                    prefix: Vec::new(),
                    cycle: Vec::new(),
                    cycle_truncated: false,
                    children: Vec::new(),
                },
            };
            // Distinct calls can still reconstruct to structurally equal
            // runs (e.g. two openings that differ only in the promised
            // output pattern); listing one of them keeps the tree readable.
            if !children.contains(&node) {
                children.push(node);
            }
        }
        WitnessNode {
            task,
            task_name: schema.task(task).name.clone(),
            kind,
            input_description: format!(
                "input isomorphism type {}",
                crate::outcome::render_input_key(&entry.input_key)
            ),
            beta: entry.beta.clone(),
            prefix,
            cycle,
            cycle_truncated,
            children,
        }
    }

    /// Bottom-up (children before parents) DFS postorder over the hierarchy.
    fn bottom_up_order(&self) -> Vec<TaskId> {
        let schema = &self.system.schema;
        let mut order: Vec<TaskId> = Vec::new();
        let mut stack = vec![(schema.root, false)];
        while let Some((t, expanded)) = stack.pop() {
            if expanded {
                order.push(t);
            } else {
                stack.push((t, true));
                for &c in &schema.task(t).children {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// The engine: every pair job `(T, β)` — one
    /// [`TaskVerifier::build_graph`] forward exploration followed by its
    /// Lemma 21 queries, one pruned Karp–Miller build per initial state in
    /// initial-state order ([`TaskVerifier::prepare_shared`],
    /// [`TaskVerifier::init_queries_shared`]) — run on the readiness
    /// scheduler ([`run_pairs`]) with `config.threads` workers. A task's
    /// pairs start the moment its last child commits its summary; there is
    /// no barrier between hierarchy levels.
    ///
    /// The one shared cache, a task context's post-state lists
    /// ([`has_symbolic::TaskContext::post_states`]), fills each list exactly
    /// once whichever pair asks first, and is cleared when the task commits.
    /// Statistics are absorbed in canonical `(task, β)` order, which keeps
    /// the outcome independent of scheduling (DESIGN.md §5.6).
    fn schedule(
        &self,
        pc: &PropertyContext,
        order: &[TaskId],
        dead: &DeadServiceMap,
    ) -> (SummaryMap, Stats) {
        let contexts = &*pc.contexts;
        // Canonical pair enumeration: tasks in bottom-up order, assignments
        // in β-enumeration order.
        let pairs: Vec<(TaskId, Vec<bool>)> = pc.pairs(order);
        let buchis: Vec<Arc<Buchi<TaskProp>>> =
            pairs.iter().map(|(t, b)| pc.buchi_shared(*t, b)).collect();
        let (summaries, reduced) = run_pairs(
            &self.system.schema,
            &pairs,
            self.config.threads,
            |p, snapshot| {
                let task = pairs[p].0;
                let verifier = TaskVerifier::new(
                    self.system,
                    &self.config,
                    &contexts[&task],
                    task,
                    pairs[p].1.clone(),
                    pc.phi(task),
                    &buchis[p],
                    snapshot,
                    contexts,
                    dead,
                );
                let graph = verifier.build_graph();
                // The pair's queries share one Karp–Miller scratch
                // allocation; `reduce_queries` needs their results in
                // initial-state order.
                let mut shared = verifier.prepare_shared(&graph);
                let per_init = (0..graph.initial_count())
                    .map(|pos| verifier.init_queries_shared(&graph, pos, &mut shared));
                TaskVerifier::reduce_queries(&graph, per_init)
            },
            // No pair of this task runs again: drop its post-state lists so
            // peak memory does not grow with the hierarchy.
            |task| contexts[&task].clear_post_states(),
        );

        // Deterministic aggregation: walk the canonical pair order.
        let mut stats = Stats::default();
        for ((task, beta), pair) in pairs.iter().zip(&reduced) {
            self.debug_pair(*task, beta, pair);
            stats.absorb(&pair.stats);
        }
        (summaries, stats)
    }

    /// `HAS_VERIFIER_DEBUG` trace line for one reduced `(T, β)` pair, from
    /// the entry counts the scheduler kept when it moved the pair's entries
    /// into the task summary. The β is the pair's actual assignment, and the
    /// variable is treated as a switch: unset, empty, or `0` disables the
    /// trace.
    fn debug_pair(&self, task: TaskId, beta: &[bool], pair: &ReducedPair) {
        if !verifier_debug_enabled() {
            return;
        }
        eprintln!(
            "[has-core] task {} beta {:?}: {} entries ({} returning), {}",
            self.system.schema.task(task).name,
            beta,
            pair.total,
            pair.returning,
            pair.stats
        );
    }

    /// Builds the Hierarchical Cell Decomposition induced by the arithmetic
    /// atoms of the specification and the property, and returns its total
    /// cell count (the quantity measured by experiment EXP-F4).
    fn build_hcd_cell_count(&self) -> usize {
        let schema = &self.system.schema;
        let mut builder: HcdBuilder<VarId> = HcdBuilder::new();
        for (task_id, task) in schema.tasks() {
            let mut polys: Vec<LinExpr<VarId>> = Vec::new();
            let collect = |c: &has_model::Condition, polys: &mut Vec<LinExpr<VarId>>| {
                for a in c.arithmetic_atoms() {
                    polys.push(a.expr.clone());
                }
            };
            for s in &task.internal_services {
                collect(&s.pre, &mut polys);
                collect(&s.post, &mut polys);
            }
            collect(&task.closing.pre, &mut polys);
            for &c in &task.children {
                collect(&schema.task(c).opening.pre, &mut polys);
            }
            // Shared numeric variables with the parent (inputs and returns).
            let shared: Vec<(VarId, VarId)> = task
                .opening
                .input_map
                .iter()
                .map(|(c, p)| (*c, *p))
                .chain(task.closing.output_map.iter().map(|(p, c)| (*c, *p)))
                .filter(|(c, _)| schema.variable(*c).sort == has_model::VarSort::Numeric)
                .collect();
            builder = builder.task(task_id.0, task.parent.map(|p| p.0), polys, shared);
        }
        builder.build().total_cells()
    }
}

/// Whether `HAS_VERIFIER_DEBUG` requests the per-pair trace: set to any
/// non-empty value other than `0`. (`is_ok()` alone would treat
/// `HAS_VERIFIER_DEBUG=0` — the conventional "off" — as on.)
fn verifier_debug_enabled() -> bool {
    std::env::var("HAS_VERIFIER_DEBUG")
        .map(|value| {
            let value = value.trim();
            !value.is_empty() && value != "0"
        })
        .unwrap_or(false)
}

/// A pair's reduced result. `entries` is *moved* into the task summary when
/// the task commits (leaving this empty), so the entry list exists once; the
/// counts stay behind for the deterministic post-schedule debug trace.
struct ReducedPair {
    entries: Vec<RtEntry>,
    stats: Stats,
    total: usize,
    returning: usize,
}

/// The scheduler's whole shared state, behind its one lock.
struct Board {
    /// Released pair jobs; workers pop the newest first.
    ready: Vec<usize>,
    /// Jobs popped but not yet stored.
    running: usize,
    /// Set when a pair job panicked: idle workers exit instead of waiting.
    failed: bool,
    /// Per task: children that have not committed yet (its pairs are
    /// released when this hits zero).
    pending_children: BTreeMap<TaskId, usize>,
    /// Per task: pairs not reduced yet (the summary commits when this hits
    /// zero).
    remaining_pairs: BTreeMap<TaskId, usize>,
    /// Committed summaries. A job clones the `Arc`, not the map, so its
    /// snapshot holds every child it can ever look up; a commit copies the
    /// map only while some running job still holds the old snapshot.
    committed: Arc<SummaryMap>,
    /// Reduced pairs by canonical position.
    reduced: Vec<Option<ReducedPair>>,
}

/// The readiness scheduler: runs every pair job of `pairs` (canonical
/// order — tasks bottom-up, β in enumeration order) and returns the
/// committed summaries with the reduced pairs in canonical order.
///
/// `run_pair(p, snapshot)` computes pair `p` against the summaries
/// committed so far. A task's pairs are released the moment its last child
/// commits; the task commits (its pairs' entries concatenated in β order,
/// then `on_commit(task)`) when its last pair lands. All bookkeeping sits
/// behind one `Mutex`, and one `Condvar` wakes idle workers; jobs run
/// outside the lock.
///
/// One worker runs per pair job at most, up to `threads`. With one worker
/// the loop runs inline on the calling thread and nothing is spawned:
/// leaves run in canonical order and a released task's pairs run next,
/// newest first (the ready list is a stack).
///
/// # Panics
/// A panicking `run_pair` stops the other workers from taking new jobs and
/// is propagated to the caller.
fn run_pairs<R, C>(
    schema: &ArtifactSchema,
    pairs: &[(TaskId, Vec<bool>)],
    threads: usize,
    run_pair: R,
    on_commit: C,
) -> (SummaryMap, Vec<ReducedPair>)
where
    R: Fn(usize, Arc<SummaryMap>) -> (Vec<RtEntry>, Stats) + Sync,
    C: Fn(TaskId) + Sync,
{
    let mut task_pairs: BTreeMap<TaskId, Vec<usize>> = BTreeMap::new();
    for (p, (t, _)) in pairs.iter().enumerate() {
        task_pairs.entry(*t).or_default().push(p);
    }
    let board = Mutex::new(Board {
        // Reversed, so the stack pops the leaves' pairs in canonical order.
        ready: (0..pairs.len())
            .rev()
            .filter(|&p| schema.task(pairs[p].0).children.is_empty())
            .collect(),
        running: 0,
        failed: false,
        pending_children: task_pairs
            .keys()
            .map(|&t| (t, schema.task(t).children.len()))
            .collect(),
        remaining_pairs: task_pairs.iter().map(|(&t, ps)| (t, ps.len())).collect(),
        committed: Arc::new(SummaryMap::new()),
        reduced: pairs.iter().map(|_| None).collect(),
    });
    let wake = Condvar::new();

    let work = || {
        let mut guard = board.lock().expect("scheduler board poisoned");
        loop {
            if guard.failed {
                return;
            }
            let Some(p) = guard.ready.pop() else {
                if guard.running == 0 {
                    // Nothing ready and nothing in flight: drained.
                    wake.notify_all();
                    return;
                }
                guard = wake.wait(guard).expect("scheduler board poisoned");
                continue;
            };
            guard.running += 1;
            let snapshot = Arc::clone(&guard.committed);
            drop(guard);
            let result = catch_unwind(AssertUnwindSafe(|| run_pair(p, snapshot)));
            guard = board.lock().expect("scheduler board poisoned");
            guard.running -= 1;
            let (entries, stats) = match result {
                Ok(reduced) => reduced,
                Err(payload) => {
                    guard.failed = true;
                    drop(guard);
                    wake.notify_all();
                    resume_unwind(payload);
                }
            };
            let b = &mut *guard;
            b.reduced[p] = Some(ReducedPair {
                total: entries.len(),
                returning: entries.iter().filter(|e| e.output.is_some()).count(),
                entries,
                stats,
            });
            let task = pairs[p].0;
            if !count_down(&mut b.remaining_pairs, task) {
                continue;
            }
            let mut summary = TaskSummary::default();
            for &q in &task_pairs[&task] {
                let pair = b.reduced[q].as_mut().expect("pair reduced");
                summary.entries.append(&mut pair.entries);
            }
            Arc::make_mut(&mut b.committed).insert(task, Arc::new(summary));
            on_commit(task);
            if let Some(parent) = schema.task(task).parent {
                if count_down(&mut b.pending_children, parent) {
                    b.ready.extend(&task_pairs[&parent]);
                    wake.notify_all();
                }
            }
        }
    };

    let workers = threads.clamp(1, pairs.len().max(1));
    if workers == 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }
    let board = board.into_inner().expect("scheduler board poisoned");
    let reduced = board
        .reduced
        .into_iter()
        .map(|slot| slot.expect("scheduler reduced every pair"))
        .collect();
    (Arc::unwrap_or_clone(board.committed), reduced)
}

/// Decrements `task`'s counter; true when it reaches zero.
fn count_down(counts: &mut BTreeMap<TaskId, usize>, task: TaskId) -> bool {
    let count = counts.get_mut(&task).expect("every task has pairs");
    *count -= 1;
    *count == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_ltl::hltl::HltlBuilder;
    use has_model::{Condition, SetUpdate, SystemBuilder};
    use std::sync::Barrier;

    /// A single-task system with one flag that is set by a service and never
    /// unset: `F set` should hold on every infinite run... except runs where
    /// the service never fires, so `F set` is violated; `G (set -> set)` is a
    /// tautology and holds.
    fn flag_system() -> (ArtifactSystem, has_model::VarId) {
        let mut b = SystemBuilder::new("flag");
        let root = b.root_task("Main");
        let flag = b.num_var(root, "flag");
        b.internal_service(
            root,
            "set",
            Condition::True,
            Condition::eq_const(flag, has_arith::Rational::from_int(1)),
            SetUpdate::None,
        );
        b.internal_service(
            root,
            "idle",
            Condition::True,
            Condition::True,
            SetUpdate::None,
        );
        (b.build().unwrap(), flag)
    }

    #[test]
    fn tautology_holds() {
        let (system, flag) = flag_system();
        let root = system.root();
        let mut hb = HltlBuilder::new(root);
        let set = hb.condition(Condition::eq_const(flag, has_arith::Rational::from_int(1)));
        let property = hb.finish(set.clone().implies(set).globally());
        let outcome = Verifier::new(&system, &property).verify();
        assert!(outcome.holds, "{outcome}");
    }

    #[test]
    fn eventually_set_is_violated_by_idle_loop() {
        let (system, flag) = flag_system();
        let root = system.root();
        let mut hb = HltlBuilder::new(root);
        let set = hb.condition(Condition::eq_const(flag, has_arith::Rational::from_int(1)));
        let property = hb.finish(set.eventually());
        let outcome = Verifier::new(&system, &property).verify();
        assert!(!outcome.holds, "{outcome}");
        // The idle self-loop is an infinite local run of the root.
        assert_eq!(
            outcome.violation.expect("witness").kind,
            ViolationKind::Lasso
        );
    }

    /// Regression for the root-violation misclassification: the root below
    /// has no internal services and immediately opens a child whose closing
    /// condition is unreachable, so its *only* violating run blocks forever
    /// on the never-returning child — the reported kind must be `Blocking`,
    /// not the formerly hardcoded `Lasso`.
    #[test]
    fn blocking_on_a_never_returning_child_reports_blocking() {
        let mut b = SystemBuilder::new("blocking");
        let root = b.root_task("Main");
        let ret = b.num_var(root, "ret");
        let child = b.child_task(root, "Child");
        let cflag = b.num_var(child, "cflag");
        // The child spins forever: its only service keeps the flag at 0 and
        // its closing condition demands 1.
        b.internal_service(
            child,
            "spin",
            Condition::True,
            Condition::eq_const(cflag, has_arith::Rational::ZERO),
            SetUpdate::None,
        );
        b.close_when(
            child,
            Condition::eq_const(cflag, has_arith::Rational::from_int(1)),
        );
        b.map_output(child, ret, cflag);
        let system = b.build().unwrap();

        let mut hb = HltlBuilder::new(system.root());
        let done = hb.condition(Condition::eq_const(ret, has_arith::Rational::from_int(1)));
        let property = hb.finish(done.eventually());
        let outcome = Verifier::new(&system, &property).verify();
        assert!(!outcome.holds, "{outcome}");
        let violation = outcome.violation.as_ref().expect("witness");
        assert_eq!(violation.kind, ViolationKind::Blocking, "{outcome}");
        assert!(outcome.to_string().contains("blocking run"), "{outcome}");
    }

    /// With witness reconstruction on, the idle-loop lasso comes back as a
    /// rendered run: a (possibly empty) prefix plus a non-empty pump cycle
    /// of internal services — and the `holds`/stats answer is unchanged.
    #[test]
    fn lasso_witness_materializes_the_idle_pump_cycle() {
        let (system, flag) = flag_system();
        let root = system.root();
        let mut hb = HltlBuilder::new(root);
        let set = hb.condition(Condition::eq_const(flag, has_arith::Rational::from_int(1)));
        let property = hb.finish(set.eventually());
        let plain = Verifier::new(&system, &property).verify();
        let config = VerifierConfig::default().with_witnesses(true);
        let outcome = Verifier::with_config(&system, &property, config).verify();
        assert!(!outcome.holds);
        assert_eq!(
            outcome.stats, plain.stats,
            "retention must not change stats"
        );
        let violation = outcome.violation.expect("witness");
        assert_eq!(violation.kind, ViolationKind::Lasso);
        assert_eq!(violation.origin(), root, "no sub-call to descend into");
        let witness = violation.witness.expect("reconstructed tree");
        assert_eq!(witness.task, root);
        assert!(
            !witness.cycle.is_empty() && !witness.cycle_truncated,
            "{witness}"
        );
        let rendered = witness.to_string();
        assert!(rendered.contains("cycle (repeatable pump):"), "{rendered}");
        assert!(rendered.contains("internal service `"), "{rendered}");
    }

    /// With witness reconstruction on, a root blocking on a never-returning
    /// child descends into the child: the origin names the child and the
    /// child's node carries its own (spinning) run.
    #[test]
    fn blocking_witness_descends_into_the_spinning_child() {
        let mut b = SystemBuilder::new("blocking");
        let root = b.root_task("Main");
        let ret = b.num_var(root, "ret");
        let child = b.child_task(root, "Child");
        let cflag = b.num_var(child, "cflag");
        b.internal_service(
            child,
            "spin",
            Condition::True,
            Condition::eq_const(cflag, has_arith::Rational::ZERO),
            SetUpdate::None,
        );
        b.close_when(
            child,
            Condition::eq_const(cflag, has_arith::Rational::from_int(1)),
        );
        b.map_output(child, ret, cflag);
        let system = b.build().unwrap();
        let child_id = system.schema.task_by_name("Child").unwrap();

        let mut hb = HltlBuilder::new(system.root());
        let done = hb.condition(Condition::eq_const(ret, has_arith::Rational::from_int(1)));
        let property = hb.finish(done.eventually());
        let config = VerifierConfig::default().with_witnesses(true);
        let outcome = Verifier::with_config(&system, &property, config).verify();
        assert!(!outcome.holds, "{outcome}");
        let violation = outcome.violation.as_ref().expect("witness");
        // The root's own path kind is still blocking (the carrier is a
        // never-returning call, not a returned one) …
        assert_eq!(violation.kind, ViolationKind::Blocking, "{outcome}");
        // … but the origin names the task that actually violates.
        assert_eq!(violation.origin(), child_id);
        assert_eq!(violation.origin_name(), Some("Child"));
        let witness = violation.witness.as_ref().expect("tree");
        let rendered = witness.to_string();
        assert!(rendered.contains("→ never returns"), "{rendered}");
        assert!(rendered.contains("└ task `Child`"), "{rendered}");
        assert!(rendered.contains("internal service `spin`"), "{rendered}");
        // The outcome line names the originating sub-task.
        assert!(
            outcome.to_string().contains("originating in task `Child`"),
            "{outcome}"
        );
    }

    #[test]
    fn contradictory_property_is_always_violated() {
        let (system, flag) = flag_system();
        let root = system.root();
        let mut hb = HltlBuilder::new(root);
        let set = hb.condition(Condition::eq_const(flag, has_arith::Rational::from_int(1)));
        let property = hb.finish(set.clone().and(set.not()).eventually().globally());
        let outcome = Verifier::new(&system, &property).verify();
        assert!(!outcome.holds);
    }

    /// Three levels: the root `R` has children `M` and `C`, and `M` has the
    /// leaf `L`. The pairs are listed in a canonical (children-first) order:
    /// `L` 0, `M` 1–2, `C` 3–4, `R` 5–6.
    fn three_level_pairs() -> (ArtifactSystem, Vec<(TaskId, Vec<bool>)>) {
        let mut b = SystemBuilder::new("levels");
        let r = b.root_task("R");
        let m = b.child_task(r, "M");
        let l = b.child_task(m, "L");
        let c = b.child_task(r, "C");
        let system = b.build().unwrap();
        let pairs = [(l, 1), (m, 2), (c, 2), (r, 2)]
            .into_iter()
            .flat_map(|(t, n)| (0..n).map(move |i| (t, vec![i == 1])))
            .collect();
        (system, pairs)
    }

    /// At one worker every job runs on the calling thread in the order the
    /// readiness scheduler has always used: leaves in canonical order, and a
    /// released task's pairs right away, newest first — `M`'s pairs run
    /// before the leaf `C`'s. Tasks commit as their last pair lands, which
    /// is where their post-state caches are cleared.
    #[test]
    fn one_worker_runs_inline_in_release_order() {
        let (system, pairs) = three_level_pairs();
        let caller = std::thread::current().id();
        let ran = Mutex::new(Vec::new());
        let committed = Mutex::new(Vec::new());
        let (summaries, reduced) = run_pairs(
            &system.schema,
            &pairs,
            1,
            |p, snapshot| {
                assert_eq!(std::thread::current().id(), caller);
                ran.lock().unwrap().push((p, snapshot.len()));
                (Vec::new(), Stats::default())
            },
            |task| {
                committed
                    .lock()
                    .unwrap()
                    .push(system.schema.task(task).name.clone())
            },
        );
        // Each job sees the summaries committed before it started.
        assert_eq!(
            ran.into_inner().unwrap(),
            [(0, 0), (2, 1), (1, 1), (3, 2), (4, 2), (6, 3), (5, 3)]
        );
        assert_eq!(committed.into_inner().unwrap(), ["L", "M", "C", "R"]);
        assert_eq!(summaries.len(), 4);
        assert_eq!(reduced.len(), pairs.len());
    }

    /// Workers are capped by the number of pair jobs: a one-pair system
    /// runs inline even when eight threads are allowed.
    #[test]
    fn one_pair_runs_inline_at_any_thread_count() {
        let (system, _) = flag_system();
        let caller = std::thread::current().id();
        let (summaries, _) = run_pairs(
            &system.schema,
            &[(system.root(), Vec::new())],
            8,
            |_, _| {
                assert_eq!(std::thread::current().id(), caller);
                (Vec::new(), Stats::default())
            },
            |_| {},
        );
        assert_eq!(summaries.len(), 1);
    }

    /// A panicking pair job reaches the caller instead of leaving the other
    /// workers waiting for a task that can never commit. With several
    /// workers the panic is forced to land while another worker is parked:
    /// the leaf `L`'s job waits until `C` commits, and `C`'s worker, holding
    /// the lock until it parks (nothing else is ready), must be woken.
    #[test]
    fn pair_panic_propagates_at_every_thread_count() {
        let (system, pairs) = three_level_pairs();
        let c = system.schema.task_by_name("C").unwrap();
        for threads in [1, 2, 8] {
            let c_committed = Barrier::new(2);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_pairs(
                    &system.schema,
                    &pairs,
                    threads,
                    |p, _| {
                        if p == 0 {
                            if threads > 1 {
                                c_committed.wait();
                            }
                            panic!("pair 0 fails");
                        }
                        (Vec::new(), Stats::default())
                    },
                    |task| {
                        if threads > 1 && task == c {
                            c_committed.wait();
                        }
                    },
                )
            }));
            assert!(result.is_err(), "threads={threads}");
        }
    }

    #[test]
    fn true_property_holds_and_reports_stats() {
        let (system, _) = flag_system();
        let root = system.root();
        let hb = HltlBuilder::new(root);
        let property = hb.finish(has_ltl::Ltl::True);
        let outcome = Verifier::new(&system, &property).verify();
        assert!(outcome.holds);
        assert!(outcome.stats.control_states > 0);
        assert!(outcome.stats.task_assignments >= 1);
    }
}
