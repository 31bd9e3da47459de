//! The top-level verifier: bottom-up computation of `R_T` and the final
//! model-checking answer.

use crate::outcome::{Outcome, Stats, Violation, ViolationKind, WitnessNode, WitnessStep};
use crate::property::PropertyContext;
use crate::task_verifier::{RtEntry, SummaryMap, TaskSummary, TaskVerifier};
use has_analysis::{DeadServiceMap, DeadServices};
use has_arith::{HcdBuilder, LinExpr};
use has_ltl::HltlFormula;
use has_model::{ArtifactSystem, TaskId, VarId};
use std::sync::Arc;

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
            witnesses: false,
        }
    }
}

impl VerifierConfig {
    /// Returns `self` unchanged: the verifier runs one worker, and this
    /// method is kept only because the frozen benchmark driver
    /// (`perfbench/`) calls it.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
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
    /// The task hierarchy runs as one bottom-up loop over its `(T, β)`
    /// pairs: tasks children first, each task's β in enumeration order, and
    /// a task's summary is committed after its last pair (DESIGN.md §5.6
    /// states the determinism contract; `tests/determinism.rs` enforces it).
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
        // this the property context is never mutated again.
        pc.precompute_automata();

        // Dead-service pruning: guards proven unsatisfiable by the exact
        // analyzer are excluded from every graph construction. This adds
        // precision: the search resolves arithmetic atoms optimistically
        // (DESIGN.md §5.5), so an unpruned FM-dead guard could fire. An
        // invalid system yields an error report with an empty dead map.
        let dead: DeadServiceMap = has_analysis::analyze(self.system, Some(self.property)).dead;
        stats.dead_services_pruned = dead.values().map(DeadServices::count).sum();

        let order = self.bottom_up_order();
        let (summaries, explored) = self.summarize(&pc, &order, &dead);
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
    /// the reconstructed tree is byte-identical from run to run.
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

    /// The engine: every pair `(T, β)` — one [`TaskVerifier::build_graph`]
    /// forward exploration followed by its Lemma 21 queries, one pruned
    /// Karp–Miller build per initial state in initial-state order
    /// ([`TaskVerifier::prepare_shared`],
    /// [`TaskVerifier::init_queries_shared`]) — run by the bottom-up pair
    /// loop [`bottom_up`], which commits each task's summary after its last
    /// pair.
    ///
    /// The one cache shared between pairs, a task context's post-state
    /// lists ([`has_symbolic::TaskContext::post_states`]), fills each list
    /// for the first pair that asks and is cleared when the task commits.
    fn summarize(
        &self,
        pc: &PropertyContext,
        order: &[TaskId],
        dead: &DeadServiceMap,
    ) -> (SummaryMap, Stats) {
        let contexts = &*pc.contexts;
        let pairs = pc.pairs(order);
        let mut stats = Stats::default();
        let summaries = bottom_up(
            &pairs,
            |p, committed| {
                let (task, beta) = &pairs[p];
                let buchi = pc.buchi_shared(*task, beta);
                let verifier = TaskVerifier::new(
                    self.system,
                    &self.config,
                    &contexts[task],
                    *task,
                    beta.clone(),
                    pc.phi(*task),
                    &buchi,
                    committed,
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
                let (entries, pair_stats) = TaskVerifier::reduce_queries(&graph, per_init);
                self.debug_pair(*task, beta, &entries, &pair_stats);
                stats.absorb(&pair_stats);
                entries
            },
            // No pair of this task runs again: drop its post-state lists so
            // peak memory does not grow with the hierarchy.
            |task| contexts[&task].clear_post_states(),
        );
        (summaries, stats)
    }

    /// `HAS_VERIFIER_DEBUG` trace line for one `(T, β)` pair, printed right
    /// after the pair is reduced. The variable is treated as a switch:
    /// unset, empty, or `0` disables the trace.
    fn debug_pair(&self, task: TaskId, beta: &[bool], entries: &[RtEntry], stats: &Stats) {
        if !verifier_debug_enabled() {
            return;
        }
        eprintln!(
            "[has-core] task {} beta {:?}: {} entries ({} returning), {}",
            self.system.schema.task(task).name,
            beta,
            entries.len(),
            entries.iter().filter(|e| e.output.is_some()).count(),
            stats
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

/// The bottom-up pair loop: runs every pair of `pairs` one after another
/// in the given canonical order — tasks bottom-up, each task's β
/// consecutive and in enumeration order — and returns the committed
/// summaries.
///
/// `run_pair(p, committed)` computes pair `p`'s entries against the
/// summaries committed so far, which hold every child of its task. After a
/// task's last pair, its entries (concatenated in β order) are committed
/// and `on_commit(task)` runs. The pair drops its handle on the map before
/// the commit, so `Arc::make_mut` inserts in place.
fn bottom_up<R, C>(pairs: &[(TaskId, Vec<bool>)], mut run_pair: R, mut on_commit: C) -> SummaryMap
where
    R: FnMut(usize, Arc<SummaryMap>) -> Vec<RtEntry>,
    C: FnMut(TaskId),
{
    let mut committed = Arc::new(SummaryMap::new());
    let mut summary = TaskSummary::default();
    for (p, (task, _)) in pairs.iter().enumerate() {
        summary
            .entries
            .append(&mut run_pair(p, Arc::clone(&committed)));
        if pairs.get(p + 1).is_none_or(|(next, _)| next != task) {
            Arc::make_mut(&mut committed).insert(*task, Arc::new(std::mem::take(&mut summary)));
            on_commit(*task);
        }
    }
    Arc::unwrap_or_clone(committed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_ltl::hltl::HltlBuilder;
    use has_model::{Condition, SetUpdate, SystemBuilder};
    use std::cell::RefCell;

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

    /// Pairs run in canonical order, each against the summaries committed
    /// before it, and a task commits (which is where its post-state cache
    /// is cleared) right after its last pair.
    #[test]
    fn pairs_run_in_canonical_order_and_commit_after_the_last_pair() {
        let (system, pairs) = three_level_pairs();
        let events = RefCell::new(Vec::new());
        let summaries = bottom_up(
            &pairs,
            |p, committed| {
                events
                    .borrow_mut()
                    .push(format!("pair {p} sees {}", committed.len()));
                Vec::new()
            },
            |task| {
                events
                    .borrow_mut()
                    .push(format!("commit {}", system.schema.task(task).name))
            },
        );
        assert_eq!(
            events.into_inner(),
            [
                "pair 0 sees 0",
                "commit L",
                "pair 1 sees 1",
                "pair 2 sees 1",
                "commit M",
                "pair 3 sees 2",
                "pair 4 sees 2",
                "commit C",
                "pair 5 sees 3",
                "pair 6 sees 3",
                "commit R",
            ]
        );
        assert_eq!(summaries.len(), 4);
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
