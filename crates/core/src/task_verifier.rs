//! Per-task symbolic exploration: construction of the VASS `V(T, β)` and
//! computation of the relation `R_T` (Section 4.2, Lemma 21).

use crate::compiled::CompiledBuchi;
use crate::outcome::{Stats, WitnessStep};
use crate::verifier::VerifierConfig;
use has_analysis::{dimension_cone_multi, DeadServiceMap, PresolveStats};
use has_ltl::buchi::{Buchi, BuchiState};
use has_ltl::hltl::TaskProp;
use has_ltl::Ltl;
use has_model::{
    ArtifactSystem, Condition, ServiceRef, TaskId, VarId, VarSort,
};
use has_symbolic::{transfer_pattern, ProjectionKey, SymState, TaskContext};
use has_vass::{BitSet, CoverabilityGraph, CycleSearch, FxHashMap, Interner, KmScratch, Vass};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The cost measures of one `(T, β, τ_in)` Lemma 21 query, accumulated into
/// [`Stats`] by [`TaskVerifier::reduce_queries`]: Karp–Miller nodes explored
/// and the query's counter dimension before/after cone-of-influence
/// projection (equal when projection is off or the cone is full).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Karp–Miller coverability-graph nodes this query explored.
    pub km_nodes: usize,
    /// The query VASS's dimension before projection.
    pub dims_before: usize,
    /// The dimension actually searched (the cone size).
    pub dims_after: usize,
    /// Always zero: the query pre-solver that filled it is gone, and the
    /// field is kept only for the frozen benchmark driver (`perfbench/`).
    pub presolve: PresolveStats,
    /// Always zero: the cross-query Karp–Miller arena that filled it is
    /// gone, and the field is kept only because the frozen benchmark
    /// (`perfbench/`) reads it.
    pub km_reused: usize,
    /// Karp–Miller successors pruned by the query's antichain.
    pub km_subsumed: usize,
    /// Karp–Miller builds of this query (pruned or tier-3 exact) that hit
    /// [`VerifierConfig::km_node_cap`].
    pub km_capped: usize,
    /// Tier-3 exact Karp–Miller builds this query's lasso decision needed.
    pub lasso_fallbacks: usize,
}

/// The bottom-up store of completed task summaries the verifier threads
/// through the hierarchy: values are reference-counted so a scheduler can
/// publish a new snapshot per committed task (an `Arc` swap) without cloning
/// any summary, and every [`TaskVerifier`] holds its own snapshot handle.
pub type SummaryMap = BTreeMap<TaskId, Arc<TaskSummary>>;

/// Which of Lemma 21's non-returning path kinds were witnessed by a
/// non-returning [`RtEntry`] (`output: None`).
///
/// One entry can carry both: the same `(τ_in, β)` may admit a blocking run
/// *and* an infinite local run. Returning entries leave both flags `false`.
/// The flags ride along the tuple rather than splitting it, so the entry
/// count (and everything downstream of it — parent explorations, `R_T`
/// statistics) is unchanged by the classification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NonReturningWitness {
    /// A run blocks forever on a child that never returns (the blocking
    /// query of Lemma 21).
    pub blocking: bool,
    /// An infinite local run exists (the lasso query of Lemma 21).
    pub lasso: bool,
}

impl NonReturningWitness {
    /// Accumulates the kinds witnessed by another candidate for the same
    /// `(τ_in, τ_out, β)` tuple.
    pub fn merge(&mut self, other: NonReturningWitness) {
        self.blocking |= other.blocking;
        self.lasso |= other.lasso;
    }
}

/// The retained Lemma 21 query structure of one [`RtEntry`]: a rendered
/// realization of the entry's run, kept only when
/// [`VerifierConfig::witnesses`] is enabled so the no-witness hot path pays
/// no extra allocations.
///
/// The steps carry everything witness reconstruction needs to *descend*:
/// each [`WitnessStep::OpenChild`] records the child `R_T` tuple the run
/// chose (input key, output, β), which identifies the child entry — and
/// therefore the child's own retained details — in the committed summaries.
/// The details ride inside the entry through the parallel engine's
/// ordered-reduction buffers, so the reconstructed counterexample inherits
/// the determinism contract of DESIGN.md §5.6 unchanged (see §5.7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryDetails {
    /// Steps from the initial state to the distinguished point: the closing
    /// step (returning), the blocking state (blocking), or the pump cycle's
    /// entry node (lasso).
    pub prefix: Vec<WitnessStep>,
    /// The pump cycle of a lasso run (closed, componentwise non-negative
    /// counter effect); empty for the other kinds.
    pub cycle: Vec<WitnessStep>,
    /// A lasso whose pump cycle exceeded the materialization cap
    /// ([`WITNESS_CYCLE_CAP`]): the run is still a proven lasso, only the
    /// explicit cycle rendering is unavailable.
    pub cycle_truncated: bool,
}

/// Cap on the number of edge traversals a materialized pump cycle may take:
/// the circulation witness is scaled to integers and walked as an Eulerian
/// circuit, whose length is the scaled total flow — exact but potentially
/// large, so rendering degrades gracefully past this bound
/// (`EntryDetails::cycle_truncated`) while the lasso *decision* stays exact.
pub const WITNESS_CYCLE_CAP: usize = 4_096;

/// One tuple of the relation `R_T`: for runs with the given input
/// isomorphism type and truth assignment `β` over `Φ_T`, either a returning
/// run producing the recorded output state exists (`output = Some`), or an
/// infinite/blocking run exists (`output = None`, the paper's `τ_out = ⊥`,
/// with `witness` recording which of the two kinds were found).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RtEntry {
    /// Canonical key of the input isomorphism type (projection of the
    /// initial state onto the input variables).
    pub input_key: ProjectionKey,
    /// The symbolic state at the closing step for returning runs, `None` for
    /// non-returning (infinite or blocking) runs.
    pub output: Option<SymState>,
    /// Truth assignment over `Φ_T`.
    pub beta: Vec<bool>,
    /// For non-returning entries, the Lemma 21 path kinds witnessed.
    pub witness: NonReturningWitness,
    /// Retained run realization for witness reconstruction (`None` unless
    /// [`VerifierConfig::witnesses`] is enabled). Not part of the tuple's
    /// deduplication identity; shared by `Arc` so entry clones stay cheap.
    pub details: Option<Arc<EntryDetails>>,
}

impl RtEntry {
    /// Whether two candidates describe the same `R_T` tuple — the
    /// deduplication key of [`TaskVerifier::reduce_queries`], which merges
    /// the witnesses of equal tuples instead of keeping duplicates.
    fn same_tuple(&self, other: &RtEntry) -> bool {
        self.input_key == other.input_key
            && self.output == other.output
            && self.beta == other.beta
    }
}

/// The computed `R_T` of one task, for all assignments `β`.
#[derive(Clone, Debug, Default)]
pub struct TaskSummary {
    /// All entries.
    pub entries: Vec<RtEntry>,
}

impl TaskSummary {
    /// Returns `true` if some entry has a non-returning run with the given
    /// predicate on `β`.
    pub fn has_non_returning<F>(&self, mut pred: F) -> bool
    where
        F: FnMut(&RtEntry) -> bool,
    {
        self.entries
            .iter()
            .any(|e| e.output.is_none() && pred(e))
    }
}

/// Status of a child task within a segment of the parent's run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ChildStatus {
    /// Opened and not yet returned; `output` is the promised output state as
    /// a dense id into the exploration's symbolic-state arena (`None` = the
    /// chosen child run never returns).
    Active { output: Option<u32> },
    /// Returned within the current segment.
    Closed,
}

/// One flat transition of the product under construction: source control
/// state, sparse counter deltas as `(dim, amount)` pairs, target control
/// state.
type FlatTransition = (u32, Vec<(u32, i64)>, u32);

/// The part of a letter fixed by the symbolic state alone: the
/// word-packed truth values of the condition propositions, and the bits the
/// abstraction leaves undetermined (see [`TaskVerifier::valuation`]).
struct Valuation {
    bits: Box<[u64]>,
    unknown: Vec<usize>,
}

/// The memos of one [`TaskVerifier::build_graph`] call, each keyed on
/// exactly what its step reads (DESIGN.md §5.13). They live for one `(T, β)`
/// pair and are dropped when the build returns; the per-sym tables are
/// indexed by dense sym id and grow with the arena.
#[derive(Default)]
struct BuildMemo {
    /// The [`TaskVerifier::post_base`] of each sym id, as an id into
    /// `bases`.
    base_of: Vec<Option<u32>>,
    /// Distinct post-state bases (input-variable projections).
    bases: Interner<SymState>,
    /// Post-state id lists keyed on `(base id, internal service index)`.
    posts: FxHashMap<(u32, usize), Vec<u32>>,
    /// Misses and hits of `posts` ([`Stats::post_enumerations`],
    /// [`Stats::post_memo_hits`]).
    post_enumerations: usize,
    post_hits: usize,
    /// The condition valuation of each sym id.
    valuation_of: Vec<Option<Valuation>>,
    /// Letter lists of the steps without a child choice, keyed on
    /// `(sym id, service)`.
    letters: FxHashMap<(u32, ServiceRef), Vec<Box<[u64]>>>,
    /// The ways of opening a child, keyed on `(sym id, child)`.
    opens: FxHashMap<(u32, TaskId), OpenChild>,
    /// Returned-state ids keyed on `(sym, child, output)` ids.
    returns: FxHashMap<(u32, TaskId, u32), u32>,
}

/// The entry of a table indexed by dense sym id, growing the table to
/// cover `id`.
fn sym_slot<T>(table: &mut Vec<Option<T>>, id: u32) -> &mut Option<T> {
    let i = id as usize;
    if table.len() <= i {
        table.resize_with(i + 1, || None);
    }
    &mut table[i]
}

/// The counter dimensions of `V(T, β)`: one per TS-isomorphism type — the
/// projection of a symbolic state onto the task's input and artifact-tuple
/// variables (Definition 17) — numbered in first-encounter order.
struct CounterDims {
    /// The projected variables, sorted.
    vars: Vec<VarId>,
    /// Dimension per projection. Lookup-only (never iterated), so
    /// deterministic hashing suffices.
    index: FxHashMap<ProjectionKey, usize>,
    /// The dimension of each sym id, memoized (DESIGN.md §5.13).
    of_sym: Vec<Option<usize>>,
}

impl CounterDims {
    /// The dimension of `sym`, allocating the next one on first encounter
    /// of its projection. The memo leaves the allocation order unchanged:
    /// a state's projection is first looked up exactly when an unmemoized
    /// lookup would first have seen it.
    fn dim(&mut self, ctx: &TaskContext, syms: &Interner<SymState>, sym: u32) -> usize {
        let CounterDims { vars, index, of_sym } = self;
        *sym_slot(of_sym, sym).get_or_insert_with(|| {
            let key = syms.get(sym).project_vars(ctx, vars);
            let next = index.len();
            *index.entry(key).or_insert(next)
        })
    }
}

/// The opening steps of one child from one symbolic state: the child's
/// input projection key and, per matching summary entry, the choice it
/// offers.
struct OpenChild {
    key: ProjectionKey,
    choices: Vec<OpenChoice>,
}

/// One summary entry a child can be opened with.
struct OpenChoice {
    /// Index of the entry in the child's [`TaskSummary::entries`].
    entry: usize,
    /// The entry's output as a sym id (`None`: the child never returns).
    output: Option<u32>,
    /// The letters of the opening step under this entry's `β`.
    letters: Vec<Box<[u64]>>,
}

/// A control state of `V(T, β)`.
///
/// Symbolic states are held as dense ids into the exploration's
/// [`Interner`]-backed arena (equal states share an id, so id equality is
/// exactly the structural equality the former `SymState`-carrying
/// representation compared); children are a `Vec` kept sorted by [`TaskId`],
/// which preserves the iteration order and equality of the former
/// `BTreeMap` while making the whole control state a few words to clone and
/// hash.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CState {
    /// Dense id of the symbolic state in the exploration's arena.
    sym: u32,
    q: BuchiState,
    /// Child statuses, sorted by task id.
    children: Vec<(TaskId, ChildStatus)>,
    /// Set when the task's own closing service has been applied (terminal).
    closed: bool,
    /// Index of the initial input state this control state originated from
    /// (keeps runs originating from different inputs separate, as the paper
    /// does by fixing `τ_in` per query).
    input_index: usize,
}

impl CState {
    /// The status of a child, if it has been opened in this segment.
    fn child_status(&self, child: TaskId) -> Option<ChildStatus> {
        self.children
            .binary_search_by_key(&child, |&(c, _)| c)
            .ok()
            .map(|i| self.children[i].1)
    }

    /// The child list with `child` set to `status`, preserving the sort.
    fn with_child(&self, child: TaskId, status: ChildStatus) -> Vec<(TaskId, ChildStatus)> {
        let mut children = self.children.clone();
        match children.binary_search_by_key(&child, |&(c, _)| c) {
            Ok(i) => children[i].1 = status,
            Err(i) => children.insert(i, (child, status)),
        }
        children
    }
}

/// Explores one `(T, β)` pair and contributes entries to `R_T`.
pub struct TaskVerifier<'a> {
    system: &'a ArtifactSystem,
    config: &'a VerifierConfig,
    ctx: &'a TaskContext,
    task: TaskId,
    beta: Vec<bool>,
    buchi: &'a Buchi<TaskProp>,
    /// The automaton compiled to bitset masks over `props` — what the hot
    /// letter-stepping loops consult instead of `buchi`.
    cbuchi: CompiledBuchi,
    props: Vec<TaskProp>,
    /// Snapshot of the completed child summaries this exploration reads.
    /// Owned (not borrowed) so a scheduler job keeps the snapshot its graph
    /// was built against while the published summary map keeps moving for
    /// other tasks.
    children: Arc<SummaryMap>,
    /// Child contexts (needed to transfer input patterns).
    child_contexts: &'a BTreeMap<TaskId, TaskContext>,
    /// Guards proven unsatisfiable by the static analyzer; the corresponding
    /// transitions are skipped during graph construction (empty when
    /// projection is disabled — see [`crate::VerifierConfig::projection`]).
    dead: &'a DeadServiceMap,
}

impl<'a> TaskVerifier<'a> {
    /// Creates the explorer for one `(T, β)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        system: &'a ArtifactSystem,
        config: &'a VerifierConfig,
        ctx: &'a TaskContext,
        task: TaskId,
        beta: Vec<bool>,
        phi: &[Ltl<TaskProp>],
        buchi: &'a Buchi<TaskProp>,
        children: Arc<SummaryMap>,
        child_contexts: &'a BTreeMap<TaskId, TaskContext>,
        dead: &'a DeadServiceMap,
    ) -> Self {
        let mut props: Vec<TaskProp> = phi
            .iter()
            .flat_map(|f| f.propositions().into_iter())
            .collect();
        props.sort();
        props.dedup();
        let cbuchi = CompiledBuchi::new(buchi, &props);
        TaskVerifier {
            system,
            config,
            ctx,
            task,
            beta,
            buchi,
            cbuchi,
            props,
            children,
            child_contexts,
            dead,
        }
    }

    /// Whether the static analyzer proved the given internal service of this
    /// task unfireable (its pre- or post-condition is unsatisfiable).
    fn dead_internal(&self, service_idx: usize) -> bool {
        self.dead
            .get(&self.task)
            .is_some_and(|d| d.internal.get(service_idx).copied().unwrap_or(false))
    }

    fn schema(&self) -> &has_model::ArtifactSchema {
        &self.system.schema
    }

    fn no_arith(_: &has_arith::LinearConstraint<VarId>) -> Option<bool> {
        None
    }

    /// Three-valued satisfaction treating arithmetic atoms as undetermined;
    /// undetermined results are resolved optimistically (the verifier
    /// searches for violations, so "possibly satisfiable" transitions must be
    /// kept — see DESIGN.md §5 on the direction of this approximation).
    fn sat_optimistic(&self, state: &SymState, cond: &Condition) -> bool {
        state
            .satisfies(self.ctx, cond, &Self::no_arith)
            .unwrap_or(true)
    }

    // ------------------------------------------------------------------
    // Input-state enumeration
    // ------------------------------------------------------------------

    /// Enumerates the possible initial symbolic states of the task: every
    /// equality/binding pattern over the input variables (constrained by `Π`
    /// for the root task), with all other variables at their initial values.
    pub fn enumerate_inputs(&self) -> Vec<SymState> {
        let schema = self.schema();
        let t = schema.task(self.task);
        let constraint = if self.task == schema.root {
            self.system.precondition.clone()
        } else {
            Condition::True
        };
        let mut states = vec![SymState::blank(self.ctx, schema)];
        for &v in &t.input_vars {
            let mut next = Vec::new();
            for s in &states {
                match schema.variable(v).sort {
                    VarSort::Id => {
                        // null
                        next.push(s.clone());
                        // bound to each candidate relation, fresh
                        for &rel in self.ctx.bindings_for(v) {
                            let mut b = s.clone();
                            b.bind(self.ctx, v, Some(rel));
                            next.push(b);
                            // or equal to a previously assigned input variable
                            // with the same binding
                            for &w in &t.input_vars {
                                if w == v {
                                    break;
                                }
                                if s.binding_of(self.ctx, w) == Some(rel) {
                                    let mut e = s.clone();
                                    e.bind(self.ctx, v, Some(rel));
                                    if e
                                        .union(self.ctx, self.ctx.var_idx(v), self.ctx.var_idx(w))
                                        .is_ok()
                                    {
                                        next.push(e);
                                    }
                                }
                            }
                        }
                    }
                    VarSort::Numeric => {
                        // stays zero
                        next.push(s.clone());
                        // fresh value
                        let mut f = s.clone();
                        f.fresh_numeric(self.ctx, v);
                        next.push(f);
                        // equal to a constant of the universe
                        for (i, e) in self.ctx.exprs.iter().enumerate() {
                            if matches!(e, has_symbolic::Expr::Const(_)) {
                                let mut c = s.clone();
                                c.fresh_numeric(self.ctx, v);
                                if c.union(self.ctx, self.ctx.var_idx(v), i).is_ok() {
                                    next.push(c);
                                }
                            }
                        }
                        // equal to a previously assigned numeric input var
                        for &w in &t.input_vars {
                            if w == v {
                                break;
                            }
                            if schema.variable(w).sort == VarSort::Numeric {
                                let mut e = s.clone();
                                e.fresh_numeric(self.ctx, v);
                                if e
                                    .union(self.ctx, self.ctx.var_idx(v), self.ctx.var_idx(w))
                                    .is_ok()
                                {
                                    next.push(e);
                                }
                            }
                        }
                    }
                }
            }
            states = Self::dedup(next);
            if states.len() > self.config.max_successors {
                states.truncate(self.config.max_successors);
            }
        }
        states.retain(|s| self.sat_optimistic(s, &constraint));
        Self::dedup(states)
    }

    fn dedup(mut states: Vec<SymState>) -> Vec<SymState> {
        for s in &mut states {
            s.normalize();
        }
        states.sort();
        states.dedup();
        states
    }

    // ------------------------------------------------------------------
    // Successor enumeration for internal services
    // ------------------------------------------------------------------

    /// What an internal service keeps of its pre-state `state`: the blank
    /// state with the input variables' pattern adopted (restriction 1 of
    /// Section 6 — every other variable is rewritten). It is everything
    /// [`TaskVerifier::enumerate_post_states`] reads of the pre-state.
    fn post_base(&self, state: &SymState) -> SymState {
        let schema = self.schema();
        let mut base = SymState::blank(self.ctx, schema);
        base.adopt_vars(self.ctx, state, &schema.task(self.task).input_vars);
        base
    }

    /// Enumerates the possible post-states of an internal service from the
    /// [`TaskVerifier::post_base`] of its pre-state: input variables keep
    /// their pattern, every other variable is rewritten, constrained by the
    /// post-condition.
    fn enumerate_post_states(&self, base: SymState, post: &Condition) -> Vec<SymState> {
        let t = self.schema().task(self.task);
        let free_vars: Vec<VarId> = t
            .variables
            .iter()
            .copied()
            .filter(|v| !t.input_vars.contains(v))
            .collect();

        let mut states = vec![base];
        let mut remaining: std::collections::BTreeSet<VarId> = free_vars.iter().copied().collect();
        for &v in &free_vars {
            let mut next = Vec::new();
            for s in &states {
                next.extend(self.choices_for_var(s, v));
            }
            remaining.remove(&v);
            // Early pruning: drop states that already contradict the
            // post-condition on the atoms whose variables are all decided
            // (atoms touching variables not yet rewritten are left open).
            next.retain(|s| {
                s.satisfies_with_unknowns(self.ctx, post, &remaining, &Self::no_arith)
                    .unwrap_or(true)
            });
            states = Self::dedup(next);
            if states.len() > self.config.max_successors {
                states.truncate(self.config.max_successors);
            }
        }
        // Final filter plus the optional merge refinement over related pairs.
        let mut out = Vec::new();
        for s in states {
            for refined in self.merge_refinements(&s) {
                if self.sat_optimistic(&refined, post) {
                    out.push(refined);
                }
            }
        }
        let mut out = Self::dedup(out);
        if out.len() > self.config.max_successors {
            out.truncate(self.config.max_successors);
        }
        out
    }

    /// The candidate values of a single rewritten variable.
    fn choices_for_var(&self, state: &SymState, v: VarId) -> Vec<SymState> {
        let schema = self.schema();
        let mut out = Vec::new();
        match schema.variable(v).sort {
            VarSort::Id => {
                // null
                let mut n = state.clone();
                n.bind(self.ctx, v, None);
                out.push(n);
                for &rel in self.ctx.bindings_for(v) {
                    // fresh tuple of rel
                    let mut f = state.clone();
                    f.bind(self.ctx, v, Some(rel));
                    out.push(f.clone());
                    // or equal to an existing expression of sort Id(rel)
                    // related to v through the atom basis
                    for &cand in self.ctx.related_to(self.ctx.var_idx(v)) {
                        let mut e = f.clone();
                        if e.union(self.ctx, self.ctx.var_idx(v), cand).is_ok() {
                            out.push(e);
                        }
                    }
                }
            }
            VarSort::Numeric => {
                // zero
                let mut z = state.clone();
                z.fresh_numeric(self.ctx, v);
                let _ = z.union(self.ctx, self.ctx.var_idx(v), self.ctx.zero_idx);
                out.push(z);
                // fresh
                let mut f = state.clone();
                f.fresh_numeric(self.ctx, v);
                out.push(f.clone());
                // equal to a related expression (constants, navigations,
                // other numeric variables mentioned together in atoms)
                for &cand in self.ctx.related_to(self.ctx.var_idx(v)) {
                    let mut e = state.clone();
                    e.fresh_numeric(self.ctx, v);
                    if e.union(self.ctx, self.ctx.var_idx(v), cand).is_ok() {
                        out.push(e);
                    }
                }
            }
        }
        out
    }

    /// Optionally merges related expression pairs that are still distinct:
    /// this lets the enumeration produce "coincidental" equalities that the
    /// specification's atoms can observe (2^k branching over undecided
    /// related pairs, capped).
    fn merge_refinements(&self, state: &SymState) -> Vec<SymState> {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for i in 0..self.ctx.len() {
            for &j in self.ctx.related_to(i) {
                if i < j && state.is_live(i) && state.is_live(j) && !state.eq(i, j) {
                    pairs.push((i, j));
                }
            }
        }
        pairs.truncate(self.config.max_merge_pairs);
        let mut out = vec![state.clone()];
        for (i, j) in pairs {
            // Append the merged variants in place: `dedup` sorts, so the
            // interleaving of originals and merged states is immaterial.
            let unmerged = out.len();
            for k in 0..unmerged {
                let mut m = out[k].clone();
                if m.union(self.ctx, i, j).is_ok() {
                    out.push(m);
                }
            }
            out = Self::dedup(out);
            if out.len() > self.config.max_successors {
                out.truncate(self.config.max_successors);
                break;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Letters and Büchi stepping
    // ------------------------------------------------------------------

    /// The truth values of the condition propositions in `sym`, with the
    /// bits the abstraction leaves undetermined (arithmetic atoms when cell
    /// tracking is disabled) listed separately, truncated to
    /// [`VerifierConfig::max_unknown_props`]. The part of a letter that
    /// depends on the symbolic state alone.
    fn valuation(&self, sym: &SymState) -> Valuation {
        let mut bits = vec![0u64; self.cbuchi.words()].into_boxed_slice();
        let mut unknown: Vec<usize> = Vec::new();
        for (bit, p) in self.props.iter().enumerate() {
            let TaskProp::Condition(c) = p else { continue };
            match sym.satisfies(self.ctx, c, &Self::no_arith) {
                Some(true) => bits[bit / 64] |= 1u64 << (bit % 64),
                Some(false) => {}
                None => unknown.push(bit),
            }
        }
        unknown.truncate(self.config.max_unknown_props);
        Valuation { bits, unknown }
    }

    /// The truth assignments ("letters") compatible with observing `service`
    /// in a state with the given [`TaskVerifier::valuation`], branching over
    /// the propositions it leaves undetermined.
    ///
    /// A letter is a word-packed truth assignment over the canonical sorted
    /// proposition list `self.props` (bit `i` ⇔ `props[i]` holds; absent —
    /// i.e. truncated-unknown — propositions read as `false`, exactly as the
    /// former map representation defaulted missing entries). Letters are
    /// produced in enumeration-mask order with `unknown` bits assigned in
    /// proposition order, matching the former enumeration exactly.
    fn letters(
        &self,
        valuation: &Valuation,
        service: ServiceRef,
        child_choice: Option<(TaskId, &[bool])>,
    ) -> Vec<Box<[u64]>> {
        let mut base = valuation.bits.clone();
        for (bit, p) in self.props.iter().enumerate() {
            let value = match p {
                TaskProp::Condition(_) => false,
                TaskProp::Service(s) => *s == service,
                TaskProp::Child { child, phi_index } => match (child_choice, service) {
                    (Some((chosen, beta)), ServiceRef::Opening(opened))
                        if opened == *child && chosen == *child =>
                    {
                        beta.get(*phi_index).copied().unwrap_or(false)
                    }
                    _ => false,
                },
            };
            if value {
                base[bit / 64] |= 1u64 << (bit % 64);
            }
        }
        let unknown = &valuation.unknown;
        let mut letters = Vec::with_capacity(1 << unknown.len());
        for mask in 0..(1usize << unknown.len()) {
            let mut letter = base.clone();
            for (i, &bit) in unknown.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    letter[bit / 64] |= 1u64 << (bit % 64);
                }
            }
            letters.push(letter);
        }
        letters
    }

    fn step_buchi(&self, q: Option<BuchiState>, letter: &[u64]) -> Vec<BuchiState> {
        match q {
            None => self.cbuchi.initial_successors(letter),
            Some(q) => self.cbuchi.step(q, letter),
        }
    }

    // ------------------------------------------------------------------
    // Cross-task transfer
    // ------------------------------------------------------------------

    /// Builds the child's initial symbolic state induced by opening it from
    /// the parent state `sym` (the paper's `τ'_in = f_in^{-1}(τ_i)` of
    /// Definition 18), and returns its input projection key.
    fn child_input(&self, sym: &SymState, child: TaskId) -> (SymState, ProjectionKey) {
        let schema = self.schema();
        let child_ctx = &self.child_contexts[&child];
        let child_task = schema.task(child);
        let mut state = SymState::blank(child_ctx, schema);
        // (parent_var -> child_var) correspondence for the pattern transfer.
        let map: Vec<(VarId, VarId)> = child_task
            .opening
            .input_map
            .iter()
            .map(|(cv, pv)| (*pv, *cv))
            .collect();
        // Numeric mapped variables must leave the zero class before the
        // transfer so that only the parent's equalities constrain them.
        for (_, cv) in &map {
            if schema.variable(*cv).sort == VarSort::Numeric {
                state.fresh_numeric(child_ctx, *cv);
            }
        }
        transfer_pattern(self.ctx, sym, child_ctx, &mut state, &map);
        let key = state.project_vars(child_ctx, &child_task.input_vars);
        (state, key)
    }

    /// Applies a child's return to the parent state (Definition 8's closing
    /// transition): numeric returned variables are overwritten, ID returned
    /// variables only if currently `null`; their new pattern follows the
    /// child's output state, including its relationships to the variables
    /// that were passed down on opening and to their navigations.
    fn apply_return(&self, sym: &SymState, child: TaskId, output: &SymState) -> SymState {
        let schema = self.schema();
        let child_ctx = &self.child_contexts[&child];
        let child_task = schema.task(child);
        let mut next = sym.clone();
        // Child variables visible to the parent after the return: the
        // overwritten returned variables plus the original inputs (whose
        // parent-side values are unchanged but whose pattern anchors the
        // returned values).
        let mut map: Vec<(VarId, VarId)> = Vec::new(); // (child_var, parent_var)
        for (pv, cv) in &child_task.closing.output_map {
            let overwrite = match schema.variable(*pv).sort {
                VarSort::Numeric => true,
                VarSort::Id => sym.is_null(self.ctx, *pv),
            };
            if overwrite {
                map.push((*cv, *pv));
            }
        }
        let written: Vec<VarId> = map.iter().map(|(_, pv)| *pv).collect();
        for (cv, pv) in &child_task.opening.input_map {
            map.push((*cv, *pv));
        }
        // Re-initialize the written numeric parent variables so the transfer
        // determines their pattern from scratch.
        for pv in &written {
            if schema.variable(*pv).sort == VarSort::Numeric {
                next.fresh_numeric(self.ctx, *pv);
            }
        }
        // The transfer re-binds the written parent variables; the input
        // parent variables keep their classes because transfer only *adds*
        // equalities among live expressions... except that `transfer_pattern`
        // rebinds every mapped destination variable, which would disturb the
        // parent's own pattern for the passed (input) variables. To avoid
        // that, the transfer is restricted to the written variables, and the
        // input variables participate only as sources of equalities checked
        // directly below.
        let written_map: Vec<(VarId, VarId)> = map
            .iter()
            .filter(|(_, pv)| written.contains(pv))
            .map(|(cv, pv)| (*cv, *pv))
            .collect();
        transfer_pattern(child_ctx, output, self.ctx, &mut next, &written_map);
        // Equalities between written parent variables (and their navigations)
        // and the *passed* parent variables (and theirs), as dictated by the
        // child's output pattern.
        let corresponding = |cv: VarId, pv: VarId| -> Vec<(usize, usize)> {
            // (child expr, parent expr) pairs anchored at (cv, pv).
            self.ctx
                .exprs
                .iter()
                .enumerate()
                .filter_map(|(pi, pe)| {
                    let ce = match pe {
                        has_symbolic::Expr::Var(v) if *v == pv => has_symbolic::Expr::Var(cv),
                        has_symbolic::Expr::Nav { var, rel, path } if *var == pv => {
                            has_symbolic::Expr::Nav {
                                var: cv,
                                rel: *rel,
                                path: path.clone(),
                            }
                        }
                        _ => return None,
                    };
                    child_ctx.index_of(&ce).map(|ci| (ci, pi))
                })
                .collect()
        };
        for (cv_w, pv_w) in &written_map {
            for (cv_in, pv_in) in &child_task.opening.input_map {
                for (cw, pw) in corresponding(*cv_w, *pv_w) {
                    for (ci, pi) in corresponding(*cv_in, *pv_in) {
                        if output.is_live(cw)
                            && output.is_live(ci)
                            && output.eq(cw, ci)
                            && next.is_live(pw)
                            && next.is_live(pi)
                            && !next.eq(pw, pi)
                        {
                            let _ = next.union(self.ctx, pw, pi);
                        }
                    }
                }
            }
        }
        next.normalize();
        next
    }

    /// Projects a closing state onto the given variables (the paper's
    /// `τ_out = τ|（x̄_in ∪ x̄_ret)`): a fresh state carrying only the
    /// equality/binding pattern of those variables.
    fn project_output(&self, state: &SymState, vars: &[VarId]) -> SymState {
        let schema = self.schema();
        let mut out = SymState::blank(self.ctx, schema);
        for &v in vars {
            if schema.variable(v).sort == VarSort::Numeric {
                out.fresh_numeric(self.ctx, v);
            }
        }
        let map: Vec<(VarId, VarId)> = vars.iter().map(|v| (*v, *v)).collect();
        transfer_pattern(self.ctx, state, self.ctx, &mut out, &map);
        out
    }

    // ------------------------------------------------------------------
    // Build-layer memos (DESIGN.md §5.13)
    // ------------------------------------------------------------------

    /// The post-state ids of internal service `service_idx` from symbolic
    /// state `sym`, memoized on `(post_base(sym), service_idx)` — exactly
    /// what [`TaskVerifier::enumerate_post_states`] reads. A miss enumerates
    /// and interns the list, as an unmemoized build would at this point; a
    /// hit returns the ids re-interning the same list would return.
    fn post_states(
        &self,
        memo: &mut BuildMemo,
        syms: &mut Interner<SymState>,
        sym: u32,
        service_idx: usize,
    ) -> Vec<u32> {
        let base = *sym_slot(&mut memo.base_of, sym)
            .get_or_insert_with(|| memo.bases.intern(self.post_base(syms.get(sym))).0);
        if let Some(ids) = memo.posts.get(&(base, service_idx)) {
            memo.post_hits += 1;
            return ids.clone();
        }
        memo.post_enumerations += 1;
        let service = &self.schema().task(self.task).internal_services[service_idx];
        let list = self.enumerate_post_states(memo.bases.get(base).clone(), &service.post);
        let ids: Vec<u32> = list.into_iter().map(|s| syms.intern(s).0).collect();
        memo.posts.insert((base, service_idx), ids.clone());
        ids
    }

    /// The [`TaskVerifier::valuation`] of `sym`, memoized per sym id.
    fn valuation_of<'m>(
        &self,
        table: &'m mut Vec<Option<Valuation>>,
        syms: &Interner<SymState>,
        sym: u32,
    ) -> &'m Valuation {
        sym_slot(table, sym).get_or_insert_with(|| self.valuation(syms.get(sym)))
    }

    /// The letters of observing `service` in `sym` (a step without a child
    /// choice), memoized on `(sym, service)`.
    fn letters_of<'m>(
        &self,
        memo: &'m mut BuildMemo,
        syms: &Interner<SymState>,
        sym: u32,
        service: ServiceRef,
    ) -> &'m [Box<[u64]>] {
        let BuildMemo { letters, valuation_of, .. } = memo;
        letters.entry((sym, service)).or_insert_with(|| {
            self.letters(self.valuation_of(valuation_of, syms, sym), service, None)
        })
    }

    /// The ways of opening `child` from `sym`, memoized on `(sym, child)`:
    /// the child's input key ([`TaskVerifier::child_input`]), the summary
    /// entries matching it with their outputs interned in entry order, and
    /// each entry's opening letters.
    fn open_child<'m>(
        &self,
        memo: &'m mut BuildMemo,
        syms: &mut Interner<SymState>,
        sym: u32,
        child: TaskId,
    ) -> &'m OpenChild {
        let BuildMemo { opens, valuation_of, .. } = memo;
        opens.entry((sym, child)).or_insert_with(|| {
            let (_, key) = self.child_input(syms.get(sym), child);
            let sref = ServiceRef::Opening(child);
            let mut choices = Vec::new();
            for (entry, e) in self.children[&child].entries.iter().enumerate() {
                if e.input_key != key {
                    continue;
                }
                let output = e.output.as_ref().map(|s| syms.intern(s.clone()).0);
                let valuation = self.valuation_of(valuation_of, syms, sym);
                let letters = self.letters(valuation, sref, Some((child, &e.beta)));
                choices.push(OpenChoice { entry, output, letters });
            }
            OpenChild { key, choices }
        })
    }

    /// The id of [`TaskVerifier::apply_return`]`(sym, child, output)`,
    /// memoized on the id triple.
    fn returned(
        &self,
        memo: &mut BuildMemo,
        syms: &mut Interner<SymState>,
        sym: u32,
        child: TaskId,
        output: u32,
    ) -> u32 {
        if let Some(&id) = memo.returns.get(&(sym, child, output)) {
            return id;
        }
        let next = self.apply_return(syms.get(sym), child, syms.get(output));
        let id = syms.intern(next).0;
        memo.returns.insert((sym, child, output), id);
        id
    }

    // ------------------------------------------------------------------
    // Main exploration
    // ------------------------------------------------------------------

    /// Builds the control-state graph and VASS of `V(T, β)` — the forward
    /// exploration of one pair; the Lemma 21 queries over the result are
    /// issued per initial state through [`TaskVerifier::init_queries_shared`].
    pub fn build_graph(&self) -> ExploredGraph {
        let schema = self.schema();
        let t = schema.task(self.task);
        let mut stats = Stats {
            task_assignments: 1,
            buchi_states: self.buchi.state_count(),
            ..Stats::default()
        };

        let inputs = self.enumerate_inputs();
        // Dense arenas: symbolic states and control states are interned once
        // into insertion-ordered ids ([`Interner`]); all hot-loop identity
        // checks compare ids. Ids are assigned in worklist discovery order —
        // the same order the former `BTreeMap<CState, usize>` assigned them —
        // which is the canonical order of DESIGN.md §5.6/§5.8.
        let mut syms: Interner<SymState> = Interner::new();
        let mut cstates: Interner<CState> = Interner::new();
        let mut counter_dims = CounterDims {
            vars: {
                let mut v: Vec<VarId> = t.input_vars.clone();
                if let Some(ar) = &t.artifact_relation {
                    v.extend(ar.tuple.iter().copied());
                }
                v.sort();
                v.dedup();
                v
            },
            index: FxHashMap::default(),
            of_sym: Vec::new(),
        };
        // Transitions: (from, delta as sparse (dim, amount) pairs, to). A
        // service contributes at most one insert and one retrieve, so a flat
        // two-entry vector replaces the former per-transition `BTreeMap`.
        let mut transitions: Vec<FlatTransition> = Vec::new();
        let mut initial_states: Vec<usize> = Vec::new();
        let mut input_keys: Vec<ProjectionKey> = Vec::new();
        // Witness retention: one rendered step label per transition (and per
        // VASS action, since actions are created in transition order). Gated
        // so the no-witness hot path allocates nothing here.
        let retain = self.config.witnesses;
        let mut labels: Vec<WitnessStep> = Vec::new();

        // Accumulates a counter bump into the sparse delta.
        let bump = |delta: &mut Vec<(u32, i64)>, dim: usize, amount: i64| {
            let dim = dim as u32;
            match delta.iter_mut().find(|(d, _)| *d == dim) {
                Some((_, a)) => *a += amount,
                None => delta.push((dim, amount)),
            }
        };

        // The step memos (DESIGN.md §5.13), dropped when the build returns.
        let mut memo = BuildMemo::default();

        // Initial states: step the Büchi automaton on the opening letter.
        for (input_index, input) in inputs.iter().enumerate() {
            input_keys.push(input.project_vars(self.ctx, &t.input_vars));
            let sym_id = syms.intern(input.clone()).0;
            let letters = self.letters_of(&mut memo, &syms, sym_id, ServiceRef::Opening(self.task));
            for letter in letters {
                for q in self.step_buchi(None, letter) {
                    let c = CState {
                        sym: sym_id,
                        q,
                        children: Vec::new(),
                        closed: false,
                        input_index,
                    };
                    let (id, newly) = cstates.intern(c);
                    if newly {
                        initial_states.push(id as usize);
                    }
                }
            }
        }

        // Forward exploration of the control-state graph (counter validity is
        // decided later by the coverability queries). A state enters the
        // worklist exactly when it is newly interned (every enqueued state
        // is interned at creation, so "newly interned" ⇔ the former
        // `seen_in_worklist` insert succeeding); terminal `closed` states
        // are interned but never enqueued.
        let mut worklist: VecDeque<u32> = initial_states.iter().map(|&i| i as u32).collect();

        while let Some(id) = worklist.pop_front() {
            if cstates.len() > self.config.max_control_states {
                break;
            }
            let current = cstates.get(id).clone();
            if current.closed {
                continue;
            }
            let has_active_children = current
                .children
                .iter()
                .any(|(_, c)| matches!(c, ChildStatus::Active { .. }));

            // --- Internal services -------------------------------------
            if !has_active_children {
                for (service_idx, service) in t.internal_services.iter().enumerate() {
                    if self.dead_internal(service_idx)
                        || !self.sat_optimistic(syms.get(current.sym), &service.pre)
                    {
                        continue;
                    }
                    let posts = self.post_states(&mut memo, &mut syms, current.sym, service_idx);
                    // Counter update (Definition 17's a̅ vector). The insert
                    // dimension depends on the pre-state only; it is looked
                    // up before the first post-state's retrieve, which keeps the
                    // first-encounter numbering of the dimensions.
                    let counted = t.artifact_relation.is_some();
                    let insert_dim = (counted && service.delta.inserts() && !posts.is_empty())
                        .then(|| counter_dims.dim(self.ctx, &syms, current.sym));
                    let sref = ServiceRef::Internal(self.task, service_idx);
                    for post_id in posts {
                        let mut delta: Vec<(u32, i64)> = Vec::new();
                        if let Some(dim) = insert_dim {
                            bump(&mut delta, dim, 1);
                        }
                        if counted && service.delta.retrieves() {
                            let dim = counter_dims.dim(self.ctx, &syms, post_id);
                            bump(&mut delta, dim, -1);
                        }
                        for letter in self.letters_of(&mut memo, &syms, post_id, sref) {
                            for q in self.step_buchi(Some(current.q), letter) {
                                let next = CState {
                                    sym: post_id,
                                    q,
                                    children: Vec::new(),
                                    closed: false,
                                    input_index: current.input_index,
                                };
                                let (nid, newly) = cstates.intern(next);
                                transitions.push((id, delta.clone(), nid));
                                if retain {
                                    labels.push(WitnessStep::Internal {
                                        service: service.name.clone(),
                                    });
                                }
                                if newly {
                                    worklist.push_back(nid);
                                }
                            }
                        }
                    }
                }
            }

            // --- Opening a child ----------------------------------------
            for &child in &t.children {
                if current.child_status(child).is_some() {
                    continue;
                }
                if self.dead.get(&child).is_some_and(|d| d.opening) {
                    continue;
                }
                let opening_pre = &schema.task(child).opening.pre;
                if !self.sat_optimistic(syms.get(current.sym), opening_pre) {
                    continue;
                }
                let summary = &self.children[&child];
                let open = self.open_child(&mut memo, &mut syms, current.sym, child);
                for choice in &open.choices {
                    let entry = &summary.entries[choice.entry];
                    for letter in &choice.letters {
                        for q in self.step_buchi(Some(current.q), letter) {
                            let next = CState {
                                sym: current.sym,
                                q,
                                children: current.with_child(
                                    child,
                                    ChildStatus::Active { output: choice.output },
                                ),
                                closed: false,
                                input_index: current.input_index,
                            };
                            let (nid, newly) = cstates.intern(next);
                            transitions.push((id, Vec::new(), nid));
                            if retain {
                                labels.push(WitnessStep::OpenChild {
                                    child,
                                    child_name: schema.task(child).name.clone(),
                                    beta: entry.beta.clone(),
                                    input_key: open.key.clone(),
                                    output: entry.output.clone(),
                                });
                            }
                            if newly {
                                worklist.push_back(nid);
                            }
                        }
                    }
                }
            }

            // --- Closing a child ----------------------------------------
            for &(child, status) in &current.children {
                let ChildStatus::Active { output: Some(out) } = status else {
                    continue;
                };
                let new_sym_id = self.returned(&mut memo, &mut syms, current.sym, child, out);
                let sref = ServiceRef::Closing(child);
                for letter in self.letters_of(&mut memo, &syms, new_sym_id, sref) {
                    for q in self.step_buchi(Some(current.q), letter) {
                        let next = CState {
                            sym: new_sym_id,
                            q,
                            children: current.with_child(child, ChildStatus::Closed),
                            closed: false,
                            input_index: current.input_index,
                        };
                        let (nid, newly) = cstates.intern(next);
                        transitions.push((id, Vec::new(), nid));
                        if retain {
                            labels.push(WitnessStep::CloseChild {
                                child,
                                child_name: schema.task(child).name.clone(),
                            });
                        }
                        if newly {
                            worklist.push_back(nid);
                        }
                    }
                }
            }

            // --- Closing the task itself --------------------------------
            if self.task != schema.root
                && !has_active_children
                && !self.dead.get(&self.task).is_some_and(|d| d.closing)
                && self.sat_optimistic(syms.get(current.sym), &t.closing.pre)
            {
                let sref = ServiceRef::Closing(self.task);
                for letter in self.letters_of(&mut memo, &syms, current.sym, sref) {
                    for q in self.step_buchi(Some(current.q), letter) {
                        let next = CState {
                            sym: current.sym,
                            q,
                            children: current.children.clone(),
                            closed: true,
                            input_index: current.input_index,
                        };
                        let (nid, _) = cstates.intern(next);
                        transitions.push((id, Vec::new(), nid));
                        if retain {
                            labels.push(WitnessStep::CloseTask);
                        }
                        // Closed states have no successors; no need to enqueue.
                    }
                }
            }
        }

        let states = cstates.into_items();
        let syms = syms.into_items();
        stats.control_states = states.len();
        stats.transitions = transitions.len();
        stats.counter_dimensions = counter_dims.index.len();
        stats.post_enumerations = memo.post_enumerations;
        stats.post_memo_hits = memo.post_hits;

        // ----------------------------------------------------------------
        // Build the VASS and answer the Lemma 21 queries per initial state.
        // ----------------------------------------------------------------
        let dim = counter_dims.index.len();
        let mut vass = Vass::new(states.len(), dim);
        for (from, delta, to) in &transitions {
            let mut d = vec![0i64; dim];
            for &(k, v) in delta {
                d[k as usize] = v;
            }
            vass.add_action(*from as usize, d, *to as usize);
        }

        let mut accepting = BitSet::new(states.len());
        for (i, s) in states.iter().enumerate() {
            if !s.closed && self.cbuchi.is_accepting(s.q) {
                accepting.insert(i);
            }
        }

        // The variables a parent can observe in a returning run's output
        // (the paper's τ_out projection target).
        let out_vars: Vec<VarId> = {
            let mut v = t.input_vars.clone();
            v.extend(schema.task(self.task).return_vars());
            v.sort();
            v.dedup();
            v
        };

        ExploredGraph {
            states,
            syms,
            vass,
            initial_states,
            input_keys,
            accepting,
            out_vars,
            stats,
            labels,
        }
    }

    /// Builds the shared query state of one `(T, β)` pair (DESIGN.md
    /// §5.12): the pair-level VASS every `τ_in` query runs on — with
    /// [`crate::VerifierConfig::projection`] on, projected onto the *union*
    /// dimension cone over all of the pair's initial states
    /// ([`has_analysis::dimension_cone_multi`]), so one projection serves
    /// every query — and the per-control-state [`KmScratch`] those
    /// queries' Karp–Miller builds reuse.
    pub fn prepare_shared(&self, graph: &ExploredGraph) -> PairShared {
        let (vass, dims_after) = if self.config.projection {
            let cone = dimension_cone_multi(&graph.vass, &graph.initial_states);
            (
                (!cone.is_trivial()).then(|| cone.project(&graph.vass)),
                cone.dims_after(),
            )
        } else {
            (None, graph.vass.dim)
        };
        let scratch = KmScratch::new(vass.as_ref().unwrap_or(&graph.vass).states);
        PairShared {
            vass,
            dims_after,
            scratch,
        }
    }

    /// Answers the three Lemma 21 queries (returning, blocking, lasso) for
    /// the `pos`-th initial state of a built graph with one
    /// subsumption-pruned Karp–Miller build
    /// ([`CoverabilityGraph::build_pruned`]). Returns the candidate `R_T`
    /// entries **in deterministic push order** (returning entries in node
    /// order, then the blocking entry, then the lasso entry) with the
    /// query's cost. The answer depends only on `pos` — the [`PairShared`]
    /// scratch carries no state between queries — and callers deduplicate
    /// through [`TaskVerifier::reduce_queries`] in initial-state order.
    ///
    /// The returning and blocking scans run over the build's node order
    /// (every node's control state is genuinely coverable — arrival
    /// pruning only skips markings covered by an existing one, and
    /// saturation preserves the coverable state *set*, so the candidate
    /// entry set matches the exact build's). The lasso decision is tiered:
    /// a non-negative cycle over *real* edges is sound evidence; failing
    /// that, no cycle over the jump-augmented edge relation refutes the
    /// lasso outright; in the remaining gap — a cycle that exists only
    /// through unjustified jump targets — one exact [`CoverabilityGraph`]
    /// build (counted into `km_nodes` and `lasso_fallbacks`) decides
    /// exactly.
    pub fn init_queries_shared(
        &self,
        graph: &ExploredGraph,
        pos: usize,
        shared: &mut PairShared,
    ) -> (Vec<RtEntry>, QueryCost) {
        let init = graph.initial_states[pos];
        let states = &graph.states;
        let input_key = graph.input_keys[states[init].input_index].clone();
        let mut cost = QueryCost {
            dims_before: graph.vass.dim,
            dims_after: shared.dims_after,
            ..QueryCost::default()
        };
        let vass = shared.vass.as_ref().unwrap_or(&graph.vass);
        let mut candidates: Vec<RtEntry> = Vec::new();
        let finite_ok = |s: &CState| self.cbuchi.is_finite_accepting(s.q);
        let run = CoverabilityGraph::build_pruned(
            vass,
            init,
            self.config.km_node_cap,
            &mut shared.scratch,
        );

        let retain = self.config.witnesses;
        let steps_to = |node: usize| -> Vec<WitnessStep> {
            run.path_to_node(node)
                .into_iter()
                .map(|action| graph.labels[action].clone())
                .collect()
        };
        let point_details = |node: usize| -> Option<Arc<EntryDetails>> {
            retain.then(|| {
                Arc::new(EntryDetails {
                    prefix: steps_to(node),
                    cycle: Vec::new(),
                    cycle_truncated: false,
                })
            })
        };

        // Returning paths, over the node order.
        for (node, cs) in run.nodes().map(|n| &states[n.state]).enumerate() {
            if cs.closed && finite_ok(cs) {
                let projected =
                    self.project_output(&graph.syms[cs.sym as usize], &graph.out_vars);
                candidates.push(RtEntry {
                    input_key: input_key.clone(),
                    output: Some(projected),
                    beta: self.beta.clone(),
                    witness: NonReturningWitness::default(),
                    details: point_details(node),
                });
            }
        }
        // Blocking paths.
        for (node, cs) in run.nodes().map(|n| &states[n.state]).enumerate() {
            let blocking_child = cs
                .children
                .iter()
                .any(|(_, c)| matches!(c, ChildStatus::Active { output: None }));
            if !cs.closed && blocking_child && finite_ok(cs) {
                candidates.push(RtEntry {
                    input_key: input_key.clone(),
                    output: None,
                    beta: self.beta.clone(),
                    witness: NonReturningWitness {
                        blocking: true,
                        lasso: false,
                    },
                    details: point_details(node),
                });
                break;
            }
        }
        // Lasso paths — the tiered decision described above.
        if graph.accepting.any() {
            let accepting = |s: usize| graph.accepting.contains(s);
            let (mut lasso, mut details) = if retain {
                graph.lasso_details(
                    run.nonneg_cycle_search_through_pred(vass, &accepting, WITNESS_CYCLE_CAP),
                    steps_to,
                )
            } else {
                (run.nonneg_cycle_through_pred(vass, &accepting), None)
            };
            if !lasso && run.augmented_nonneg_cycle_through_pred(vass, &accepting) {
                // Ambiguous: a cycle exists only through jump edges, whose
                // targets over-approximate. One exact build decides; it is
                // charged to this query's cost.
                let cover = CoverabilityGraph::build_capped(vass, init, self.config.km_node_cap);
                cost.km_nodes += cover.node_count();
                cost.lasso_fallbacks += 1;
                cost.km_capped += usize::from(cover.capped());
                let fallback_steps = |node: usize| -> Vec<WitnessStep> {
                    cover
                        .path_to_node(node)
                        .into_iter()
                        .map(|action| graph.labels[action].clone())
                        .collect()
                };
                let (l, d) = if retain {
                    graph.lasso_details(
                        cover.nonneg_cycle_search_through_pred(vass, &accepting, WITNESS_CYCLE_CAP),
                        fallback_steps,
                    )
                } else {
                    (cover.nonneg_cycle_through_pred(vass, &accepting), None)
                };
                lasso = l;
                details = d;
            }
            if lasso {
                candidates.push(RtEntry {
                    input_key,
                    output: None,
                    beta: self.beta.clone(),
                    witness: NonReturningWitness {
                        blocking: false,
                        lasso: true,
                    },
                    details,
                });
            }
        }
        cost.km_nodes += run.node_count();
        cost.km_subsumed = run.subsumed();
        cost.km_capped += usize::from(run.capped());
        (candidates, cost)
    }

    /// Combines per-initial-state query results — which **must** be supplied
    /// in initial-state order — into the `(T, β)` pair's final entry list and
    /// statistics, deduplicating candidates: candidates for the same
    /// `(τ_in, τ_out, β)` tuple collapse into one entry whose
    /// [`NonReturningWitness`] accumulates every path kind witnessed for it.
    ///
    /// Retained details follow the kind the verifier will *report* for the
    /// entry (lasso is preferred over blocking when both are witnessed): the
    /// first lasso candidate's details win over a blocking candidate's;
    /// otherwise the first candidate in canonical order keeps its details.
    /// Because this reduction always runs over the canonical candidate
    /// order, the surviving details — and hence the reconstructed
    /// counterexample — are identical at every thread count.
    pub fn reduce_queries(
        graph: &ExploredGraph,
        per_init: impl IntoIterator<Item = (Vec<RtEntry>, QueryCost)>,
    ) -> (Vec<RtEntry>, Stats) {
        let mut stats = graph.stats.clone();
        let mut entries: Vec<RtEntry> = Vec::new();
        for (candidates, cost) in per_init {
            stats.coverability_nodes += cost.km_nodes;
            stats.counter_dims_before += cost.dims_before;
            stats.counter_dims_after += cost.dims_after;
            stats.km_subsumed += cost.km_subsumed;
            stats.km_capped += cost.km_capped;
            stats.lasso_fallbacks += cost.lasso_fallbacks;
            for e in candidates {
                match entries.iter_mut().find(|kept| kept.same_tuple(&e)) {
                    Some(kept) => {
                        let had_lasso = kept.witness.lasso;
                        kept.witness.merge(e.witness);
                        if (!had_lasso && e.witness.lasso) || kept.details.is_none() {
                            kept.details = e.details;
                        }
                    }
                    None => entries.push(e),
                }
            }
        }
        stats.rt_entries = entries.len();
        (entries, stats)
    }
}

/// The immutable artifacts of one `(T, β)` forward exploration: the control
/// states and VASS of `V(T, β)`, its initial states with their input
/// projection keys, the accepting set, and the statistics accumulated while
/// building them (`coverability_nodes` and `rt_entries` are contributed later
/// by the query phase).
///
/// Produced by [`TaskVerifier::build_graph`] and read by the pair's
/// [`TaskVerifier::init_queries_shared`] calls.
pub struct ExploredGraph {
    states: Vec<CState>,
    /// Arena of distinct symbolic states, indexed by the dense ids held in
    /// [`CState::sym`] and [`ChildStatus::Active`].
    syms: Vec<SymState>,
    vass: Vass,
    initial_states: Vec<usize>,
    input_keys: Vec<ProjectionKey>,
    accepting: BitSet,
    out_vars: Vec<VarId>,
    stats: Stats,
    /// One rendered step per transition/VASS action, in creation order —
    /// empty unless [`VerifierConfig::witnesses`] retained them.
    labels: Vec<WitnessStep>,
}

impl ExploredGraph {
    /// Number of initial states — one [`TaskVerifier::init_queries_shared`]
    /// call per position `0..initial_count()`.
    pub fn initial_count(&self) -> usize {
        self.initial_states.len()
    }

    /// The lasso decision and retained details of a pump-cycle search:
    /// `steps_to` renders the Karp–Miller path to the walk's start node as
    /// the prefix, the walk's actions label the cycle, and a walk past the
    /// materialization cap truncates the rendering only, never the decision.
    fn lasso_details(
        &self,
        search: CycleSearch<(usize, usize, usize)>,
        steps_to: impl Fn(usize) -> Vec<WitnessStep>,
    ) -> (bool, Option<Arc<EntryDetails>>) {
        match search {
            CycleSearch::None => (false, None),
            CycleSearch::Witness(walk) => (
                true,
                Some(Arc::new(EntryDetails {
                    prefix: steps_to(walk[0].0),
                    cycle: walk
                        .iter()
                        .map(|&(_, action, _)| self.labels[action].clone())
                        .collect(),
                    cycle_truncated: false,
                })),
            ),
            CycleSearch::ExceedsCap => (
                true,
                Some(Arc::new(EntryDetails {
                    prefix: Vec::new(),
                    cycle: Vec::new(),
                    cycle_truncated: true,
                })),
            ),
        }
    }
}

/// The shared query state of one `(T, β)` pair (DESIGN.md §5.12), produced by
/// [`TaskVerifier::prepare_shared`] and threaded mutably through the
/// pair's [`TaskVerifier::init_queries_shared`] calls.
pub struct PairShared {
    /// The union-cone-projected pair VASS (`None` when projection is off
    /// or the cone is trivial: queries run on the unprojected
    /// [`ExploredGraph::vass`] directly).
    vass: Option<Vass>,
    /// The union cone's dimension count (the `dims_after` every query of
    /// the pair reports).
    dims_after: usize,
    /// Per-control-state Karp–Miller scratch (ancestor index, antichains),
    /// allocated once per pair and stamped per query.
    scratch: KmScratch,
}
