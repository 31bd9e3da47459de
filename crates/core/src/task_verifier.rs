//! Per-task symbolic exploration: construction of the VASS `V(T, β)` and
//! computation of the relation `R_T` (Section 4.2, Lemma 21).

use crate::compiled::{CompiledBuchi, Letter};
use crate::outcome::Stats;
use crate::verifier::VerifierConfig;
use has_analysis::{dimension_cone_multi, DeadServiceMap, PresolveStats};
use has_ltl::buchi::{Buchi, BuchiState};
use has_ltl::hltl::TaskProp;
use has_ltl::Ltl;
use has_model::{ArtifactSystem, Condition, ServiceRef, TaskId, VarId, VarSort};
use has_symbolic::successor;
use has_symbolic::{transfer_pattern, Correspondence, ProjectionKey, SymState, TaskContext};
use has_vass::{
    BitSet, CoverabilityGraph, CycleSearch, FxBuildHasher, FxHashMap, Interner, KmScratch,
    SparseActions, Vass,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// The cost measures of one `(T, β, τ_in)` Lemma 21 query, accumulated into
/// [`Stats`] by [`TaskVerifier::reduce_queries`]: Karp–Miller nodes explored
/// and the query's counter dimension before/after cone-of-influence
/// projection (equal when the cone is full).
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
/// through the hierarchy: values are reference-counted so committing a task
/// never clones a summary, and every [`TaskVerifier`] holds a handle on the
/// map it was built against.
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

/// One transition of `V(T, β)`, recorded by index as
/// [`TaskVerifier::build_graph`] creates it. Rendering it into a
/// [`crate::WitnessStep`] needs the schema and the committed child
/// summaries, which `Verifier::reconstruct` reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStep {
    /// The task's internal service with this index fired.
    Internal(usize),
    /// A child was opened with the `R_T` tuple at index `entry` of its
    /// committed [`TaskSummary::entries`]. Entries are unique per
    /// `(τ_in, τ_out, β)`, so the index names the tuple.
    OpenChild {
        /// The opened child task.
        child: TaskId,
        /// Index of the consumed tuple in the child's entries.
        entry: usize,
    },
    /// A previously opened child returned.
    CloseChild(TaskId),
    /// The task applied its own closing service.
    CloseTask,
}

/// The retained Lemma 21 query structure of one [`RtEntry`]: the run steps
/// that realize the entry's run, kept only when
/// [`VerifierConfig::witnesses`] is enabled.
///
/// Each [`RunStep::OpenChild`] indexes the child entry the run consumed —
/// and therefore the child's own retained details — in the committed
/// summaries, which is all witness reconstruction needs to *descend*.
/// The details ride inside the entry through the ordered reduction and
/// commit, so the reconstructed counterexample inherits the determinism
/// contract of DESIGN.md §5.6 unchanged (see §5.7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryDetails {
    /// Steps from the initial state to the distinguished point: the closing
    /// step (returning), the blocking state (blocking), or the pump cycle's
    /// entry node (lasso).
    pub prefix: Vec<RunStep>,
    /// The pump cycle of a lasso run (closed, componentwise non-negative
    /// counter effect); empty for the other kinds.
    pub cycle: Vec<RunStep>,
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

/// The identity of an `R_T` tuple `(τ_in, τ_out, β)`: the deduplication key
/// of [`TaskVerifier::reduce_queries`], which merges the witnesses of equal
/// tuples instead of keeping duplicates.
type TupleKey = (ProjectionKey, Option<SymState>, Vec<bool>);

/// Candidate entries reduced to one entry per tuple, in first-seen order,
/// with a hash index from each tuple to its entry.
#[derive(Default)]
struct EntryReduction {
    entries: Vec<RtEntry>,
    index: FxHashMap<TupleKey, usize>,
}

impl EntryReduction {
    /// Adds a candidate: a new tuple is appended; an equal tuple's witness
    /// kinds merge into the kept entry, which takes the candidate's details
    /// when the candidate is the first lasso for it or the kept entry has
    /// none.
    fn add(&mut self, e: RtEntry) {
        let key = (e.input_key.clone(), e.output.clone(), e.beta.clone());
        match self.index.entry(key) {
            Entry::Occupied(slot) => {
                let kept = &mut self.entries[*slot.get()];
                let had_lasso = kept.witness.lasso;
                kept.witness.merge(e.witness);
                if (!had_lasso && e.witness.lasso) || kept.details.is_none() {
                    kept.details = e.details;
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(self.entries.len());
                self.entries.push(e);
            }
        }
    }
}

/// The computed `R_T` of one task, for all assignments `β`.
#[derive(Clone, Debug, Default)]
pub struct TaskSummary {
    /// All entries.
    pub entries: Vec<RtEntry>,
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

/// The memos of one [`TaskVerifier::build_graph`] call, each keyed on
/// exactly what its step reads (DESIGN.md §5.13). They live for one `(T, β)`
/// pair and are dropped when the build returns; the per-sym tables are
/// indexed by dense sym id and grow with the arena. The post-state lists
/// themselves live one level down, in the task context's cache shared by
/// the task's pairs.
#[derive(Default)]
struct BuildMemo {
    /// The [`successor::post_base`] of each sym id, as an id into `bases`.
    base_of: Vec<Option<u32>>,
    /// Distinct post-state bases (input-variable projections).
    bases: Interner<SymState>,
    /// Post-state id lists keyed on `(base id, internal service index)`,
    /// shared with each lookup that hits.
    posts: FxHashMap<(u32, usize), Rc<[u32]>>,
    /// Lists this pair enumerated ([`Stats::post_enumerations`]), the
    /// union attempts their merge refinements made
    /// ([`Stats::merge_unions`]), and lookups served from `posts` or the
    /// task context's cache ([`Stats::post_memo_hits`]).
    post_enumerations: usize,
    merge_unions: usize,
    post_hits: usize,
    /// The condition valuation of each sym id.
    valuation_of: Vec<Option<Letter>>,
    /// The letter of each step without a child choice, keyed on
    /// `(sym id, service)`.
    letters: FxHashMap<(u32, ServiceRef), Letter>,
    /// The ways of opening a child, keyed on `(sym id, child)`: one choice
    /// per summary entry matching the child's input key.
    opens: FxHashMap<(u32, TaskId), Vec<OpenChoice>>,
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
        let CounterDims {
            vars,
            index,
            of_sym,
        } = self;
        *sym_slot(of_sym, sym).get_or_insert_with(|| {
            let key = syms.get(sym).project_vars(ctx, vars);
            let next = index.len();
            *index.entry(key).or_insert(next)
        })
    }
}

/// One summary entry a child can be opened with.
struct OpenChoice {
    /// Index of the entry in the child's [`TaskSummary::entries`].
    entry: usize,
    /// The entry's output as a sym id (`None`: the child never returns).
    output: Option<u32>,
    /// The letter of the opening step under this entry's `β`.
    letter: Letter,
}

/// A control state of `V(T, β)`.
///
/// Symbolic states are held as dense ids into the exploration's
/// [`Interner`]-backed arena (equal states share an id, so id equality is
/// structural equality); children are a `Vec` kept sorted by [`TaskId`],
/// which makes the whole control state a few words to clone and hash.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CState {
    /// Dense id of the symbolic state in the exploration's arena.
    sym: u32,
    q: BuchiState,
    /// Child statuses, sorted by task id.
    children: Vec<(TaskId, ChildStatus)>,
    /// Set when the task's own closing service has been applied (terminal).
    closed: bool,
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
    /// Handle on the completed child summaries this exploration reads.
    /// Owned (not borrowed) so the caller decides how long the map lives;
    /// the verifier drops it before it commits the next task.
    children: Arc<SummaryMap>,
    /// Child contexts (needed to transfer input patterns).
    child_contexts: &'a BTreeMap<TaskId, TaskContext>,
    /// Guards proven unsatisfiable by the static analyzer; the corresponding
    /// transitions are skipped during graph construction (empty when the
    /// system fails validation).
    dead: &'a DeadServiceMap,
    /// Per child, the correspondence of its opening (parent to child,
    /// along `opening.input_map`) and of its return (child to parent:
    /// `closing.output_map`'s entries, then `opening.input_map`'s).
    transfers: BTreeMap<TaskId, (Correspondence, Correspondence)>,
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
        let cbuchi = CompiledBuchi::new(buchi, &props, &system.schema);
        let t = system.schema.task(task);
        let transfers = t
            .children
            .iter()
            .map(|&child| {
                let child_ctx = &child_contexts[&child];
                let (inputs, outputs) = {
                    let c = system.schema.task(child);
                    (&c.opening.input_map, &c.closing.output_map)
                };
                // `input_map` lists `(child, parent)` pairs and `output_map`
                // `(parent, child)` pairs; entries are `(source, destination)`.
                let passed: Vec<(VarId, VarId)> = inputs.iter().map(|&(c, p)| (p, c)).collect();
                let returned = outputs.iter().map(|&(p, c)| (c, p));
                let returning: Vec<(VarId, VarId)> =
                    returned.chain(inputs.iter().copied()).collect();
                let open = Correspondence::new(ctx, child_ctx, &passed);
                let back = Correspondence::new(child_ctx, ctx, &returning);
                (child, (open, back))
            })
            .collect();
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
            transfers,
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

    // ------------------------------------------------------------------
    // Input-state enumeration
    // ------------------------------------------------------------------

    /// Enumerates the possible initial symbolic states of the task: every
    /// equality/binding pattern over the input variables (constrained by `Π`
    /// for the root task), with all other variables at their initial values.
    fn enumerate_inputs(&self) -> Vec<SymState> {
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
                                    if e.union(self.ctx, self.ctx.var_idx(v), self.ctx.var_idx(w))
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
                                if e.union(self.ctx, self.ctx.var_idx(v), self.ctx.var_idx(w))
                                    .is_ok()
                                {
                                    next.push(e);
                                }
                            }
                        }
                    }
                }
            }
            states = successor::dedup(next);
        }
        states.retain(|s| s.may_satisfy(self.ctx, &constraint));
        successor::dedup(states)
    }

    // ------------------------------------------------------------------
    // Letters and Büchi stepping
    // ------------------------------------------------------------------

    /// The three-valued truth values of the condition propositions in
    /// `sym`: the part of a letter that depends on the symbolic state alone.
    /// The abstraction leaves every arithmetic atom undetermined (DESIGN.md
    /// §5.5); such propositions go to `unknown`, and the Büchi step reads
    /// them under every completion at once.
    fn valuation(&self, sym: &SymState) -> Letter {
        let mut valuation = Letter::new(self.cbuchi.words());
        for (bit, p) in self.props.iter().enumerate() {
            let TaskProp::Condition(c) = p else { continue };
            let mask = match sym.satisfies(self.ctx, c) {
                Some(true) => &mut valuation.bits,
                Some(false) => continue,
                None => &mut valuation.unknown,
            };
            mask[bit / 64] |= 1u64 << (bit % 64);
        }
        valuation
    }

    /// The letter of observing `service` in a state with the given
    /// [`TaskVerifier::valuation`]: the valuation plus the service and child
    /// propositions, which are always determined.
    fn letter(
        &self,
        valuation: &Letter,
        service: ServiceRef,
        child_choice: Option<(TaskId, &[bool])>,
    ) -> Letter {
        let mut letter = valuation.clone();
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
                letter.bits[bit / 64] |= 1u64 << (bit % 64);
            }
        }
        letter
    }

    /// Writes the Büchi successors on `letter` into the caller-owned `out`:
    /// the initial successors for `q = None`, else the successors of `q`.
    fn step_buchi(&self, q: Option<BuchiState>, letter: &Letter, out: &mut Vec<BuchiState>) {
        match q {
            None => self.cbuchi.initial_successors(letter, out),
            Some(q) => self.cbuchi.step(q, letter, out),
        }
    }

    // ------------------------------------------------------------------
    // Cross-task transfer
    // ------------------------------------------------------------------

    /// The input projection key of the child's initial symbolic state induced
    /// by opening it from the parent state `sym` (the paper's
    /// `τ'_in = f_in^{-1}(τ_i)` of Definition 18).
    fn child_input(&self, sym: &SymState, child: TaskId) -> ProjectionKey {
        let child_ctx = &self.child_contexts[&child];
        let mut state = SymState::blank(child_ctx, self.schema());
        let opening = &self.transfers[&child].0;
        transfer_pattern(self.ctx, sym, child_ctx, &mut state, opening, |_| true);
        state.project_vars(child_ctx, &self.schema().task(child).input_vars)
    }

    /// Applies a child's return to the parent state (Definition 8's closing
    /// transition): numeric returned variables are overwritten, ID returned
    /// variables only if currently `null`; their new pattern follows the
    /// child's output state, including its relationships to the variables
    /// that were passed down on opening and to their navigations. The
    /// result forgets the task's unobservable variables (DESIGN.md §5.14).
    fn apply_return(&self, sym: &SymState, child: TaskId, output: &SymState) -> SymState {
        let child_ctx = &self.child_contexts[&child];
        let returning = &self.transfers[&child].1;
        let outputs = self.schema().task(child).closing.output_map.len();
        // The overwritten parent variables, by entry.
        let written = |k: usize| {
            k < outputs
                && match self.schema().variable(returning.dst_var(k)).sort {
                    VarSort::Numeric => true,
                    VarSort::Id => sym.is_null(self.ctx, returning.dst_var(k)),
                }
        };
        let mut next = sym.clone();
        transfer_pattern(child_ctx, output, self.ctx, &mut next, returning, written);
        // Equalities between the written parent variables (and their
        // navigations) and the passed ones that keep their value (and
        // theirs), as dictated by the child's output pattern. A passed
        // variable that is also written holds the returned value now.
        let passed = outputs..outputs + self.schema().task(child).opening.input_map.len();
        let kept =
            |i| !(0..outputs).any(|w| written(w) && returning.dst_var(w) == returning.dst_var(i));
        for w in (0..outputs).filter(|&w| written(w)) {
            for i in passed.clone().filter(|&i| kept(i)) {
                for &(pw, cw) in returning.rows(w) {
                    for &(pi, ci) in returning.rows(i) {
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
        next.forget(self.ctx, self.ctx.unobservable());
        next
    }

    /// Projects a closing state onto the task's input and return variables
    /// (the paper's `τ_out = τ|（x̄_in ∪ x̄_ret)`): the blank state carrying
    /// only the equality/binding pattern of those variables, restricted the
    /// way [`successor::post_base`] restricts to the input variables.
    fn project_output(&self, state: &SymState) -> SymState {
        let t = self.schema().task(self.task);
        let mut vars = t.input_vars.clone();
        vars.extend(t.return_vars());
        let mut out = SymState::blank(self.ctx, self.schema());
        out.adopt_vars(self.ctx, state, &vars);
        out
    }

    // ------------------------------------------------------------------
    // Build-layer memos (DESIGN.md §5.13)
    // ------------------------------------------------------------------

    /// The post-state ids of internal service `service_idx` from symbolic
    /// state `sym`, memoized per pair on `(post_base(sym), service_idx)`. A
    /// miss takes the list from the task context's cache
    /// ([`TaskContext::post_states`], shared by every β of the task and
    /// enumerated there at most once) and interns it in list order, as an
    /// unmemoized build would at this point; a hit returns the ids
    /// re-interning the same list would return.
    fn post_states(
        &self,
        memo: &mut BuildMemo,
        syms: &mut Interner<SymState>,
        sym: u32,
        service_idx: usize,
    ) -> Rc<[u32]> {
        let schema = self.schema();
        let base = *sym_slot(&mut memo.base_of, sym).get_or_insert_with(|| {
            memo.bases
                .intern(successor::post_base(self.ctx, schema, syms.get(sym)))
                .0
        });
        if let Some(ids) = memo.posts.get(&(base, service_idx)) {
            memo.post_hits += 1;
            return Rc::clone(ids);
        }
        let base_state = memo.bases.get(base);
        let (list, merge_unions) =
            self.ctx
                .post_states(schema, service_idx, base_state, self.config.max_successors);
        match merge_unions {
            Some(unions) => {
                memo.post_enumerations += 1;
                memo.merge_unions += unions;
            }
            None => memo.post_hits += 1,
        }
        let ids: Rc<[u32]> = list
            .iter()
            .map(|s| syms.lookup(s).unwrap_or_else(|| syms.intern(s.clone()).0))
            .collect();
        memo.posts.insert((base, service_idx), Rc::clone(&ids));
        ids
    }

    /// The [`TaskVerifier::valuation`] of `sym`, memoized per sym id.
    fn valuation_of<'m>(
        &self,
        table: &'m mut Vec<Option<Letter>>,
        syms: &Interner<SymState>,
        sym: u32,
    ) -> &'m Letter {
        sym_slot(table, sym).get_or_insert_with(|| self.valuation(syms.get(sym)))
    }

    /// The letter of observing `service` in `sym` (a step without a child
    /// choice), memoized on `(sym, service)`.
    fn letter_of<'m>(
        &self,
        memo: &'m mut BuildMemo,
        syms: &Interner<SymState>,
        sym: u32,
        service: ServiceRef,
    ) -> &'m Letter {
        let BuildMemo {
            letters,
            valuation_of,
            ..
        } = memo;
        letters.entry((sym, service)).or_insert_with(|| {
            self.letter(self.valuation_of(valuation_of, syms, sym), service, None)
        })
    }

    /// The ways of opening `child` from `sym`, memoized on `(sym, child)`:
    /// the summary entries matching the child's input key
    /// ([`TaskVerifier::child_input`]) with their outputs interned in entry
    /// order, and each entry's opening letter.
    fn open_child<'m>(
        &self,
        memo: &'m mut BuildMemo,
        syms: &mut Interner<SymState>,
        sym: u32,
        child: TaskId,
    ) -> &'m [OpenChoice] {
        let BuildMemo {
            opens,
            valuation_of,
            ..
        } = memo;
        opens.entry((sym, child)).or_insert_with(|| {
            let key = self.child_input(syms.get(sym), child);
            let sref = ServiceRef::Opening(child);
            let mut choices = Vec::new();
            for (entry, e) in self.children[&child].entries.iter().enumerate() {
                if e.input_key != key {
                    continue;
                }
                let output = e.output.as_ref().map(|s| syms.intern(s.clone()).0);
                let valuation = self.valuation_of(valuation_of, syms, sym);
                let letter = self.letter(valuation, sref, Some((child, &e.beta)));
                choices.push(OpenChoice {
                    entry,
                    output,
                    letter,
                });
            }
            choices
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
        // checks compare ids. Ids are assigned in worklist discovery order,
        // the canonical order of DESIGN.md §5.6/§5.8.
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
        // The transitions of `V(T, β)` in creation order, deltas sparse
        // (see `ExploredGraph`).
        let mut transitions = SparseActions::new();
        let mut initial_states: Vec<usize> = Vec::new();
        let mut input_keys: Vec<ProjectionKey> = Vec::new();
        // One run step per transition, so per VASS action: actions are
        // created in transition order.
        let mut labels: Vec<RunStep> = Vec::new();

        // Büchi successors of the current step, one buffer for the build.
        let mut succ: Vec<BuchiState> = Vec::new();

        // The step memos (DESIGN.md §5.13), dropped when the build returns.
        let mut memo = BuildMemo::default();

        // Initial states: step the Büchi automaton on the opening letter.
        // Each records its input key as it is interned; the states reached
        // from it are shared with every other input that reaches them.
        for input in &inputs {
            let key = input.project_vars(self.ctx, &t.input_vars);
            let sym_id = syms.intern(input.clone()).0;
            let letter = self.letter_of(&mut memo, &syms, sym_id, ServiceRef::Opening(self.task));
            self.step_buchi(None, letter, &mut succ);
            for &q in &succ {
                let c = CState {
                    sym: sym_id,
                    q,
                    children: Vec::new(),
                    closed: false,
                };
                let (id, newly) = cstates.intern(c);
                if newly {
                    initial_states.push(id as usize);
                    input_keys.push(key.clone());
                }
            }
        }

        // Forward exploration of the control-state graph (counter validity is
        // decided later by the coverability queries). A state enters the
        // worklist exactly when it is newly interned; terminal `closed`
        // states are skipped when popped.
        let mut worklist: VecDeque<u32> = initial_states.iter().map(|&i| i as u32).collect();

        while let Some(id) = worklist.pop_front() {
            if cstates.len() > self.config.max_control_states {
                break;
            }
            let current = cstates.get(id).clone();
            if current.closed {
                continue;
            }
            // Every transition of the pair: intern the target, record the
            // transition and its run step, and enqueue a new target.
            let mut emit = |next: CState, counters: [Option<(u32, i64)>; 2], step: RunStep| {
                let (nid, newly) = cstates.intern(next);
                transitions.push(id as usize, counters.into_iter().flatten(), nid as usize);
                labels.push(step);
                if newly {
                    worklist.push_back(nid);
                }
            };
            let has_active_children = current
                .children
                .iter()
                .any(|(_, c)| matches!(c, ChildStatus::Active { .. }));

            // --- Internal services -------------------------------------
            if !has_active_children {
                for (service_idx, service) in t.internal_services.iter().enumerate() {
                    if self.dead_internal(service_idx)
                        || !syms.get(current.sym).may_satisfy(self.ctx, &service.pre)
                    {
                        continue;
                    }
                    let sref = ServiceRef::Internal(self.task, service_idx);
                    let posts = self.post_states(&mut memo, &mut syms, current.sym, service_idx);
                    // Counter update (Definition 17's a̅ vector): at most
                    // one insert (+1) and one retrieve (−1); on one
                    // dimension they net to zero in the list. The insert
                    // dimension depends on the pre-state only; it is looked
                    // up before the first post-state's retrieve, which keeps the
                    // first-encounter numbering of the dimensions.
                    let counted = t.artifact_relation.is_some();
                    let index =
                        |d: usize| u32::try_from(d).expect("counter dimensions are u32-indexed");
                    let insert = (counted && service.delta.inserts() && !posts.is_empty())
                        .then(|| (index(counter_dims.dim(self.ctx, &syms, current.sym)), 1));
                    for &post_id in posts.iter() {
                        let retrieve = (counted && service.delta.retrieves())
                            .then(|| (index(counter_dims.dim(self.ctx, &syms, post_id)), -1));
                        let letter = self.letter_of(&mut memo, &syms, post_id, sref);
                        self.step_buchi(Some(current.q), letter, &mut succ);
                        for &q in &succ {
                            let next = CState {
                                sym: post_id,
                                q,
                                children: Vec::new(),
                                closed: false,
                            };
                            emit(next, [insert, retrieve], RunStep::Internal(service_idx));
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
                if !syms.get(current.sym).may_satisfy(self.ctx, opening_pre) {
                    continue;
                }
                for choice in self.open_child(&mut memo, &mut syms, current.sym, child) {
                    self.step_buchi(Some(current.q), &choice.letter, &mut succ);
                    let status = ChildStatus::Active {
                        output: choice.output,
                    };
                    let step = RunStep::OpenChild {
                        child,
                        entry: choice.entry,
                    };
                    for &q in &succ {
                        let next = CState {
                            sym: current.sym,
                            q,
                            children: current.with_child(child, status),
                            closed: false,
                        };
                        emit(next, [None, None], step);
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
                let letter = self.letter_of(&mut memo, &syms, new_sym_id, sref);
                self.step_buchi(Some(current.q), letter, &mut succ);
                for &q in &succ {
                    let next = CState {
                        sym: new_sym_id,
                        q,
                        children: current.with_child(child, ChildStatus::Closed),
                        closed: false,
                    };
                    emit(next, [None, None], RunStep::CloseChild(child));
                }
            }

            // --- Closing the task itself --------------------------------
            let sref = ServiceRef::Closing(self.task);
            if self.task != schema.root
                && !has_active_children
                && !self.dead.get(&self.task).is_some_and(|d| d.closing)
                && syms.get(current.sym).may_satisfy(self.ctx, &t.closing.pre)
            {
                let letter = self.letter_of(&mut memo, &syms, current.sym, sref);
                self.step_buchi(Some(current.q), letter, &mut succ);
                for &q in &succ {
                    let next = CState {
                        sym: current.sym,
                        q,
                        children: current.children.clone(),
                        closed: true,
                    };
                    emit(next, [None, None], RunStep::CloseTask);
                }
            }
        }

        let states = cstates.into_items();
        let syms = syms.into_items();
        stats.control_states = states.len();
        stats.transitions = transitions.len();
        stats.counter_dimensions = counter_dims.index.len();
        stats.post_enumerations = memo.post_enumerations;
        stats.merge_unions = memo.merge_unions;
        stats.post_memo_hits = memo.post_hits;

        let mut accepting = BitSet::new(states.len());
        for (i, s) in states.iter().enumerate() {
            if !s.closed && self.cbuchi.is_accepting(s.q) {
                accepting.insert(i);
            }
        }

        ExploredGraph {
            states,
            syms,
            transitions,
            dim: counter_dims.index.len(),
            initial_states,
            input_keys,
            accepting,
            stats,
            labels,
        }
    }

    /// Builds the shared query state of one `(T, β)` pair (DESIGN.md
    /// §5.12). It computes the *union* dimension cone over all of the
    /// pair's initial states ([`has_analysis::dimension_cone_multi`]) on the
    /// build's sparse transition list, then assembles the pair's one VASS
    /// from that list over the kept dimensions only
    /// ([`has_analysis::DimensionCone::assemble`]; the full-dimension VASS
    /// when the cone is trivial), so one assembly serves every query. The
    /// action CSR the cone walks becomes the [`KmScratch`] adjacency of
    /// those queries' Karp–Miller builds: one pass over the transitions per
    /// pair. The `τ_out` memo starts empty. The projection is
    /// verdict-neutral (`crates/analysis/tests/prop_cone_project.rs`).
    pub fn prepare_shared(&self, graph: &ExploredGraph) -> PairShared {
        let states = graph.states.len();
        let adjacency = graph.transitions.action_csr(states);
        let cone = dimension_cone_multi(
            &graph.transitions,
            graph.dim,
            &adjacency,
            &graph.initial_states,
        );
        let vass = cone.assemble(&graph.transitions, states);
        let scratch = KmScratch::with_csr(&vass, adjacency);
        PairShared {
            vass,
            dims_after: cone.dims_after(),
            scratch,
            output_of: Vec::new(),
            outputs: Interner::new(),
        }
    }

    /// Answers the three Lemma 21 queries (returning, blocking, lasso) for
    /// the `pos`-th initial state of a built graph with one
    /// subsumption-pruned Karp–Miller build
    /// ([`CoverabilityGraph::build_pruned`]). Returns the candidate `R_T`
    /// entries **in deterministic push order** (returning entries in node
    /// order, then the blocking entry, then the lasso entry) with the
    /// query's cost. The answer depends only on `pos`: the only state the
    /// [`PairShared`] carries between queries is its `τ_out` memo, a
    /// function of the symbolic state alone. Callers deduplicate through
    /// [`TaskVerifier::reduce_queries`] in initial-state order.
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
        let input_key = graph.input_keys[pos].clone();
        let PairShared {
            vass,
            dims_after,
            scratch,
            output_of,
            outputs,
        } = shared;
        let mut cost = QueryCost {
            dims_before: graph.dim,
            dims_after: *dims_after,
            ..QueryCost::default()
        };
        let vass = &*vass;
        let mut candidates: Vec<RtEntry> = Vec::new();
        let finite_ok = |s: &CState| self.cbuchi.is_finite_accepting(s.q);
        let run = CoverabilityGraph::build_pruned(vass, init, self.config.km_node_cap, scratch);

        let retain = self.config.witnesses;
        let point_details = |node: usize| -> Option<Arc<EntryDetails>> {
            retain.then(|| {
                Arc::new(EntryDetails {
                    prefix: graph.steps_to(&run, node),
                    cycle: Vec::new(),
                    cycle_truncated: false,
                })
            })
        };

        // Returning paths, over the node order. They share the query's
        // input key, β and the default witness, so of the nodes with one
        // output only the first can survive `reduce_queries` (a duplicate
        // merges nothing and keeps the first details): only the first node
        // per distinct output becomes a candidate and renders its details.
        // Each symbolic state is projected at most once per pair, through
        // the pair's memo.
        let mut seen_syms: HashSet<u32, FxBuildHasher> = HashSet::default();
        let mut seen_outputs: HashSet<u32, FxBuildHasher> = HashSet::default();
        for (node, cs) in run.nodes().map(|n| &states[n.state]).enumerate() {
            if cs.closed && finite_ok(cs) && seen_syms.insert(cs.sym) {
                let output = *sym_slot(output_of, cs.sym).get_or_insert_with(|| {
                    let sym = &graph.syms[cs.sym as usize];
                    outputs.intern(self.project_output(sym)).0
                });
                if seen_outputs.insert(output) {
                    candidates.push(RtEntry {
                        input_key: input_key.clone(),
                        output: Some(outputs.get(output).clone()),
                        beta: self.beta.clone(),
                        witness: NonReturningWitness::default(),
                        details: point_details(node),
                    });
                }
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
        // Lasso paths — the tiered decision described above. One search
        // per tier; without witnesses, cap 0 asks for the decision alone.
        if graph.accepting.any() {
            let accepting = |s: usize| graph.accepting.contains(s);
            let cap = if retain { WITNESS_CYCLE_CAP } else { 0 };
            let lasso_in = |cover: &CoverabilityGraph| {
                let search = cover.nonneg_cycle_through(vass, &accepting, cap);
                let lasso = search.exists();
                let details = retain.then(|| graph.lasso_details(search, cover));
                (lasso, details.flatten())
            };
            let (mut lasso, mut details) = lasso_in(&run);
            // Without a jump or ε-jump (`subsumed() == 0`) the augmented
            // edge set is the real one, and tier 2 would repeat tier 1's no.
            if !lasso && run.subsumed() > 0 && run.augmented_nonneg_cycle_through(vass, &accepting)
            {
                // Ambiguous: a cycle exists only through jump edges, whose
                // targets over-approximate. One exact build decides; it is
                // charged to this query's cost.
                let cover = CoverabilityGraph::build_capped(vass, init, self.config.km_node_cap);
                cost.km_nodes += cover.node_count();
                cost.lasso_fallbacks += 1;
                cost.km_capped += usize::from(cover.capped());
                (lasso, details) = lasso_in(&cover);
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
    /// counterexample — are identical from run to run.
    pub fn reduce_queries(
        graph: &ExploredGraph,
        per_init: impl IntoIterator<Item = (Vec<RtEntry>, QueryCost)>,
    ) -> (Vec<RtEntry>, Stats) {
        let mut stats = graph.stats.clone();
        let mut reduction = EntryReduction::default();
        for (candidates, cost) in per_init {
            stats.coverability_nodes += cost.km_nodes;
            stats.counter_dims_before += cost.dims_before;
            stats.counter_dims_after += cost.dims_after;
            stats.km_subsumed += cost.km_subsumed;
            stats.km_capped += cost.km_capped;
            stats.lasso_fallbacks += cost.lasso_fallbacks;
            for e in candidates {
                reduction.add(e);
            }
        }
        stats.rt_entries = reduction.entries.len();
        (reduction.entries, stats)
    }
}

/// The immutable artifacts of one `(T, β)` forward exploration: the control
/// states of `V(T, β)` and its transitions as a flat sparse list, its
/// initial states with their input projection keys, the accepting set, and
/// the statistics accumulated while building them (`coverability_nodes`
/// and `rt_entries` are contributed later by the query phase).
///
/// No full-dimension VASS is assembled here: the list keeps each
/// transition's non-zero net counter delta (one insert and one retrieve at
/// most, Definition 17), and [`TaskVerifier::prepare_shared`] assembles the
/// pair's one VASS from it over the dimensions its cone keeps.
///
/// Produced by [`TaskVerifier::build_graph`] and read by the pair's
/// [`TaskVerifier::prepare_shared`] and
/// [`TaskVerifier::init_queries_shared`] calls.
pub struct ExploredGraph {
    states: Vec<CState>,
    /// Arena of distinct symbolic states, indexed by the dense ids held in
    /// [`CState::sym`] and [`ChildStatus::Active`].
    syms: Vec<SymState>,
    /// The transitions over control-state ids, in creation order: action
    /// `a` of the pair's VASS is transition `a`, recorded as `labels[a]`.
    transitions: SparseActions,
    /// The counter dimension of `V(T, β)` (distinct counter projections
    /// met by the build), before any projection.
    dim: usize,
    initial_states: Vec<usize>,
    /// The input key `τ_in` of each initial state, parallel to
    /// `initial_states`: the query from `initial_states[pos]` reports
    /// `input_keys[pos]`.
    input_keys: Vec<ProjectionKey>,
    accepting: BitSet,
    stats: Stats,
    /// One run step per transition/VASS action, in creation order, recorded
    /// on every build; only witness details read it.
    labels: Vec<RunStep>,
}

impl ExploredGraph {
    /// Number of initial states — one [`TaskVerifier::init_queries_shared`]
    /// call per position `0..initial_count()`.
    pub fn initial_count(&self) -> usize {
        self.initial_states.len()
    }

    /// The run steps of `run`'s Karp–Miller path from its root to `node` —
    /// the prefix of a counterexample report.
    fn steps_to(&self, run: &CoverabilityGraph, node: usize) -> Vec<RunStep> {
        run.path_to_node(node)
            .into_iter()
            .map(|action| self.labels[action])
            .collect()
    }

    /// The retained details of a pump-cycle search over `run` (`None` when
    /// no lasso exists): the path to the walk's start node is the prefix,
    /// the walk's actions are the cycle, and a walk past the
    /// materialization cap truncates the rendering only, never the decision.
    fn lasso_details(
        &self,
        search: CycleSearch<(usize, usize, usize)>,
        run: &CoverabilityGraph,
    ) -> Option<Arc<EntryDetails>> {
        let details = match search {
            CycleSearch::None => return None,
            CycleSearch::Witness(walk) => EntryDetails {
                prefix: self.steps_to(run, walk[0].0),
                cycle: walk
                    .iter()
                    .map(|&(_, action, _)| self.labels[action])
                    .collect(),
                cycle_truncated: false,
            },
            CycleSearch::ExceedsCap => EntryDetails {
                prefix: Vec::new(),
                cycle: Vec::new(),
                cycle_truncated: true,
            },
        };
        Some(Arc::new(details))
    }
}

/// The shared query state of one `(T, β)` pair (DESIGN.md §5.12), produced by
/// [`TaskVerifier::prepare_shared`] and threaded mutably through the
/// pair's [`TaskVerifier::init_queries_shared`] calls.
pub struct PairShared {
    /// The pair VASS, assembled once from the build's transition list over
    /// the union cone's dimensions (all of them when the cone is trivial).
    vass: Vass,
    /// The union cone's dimension count (the `dims_after` every query of
    /// the pair reports).
    dims_after: usize,
    /// Karp–Miller scratch for the pair VASS: its adjacency — the CSR the
    /// cone walked, computed once per pair — and the per-control-state
    /// ancestor index and antichains, stamped per query.
    scratch: KmScratch,
    /// The `τ_out` memo: the projected output ([`TaskVerifier::project_output`])
    /// of each sym id, as an id into `outputs`, filled by the returning
    /// scans of the pair's queries.
    output_of: Vec<Option<u32>>,
    /// Distinct projected outputs.
    outputs: Interner<SymState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A non-returning candidate for input `input`, with details tagged by
    /// the length of their cycle (`None` for tag 0).
    fn candidate(input: u32, blocking: bool, lasso: bool, tag: usize) -> RtEntry {
        RtEntry {
            input_key: vec![input],
            output: None,
            beta: vec![true],
            witness: NonReturningWitness { blocking, lasso },
            details: (tag > 0).then(|| {
                Arc::new(EntryDetails {
                    prefix: Vec::new(),
                    cycle: vec![RunStep::CloseTask; tag],
                    cycle_truncated: false,
                })
            }),
        }
    }

    fn tag(e: &RtEntry) -> usize {
        e.details.as_ref().map_or(0, |d| d.cycle.len())
    }

    #[test]
    fn hashed_reduction_keeps_first_seen_order_and_lasso_details() {
        let mut reduction = EntryReduction::default();
        reduction.add(candidate(7, true, false, 1)); // blocking first
        reduction.add(candidate(3, false, true, 2));
        reduction.add(candidate(9, false, false, 0)); // no details yet
        reduction.add(candidate(7, false, true, 3)); // first lasso for 7 wins
        reduction.add(candidate(7, false, true, 4)); // a later lasso does not
        reduction.add(candidate(3, true, false, 5)); // blocking never beats lasso
        reduction.add(candidate(9, true, false, 6)); // fills missing details

        let inputs: Vec<u32> = reduction.entries.iter().map(|e| e.input_key[0]).collect();
        assert_eq!(inputs, [7, 3, 9], "first-seen order");
        let witnesses: Vec<(bool, bool)> = reduction
            .entries
            .iter()
            .map(|e| (e.witness.blocking, e.witness.lasso))
            .collect();
        assert_eq!(witnesses, [(true, true), (true, true), (true, false)]);
        let tags: Vec<usize> = reduction.entries.iter().map(tag).collect();
        assert_eq!(tags, [3, 2, 6]);
    }

    /// A one-task booking loop: `choose` picks a flight and sets `status`
    /// to 1, `reset` sets it back to 0. The property `G(chosen → F reset)`
    /// gives the task two truth assignments β over `Φ_T`.
    fn booking() -> (ArtifactSystem, has_ltl::HltlFormula) {
        use has_arith::Rational;
        use has_model::{SetUpdate, SystemBuilder, Term};
        let mut b = SystemBuilder::new("booking");
        b.relation("FLIGHTS", &["price"], &[]);
        let root = b.root_task("Main");
        let flight = b.id_var(root, "flight");
        let price = b.num_var(root, "price");
        let status = b.num_var(root, "status");
        let flights = b.relation_id("FLIGHTS").unwrap();
        let chosen = Condition::eq_const(status, Rational::from_int(1));
        let reset = Condition::eq_const(status, Rational::ZERO);
        let booked = Condition::relation(flights, vec![Term::Var(flight), Term::Var(price)]);
        b.internal_service(
            root,
            "choose",
            Condition::True,
            booked.and(chosen.clone()),
            SetUpdate::None,
        );
        b.internal_service(
            root,
            "reset",
            Condition::True,
            reset.clone(),
            SetUpdate::None,
        );
        let system = b.build().unwrap();
        let mut hb = has_ltl::hltl::HltlBuilder::new(system.root());
        let chosen = hb.condition(chosen);
        let reset = hb.condition(reset);
        let property = hb.finish(chosen.implies(reset.eventually()).globally());
        (system, property)
    }

    /// A flight booking with a `Pay` child: the child receives the chosen
    /// flight, sets `amount` to the flight's price or waives it to 0, and
    /// returns `amount` into the parent's `price` — so the child's pairs
    /// have returning runs with several outputs.
    fn booking_with_payment() -> (ArtifactSystem, has_ltl::HltlFormula) {
        use has_arith::Rational;
        use has_model::{SetUpdate, SystemBuilder, Term};
        let mut b = SystemBuilder::new("booking-payment");
        b.relation("FLIGHTS", &["price"], &[]);
        let root = b.root_task("Main");
        let flight = b.id_var(root, "flight");
        let price = b.num_var(root, "price");
        let flights = b.relation_id("FLIGHTS").unwrap();
        let booked = Condition::relation(flights, vec![Term::Var(flight), Term::Var(price)]);
        b.internal_service(root, "choose", Condition::True, booked, SetUpdate::None);
        let pay = b.child_task(root, "Pay");
        let paid_flight = b.id_var(pay, "paid_flight");
        let amount = b.num_var(pay, "amount");
        b.map_input(pay, paid_flight, flight);
        b.map_output(pay, price, amount);
        let quoted = Condition::relation(flights, vec![Term::Var(paid_flight), Term::Var(amount)]);
        b.internal_service(pay, "quote", Condition::True, quoted, SetUpdate::None);
        let waived = Condition::eq_const(amount, Rational::ZERO);
        b.internal_service(pay, "waive", Condition::True, waived, SetUpdate::None);
        let system = b.build().unwrap();
        let mut hb = has_ltl::hltl::HltlBuilder::new(system.root());
        let free = hb.condition(Condition::eq_const(price, Rational::ZERO));
        let property = hb.finish(free.eventually());
        (system, property)
    }

    /// Every pair of `task` answers each query the same — candidates and
    /// [`QueryCost`] — whether the pair's queries run forward on one
    /// [`PairShared`], in reverse on another, or each alone on a fresh one:
    /// the pair's memo never changes an answer. Returns the number of
    /// returning candidates seen, so callers can check that the returning
    /// scan, which fills the `τ_out` memo, ran.
    fn assert_queries_are_order_free(
        system: &ArtifactSystem,
        property: &has_ltl::HltlFormula,
        task: TaskId,
    ) -> usize {
        let config = VerifierConfig::default().with_witnesses(true);
        let dead = has_analysis::analyze(system, Some(property)).dead;
        let mut pc = crate::property::PropertyContext::new(system, property, config.nav_depth);
        pc.precompute_automata();
        let mut returning = 0;
        for beta in pc.assignments(task) {
            let buchi = pc.buchi_shared(task, &beta);
            let tv = TaskVerifier::new(
                system,
                &config,
                pc.context(task),
                task,
                beta,
                pc.phi(task),
                &buchi,
                Arc::new(SummaryMap::new()),
                &pc.contexts,
                &dead,
            );
            let graph = tv.build_graph();
            let n = graph.initial_count();
            let mut shared = tv.prepare_shared(&graph);
            let forward: Vec<_> = (0..n)
                .map(|pos| tv.init_queries_shared(&graph, pos, &mut shared))
                .collect();
            let mut shared = tv.prepare_shared(&graph);
            let mut reverse: Vec<_> = (0..n)
                .rev()
                .map(|pos| tv.init_queries_shared(&graph, pos, &mut shared))
                .collect();
            reverse.reverse();
            let alone: Vec<_> = (0..n)
                .map(|pos| tv.init_queries_shared(&graph, pos, &mut tv.prepare_shared(&graph)))
                .collect();
            assert_eq!(forward, reverse, "reverse order");
            assert_eq!(forward, alone, "each query alone");
            returning += (forward.iter().flat_map(|(c, _)| c))
                .filter(|e| e.output.is_some())
                .count();
        }
        returning
    }

    #[test]
    fn pair_queries_are_order_free() {
        let (system, property) = booking();
        assert_queries_are_order_free(&system, &property, system.root());
        let (system, property) = booking_with_payment();
        let pay = system.schema.task(system.root()).children[0];
        let returning = assert_queries_are_order_free(&system, &property, pay);
        assert!(returning > 1, "the child's queries scan returning runs");
    }

    /// Builds, queries and reduces one `(T, β)` pair on `pc` the way the
    /// verifier's pair loop does.
    fn run_pair(
        system: &ArtifactSystem,
        config: &VerifierConfig,
        pc: &crate::property::PropertyContext,
        dead: &DeadServiceMap,
        beta: &[bool],
    ) -> (Vec<RtEntry>, Stats) {
        let task = system.root();
        let buchi = pc.buchi_shared(task, beta);
        let tv = TaskVerifier::new(
            system,
            config,
            pc.context(task),
            task,
            beta.to_vec(),
            pc.phi(task),
            &buchi,
            Arc::new(SummaryMap::new()),
            &pc.contexts,
            dead,
        );
        let graph = tv.build_graph();
        let mut shared = tv.prepare_shared(&graph);
        let per_init =
            (0..graph.initial_count()).map(|pos| tv.init_queries_shared(&graph, pos, &mut shared));
        TaskVerifier::reduce_queries(&graph, per_init)
    }

    /// A pair built after its sibling β warmed the task's post-state cache
    /// builds the same graph and `R_T` as on a cold cache: only the split of
    /// its lookups between enumerations and hits moves, and with it the
    /// merge unions its own enumerations made.
    #[test]
    fn warm_post_state_cache_builds_the_same_pair() {
        let (system, property) = booking();
        let config = VerifierConfig::default();
        let dead = has_analysis::analyze(&system, Some(&property)).dead;
        let prepare = || {
            let mut pc =
                crate::property::PropertyContext::new(&system, &property, config.nav_depth);
            pc.precompute_automata();
            pc
        };
        let cold_pc = prepare();
        let betas = cold_pc.assignments(system.root());
        assert_eq!(betas.len(), 2);
        let (cold_entries, cold) = run_pair(&system, &config, &cold_pc, &dead, &betas[1]);

        let warm_pc = prepare();
        run_pair(&system, &config, &warm_pc, &dead, &betas[0]);
        let (warm_entries, warm) = run_pair(&system, &config, &warm_pc, &dead, &betas[1]);

        assert!(cold.post_enumerations > 0);
        assert!(
            warm.post_enumerations < cold.post_enumerations,
            "the sibling warmed the cache"
        );
        assert_eq!(
            warm.post_enumerations + warm.post_memo_hits,
            cold.post_enumerations + cold.post_memo_hits
        );
        assert!(warm.merge_unions <= cold.merge_unions);
        let memo_aside = |s: Stats| Stats {
            post_enumerations: 0,
            merge_unions: 0,
            post_memo_hits: 0,
            ..s
        };
        assert_eq!(memo_aside(warm), memo_aside(cold));
        assert!(!cold_entries.is_empty());
        assert_eq!(warm_entries, cold_entries);
    }

    /// With witnesses off, every build still records exactly one run step
    /// per transition: the booking's `Pay` child and then its parent, over
    /// `Pay`'s committed summary, record all four kinds of step, and each
    /// opening indexes an entry of that summary.
    #[test]
    fn every_build_records_one_run_step_per_transition() {
        let (system, property) = booking_with_payment();
        let config = VerifierConfig::default();
        assert!(!config.witnesses);
        let dead = has_analysis::analyze(&system, Some(&property)).dead;
        let mut pc = crate::property::PropertyContext::new(&system, &property, config.nav_depth);
        pc.precompute_automata();
        let root = system.root();
        let pay = system.schema.task(root).children[0];
        let mut committed = SummaryMap::new();
        let mut steps: Vec<RunStep> = Vec::new();
        for task in [pay, root] {
            let children = Arc::new(committed.clone());
            let mut summary = TaskSummary::default();
            for beta in pc.assignments(task) {
                let buchi = pc.buchi_shared(task, &beta);
                let tv = TaskVerifier::new(
                    &system,
                    &config,
                    pc.context(task),
                    task,
                    beta,
                    pc.phi(task),
                    &buchi,
                    Arc::clone(&children),
                    &pc.contexts,
                    &dead,
                );
                let graph = tv.build_graph();
                assert_eq!(graph.labels.len(), graph.transitions.len());
                assert_eq!(graph.labels.len(), graph.stats.transitions);
                steps.extend(&graph.labels);
                let mut shared = tv.prepare_shared(&graph);
                let per_init = (0..graph.initial_count())
                    .map(|pos| tv.init_queries_shared(&graph, pos, &mut shared));
                let (entries, _) = TaskVerifier::reduce_queries(&graph, per_init);
                assert!(entries.iter().all(|e| e.details.is_none()));
                summary.entries.extend(entries);
            }
            committed.insert(task, Arc::new(summary));
        }
        for step in &steps {
            if let RunStep::OpenChild { child, entry } = *step {
                assert!(entry < committed[&child].entries.len());
            }
        }
        assert!(steps.iter().any(|s| matches!(s, RunStep::Internal(_))));
        assert!(steps.iter().any(|s| matches!(s, RunStep::OpenChild { .. })));
        assert!(steps.iter().any(|s| matches!(s, RunStep::CloseChild(_))));
        assert!(steps.contains(&RunStep::CloseTask));
    }

    /// A root with two numeric inputs `x`, `y` and one service `match`
    /// whose post-condition equates them: the inputs with `x`, `y` fresh
    /// and distinct and with `y = x` reach the same state after one step.
    fn converging_inputs() -> (ArtifactSystem, has_ltl::HltlFormula) {
        use has_model::{SetUpdate, SystemBuilder};
        let mut b = SystemBuilder::new("converging-inputs");
        let root = b.root_task("Main");
        let x = b.num_var(root, "x");
        let y = b.num_var(root, "y");
        b.input_vars(root, &[x, y]);
        let matched = Condition::var_eq(x, y);
        b.internal_service(root, "match", Condition::True, matched, SetUpdate::None);
        let system = b.build().unwrap();
        let mut hb = has_ltl::hltl::HltlBuilder::new(system.root());
        let matched = hb.service(ServiceRef::Internal(root, 0));
        let property = hb.finish(matched.eventually());
        (system, property)
    }

    /// Control states do not record their input: where the runs of two
    /// inputs reach the same state, the pair's graph holds it once, and
    /// each initial state's query still reports its own `τ_in`.
    #[test]
    fn converging_inputs_share_their_successors() {
        let (system, property) = converging_inputs();
        let config = VerifierConfig::default();
        let dead = has_analysis::analyze(&system, Some(&property)).dead;
        let mut pc = crate::property::PropertyContext::new(&system, &property, config.nav_depth);
        pc.precompute_automata();
        let root = system.root();
        // β = [true]: `F match`, so `match` may fire.
        let beta = vec![true];
        let buchi = pc.buchi_shared(root, &beta);
        let tv = TaskVerifier::new(
            &system,
            &config,
            pc.context(root),
            root,
            beta,
            pc.phi(root),
            &buchi,
            Arc::new(SummaryMap::new()),
            &pc.contexts,
            &dead,
        );
        let graph = tv.build_graph();
        // Five inputs: (0, 0), (0, fresh), (fresh, 0), y = x fresh and
        // (fresh, fresh), one initial state each.
        let inputs = tv.enumerate_inputs();
        assert_eq!(inputs.len(), 5);
        assert_eq!(graph.initial_count(), 5);
        // `match` leads every input to x = y = 0 or to x = y fresh, each
        // under two Büchi states: four successors in all, interned once.
        assert_eq!(graph.stats.control_states, 9);
        let targets = |init: usize| -> Vec<usize> {
            let actions = graph.transitions.actions();
            let mut to: Vec<usize> = (actions.iter())
                .filter(|a| a.from == init)
                .map(|a| a.to)
                .collect();
            to.sort();
            to.dedup();
            to
        };
        let mut shared_targets: Vec<Vec<usize>> =
            graph.initial_states.iter().map(|&i| targets(i)).collect();
        shared_targets.sort();
        shared_targets.dedup();
        assert_eq!(shared_targets.len(), 2, "{shared_targets:?}");
        // Each query reports its own initial state's input key.
        let mut shared = tv.prepare_shared(&graph);
        let per_init: Vec<_> = (0..graph.initial_count())
            .map(|pos| tv.init_queries_shared(&graph, pos, &mut shared))
            .collect();
        for (pos, (candidates, _)) in per_init.iter().enumerate() {
            assert!(!candidates.is_empty());
            assert!(candidates
                .iter()
                .all(|e| e.input_key == graph.input_keys[pos]));
        }
        let (entries, _) = TaskVerifier::reduce_queries(&graph, per_init);
        let keys: Vec<&ProjectionKey> = entries.iter().map(|e| &e.input_key).collect();
        let expected: Vec<ProjectionKey> = (inputs.iter())
            .map(|s| s.project_vars(tv.ctx, &system.schema.task(root).input_vars))
            .collect();
        assert_eq!(keys, expected.iter().collect::<Vec<_>>());
    }
}
