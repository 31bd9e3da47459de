//! Shared, incremental Karp–Miller coverability with monotonicity-based
//! subsumption pruning (DESIGN.md §5.12).
//!
//! Every `(T, β, τ_in)` Lemma 21 sub-query runs a coverability search over
//! the *same* per-`(T, β)` VASS — the queries differ only in the initial
//! control state. [`SharedCoverability`] is the arena all those queries
//! extend instead of rebuilding: dense-interned `(state, marking)` nodes
//! (the PR 6 substrate) tagged with the query generation that created them,
//! with each node's *complete* successor list stored once so later queries
//! replay it instead of recomputing deltas and ω-accelerations.
//!
//! On top of the arena, each query maintains a per-control-state
//! **antichain** of its visited markings (componentwise `≤` with
//! [`OMEGA`] as ⊤): a successor covered by an already-visited marking is
//! not traversed (*arrival pruning*), and when a strictly larger marking
//! lands, dominated antichain members are *retro-pruned* — dropped from the
//! antichain and, if not yet expanded, skipped at pop. Both prunings record
//! **jump edges** to the dominating node, so the traversal stays *saturated*:
//! every visited node has, per firable action, an edge (real or jump) to a
//! visited node whose marking dominates the computed successor. Saturation
//! is what keeps the pruned search exact — see the soundness/completeness
//! split on the cycle helpers below and DESIGN.md §5.12.
//!
//! Reuse is sound across start configurations by monotonicity: an
//! ω-acceleration stored in the arena is justified by a pumping sequence
//! from a dominated ancestor, and that sequence is firable from *any*
//! occurrence of the covering marking, regardless of which query's initial
//! state discovered it. A replayed successor may carry *fewer* ω's than a
//! fresh expansion under the current query's ancestor chain would produce —
//! that is an under-approximation of acceleration, which is always sound;
//! completeness is unaffected because stored territory is finite and fresh
//! frontier nodes accelerate against the full overlay ancestor chain.

use crate::coverability::{add_into, hash_key, NONE, OMEGA};
use crate::cycle::{self, CycleSearch, DeltaEdge};
use crate::vass::Vass;
use std::collections::VecDeque;

/// `a` componentwise dominates `b` (`≥` with [`OMEGA`] as ⊤, which plain
/// `u64` comparison already gives since `OMEGA == u64::MAX`).
fn dominates(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y)
}

/// The marking row of arena node `id` inside a flat row-major arena.
fn row_of(rows: &[u64], dim: usize, id: u32) -> &[u64] {
    &rows[id as usize * dim..][..dim]
}

/// A shared, incremental coverability arena for one VASS: all queries
/// passed through [`SharedCoverability::query`] must target the *same*
/// VASS (same dimension, same action list), differing only in the initial
/// control state. Arena nodes, their interner, and their stored successor
/// lists persist across queries; traversal state is per-query, stamped by
/// a monotone generation counter so no clearing pass is ever needed.
#[derive(Clone, Debug)]
pub struct SharedCoverability {
    dim: usize,
    /// Control state per arena node.
    states: Vec<u32>,
    /// Flat row-major marking arena (see [`crate::CoverabilityGraph`]).
    rows: Vec<u64>,
    /// Cached interner hash per node.
    hashes: Vec<u64>,
    /// The query generation that created each node (`1`-based).
    gen_of: Vec<u32>,
    /// Open-addressing interner over `(state, marking)`: `node id + 1`,
    /// `0` = empty; length is a power of two.
    table: Vec<u32>,
    mask: usize,
    /// Per node: index into `spans` of its stored successor list, or
    /// [`NONE`] when the node has never been *completely* expanded (a
    /// successor dropped at the per-query node cap leaves no span, so a
    /// later, less-capped query recomputes instead of trusting a hole).
    span_of: Vec<u32>,
    /// Stored spans `(start, len)` into `succs`.
    spans: Vec<(u32, u32)>,
    /// Flattened stored successors `(action index, arena node)`.
    succs: Vec<(u32, u32)>,
    /// Current query generation (incremented by every [`Self::query`]).
    generation: u32,
    // ---- per-query traversal scratch, stamped by `generation` ----
    /// Generation that last visited the node.
    visit_gen: Vec<u32>,
    /// Visit index within that generation's [`SharedRun`].
    visit_idx: Vec<u32>,
    /// Overlay parent (arena id) within that generation's traversal.
    ovl_parent: Vec<u32>,
    /// Generation that retro-pruned the node (dominated after visiting).
    pruned_gen: Vec<u32>,
    // ---- per-control-state antichain buckets, stamped ----
    bucket_gen: Vec<u32>,
    buckets: Vec<Vec<u32>>,
    // ---- overlay ancestor index scratch (see coverability.rs) ----
    anc_head: Vec<u32>,
    anc_tail: Vec<u32>,
    anc_stamp: Vec<u64>,
    anc_current: u64,
    anc_entries: Vec<(u32, u32)>,
}

/// One query's traversal over a [`SharedCoverability`] arena: the visited
/// nodes in deterministic BFS-discovery order (the *visit order* — the
/// shared analogue of [`crate::CoverabilityGraph`]'s node order), the
/// overlay spanning tree for witness-path extraction, and the real/jump
/// edge lists the lasso decision tiers consume. Self-contained: it borrows
/// nothing from the arena, so the arena can serve the next query while a
/// caller still scans this run.
#[derive(Clone, Debug)]
pub struct SharedRun {
    /// Arena node id per visit index.
    visited: Vec<u32>,
    /// Control state per visit index.
    states: Vec<u32>,
    /// Overlay parent per visit index ([`NONE`] for the root).
    parent: Vec<u32>,
    /// Incoming action per visit index ([`NONE`] for the root).
    via: Vec<u32>,
    /// Real edges `(from, action, to)` over visit indices: the target's
    /// marking is exactly the (stored or freshly accelerated) successor
    /// marking. Sound evidence for lassos.
    edges: Vec<(u32, u32, u32)>,
    /// Arrival-pruning jump edges `(from, action, to)`: the target
    /// *strictly dominates* the computed successor. Complete-only evidence.
    jumps: Vec<(u32, u32, u32)>,
    /// Retro-pruning ε-jumps `(pruned, dominator)` with zero effect.
    eps_jumps: Vec<(u32, u32)>,
    /// Visited nodes that already existed in the arena (cross-query reuse).
    pub reused: usize,
    /// Successors not traversed because a visited marking covered them,
    /// plus visited nodes retro-pruned by a later, larger marking.
    pub subsumed: usize,
    /// Whether the per-query node cap dropped any successor: the run
    /// under-approximates coverability, exactly like a capped
    /// [`crate::CoverabilityGraph`].
    pub capped: bool,
}

impl SharedCoverability {
    /// An empty arena for coverability queries over `vass`.
    pub fn new(vass: &Vass) -> Self {
        SharedCoverability {
            dim: vass.dim,
            states: Vec::new(),
            rows: Vec::new(),
            hashes: Vec::new(),
            gen_of: Vec::new(),
            table: vec![0; 64],
            mask: 63,
            span_of: Vec::new(),
            spans: Vec::new(),
            succs: Vec::new(),
            generation: 0,
            visit_gen: Vec::new(),
            visit_idx: Vec::new(),
            ovl_parent: Vec::new(),
            pruned_gen: Vec::new(),
            bucket_gen: vec![0; vass.states],
            buckets: vec![Vec::new(); vass.states],
            anc_head: vec![0; vass.states],
            anc_tail: vec![0; vass.states],
            anc_stamp: vec![0; vass.states],
            anc_current: 0,
            anc_entries: Vec::new(),
        }
    }

    /// Total arena nodes interned so far (across all queries).
    pub fn arena_nodes(&self) -> usize {
        self.states.len()
    }

    /// Runs one coverability query from `init` (all counters zero),
    /// visiting at most `max_nodes` nodes.
    pub fn query(&mut self, vass: &Vass, init: usize, max_nodes: usize) -> SharedRun {
        debug_assert_eq!(vass.dim, self.dim, "arena reused across VASS dimensions");
        self.generation = self
            .generation
            .checked_add(1)
            .expect("shared coverability arena: more than u32::MAX queries");
        let gen = self.generation;
        let mut run = SharedRun {
            visited: Vec::new(),
            states: Vec::new(),
            parent: Vec::new(),
            via: Vec::new(),
            edges: Vec::new(),
            jumps: Vec::new(),
            eps_jumps: Vec::new(),
            reused: 0,
            subsumed: 0,
            capped: false,
        };
        if max_nodes == 0 {
            return run;
        }
        let adjacency = vass.action_csr();
        let root_row = vec![0u64; self.dim];
        let (root, _) = self.intern(init as u32, &root_row);
        // Visit the root directly (its antichain bucket is necessarily
        // empty after the lazy clear, so no subsumption check applies).
        self.visit_gen[root as usize] = gen;
        self.visit_idx[root as usize] = 0;
        self.ovl_parent[root as usize] = NONE;
        if self.gen_of[root as usize] != gen {
            run.reused += 1;
        }
        run.visited.push(root);
        run.states.push(init as u32);
        run.parent.push(NONE);
        run.via.push(NONE);
        let s = init;
        self.bucket_gen[s] = gen;
        self.buckets[s].clear();
        self.buckets[s].push(root);

        let mut worklist = VecDeque::from([root]);
        let mut current = vec![0u64; self.dim];
        let mut next = vec![0u64; self.dim];
        let accelerable = self.dim > 0;

        while let Some(id) = worklist.pop_front() {
            let node = id as usize;
            // Retro-pruned before expansion: its ε-jump to the dominator
            // stands in for the whole subtree (the dominator's markings
            // cover everything this node could reach — monotonicity).
            if self.pruned_gen[node] == gen {
                continue;
            }
            let from_vidx = self.visit_idx[node];
            let span = self.span_of[node];
            if span != NONE {
                // Replay the stored complete successor list: no delta
                // arithmetic, no acceleration, no interning.
                let (start, len) = self.spans[span as usize];
                for k in 0..len {
                    let (action, to) = self.succs[(start + k) as usize];
                    self.visit_or_link(&mut run, from_vidx, id, action, to, max_nodes, &mut worklist);
                }
                continue;
            }
            // Fresh expansion: compute, accelerate against the overlay
            // ancestor chain, intern into the arena — and remember the
            // successor list for every later query if nothing was dropped.
            let state = self.states[node] as usize;
            current.copy_from_slice(row_of(&self.rows, self.dim, id));
            if accelerable {
                self.anc_build(id);
            }
            let mut complete = true;
            let start = self.succs.len();
            for &action_idx in adjacency.actions_from(state) {
                let action = &vass.actions[action_idx as usize];
                if !add_into(&current, &action.delta, &mut next) {
                    continue;
                }
                if accelerable {
                    self.anc_accelerate(action.to as u32, &mut next);
                }
                // Always interned — even when traversal prunes it below —
                // so the stored span records the node's true successors.
                let (to, _) = self.intern(action.to as u32, &next);
                self.succs.push((action_idx, to));
                if !self.visit_or_link(&mut run, from_vidx, id, action_idx, to, max_nodes, &mut worklist)
                {
                    complete = false;
                }
            }
            if complete {
                let len = (self.succs.len() - start) as u32;
                self.span_of[node] = self.spans.len() as u32;
                self.spans.push((start as u32, len));
            } else {
                self.succs.truncate(start);
            }
        }
        run
    }

    /// Routes one successor `(action, to)` of the node at `from_vidx`:
    /// a real edge when `to` is already visited this query, a jump edge
    /// when an antichain member covers it (arrival pruning), a drop at the
    /// node cap (returns `false`: the expansion is incomplete), or a fresh
    /// visit — which also retro-prunes any antichain members the new
    /// marking strictly dominates.
    #[allow(clippy::too_many_arguments)]
    fn visit_or_link(
        &mut self,
        run: &mut SharedRun,
        from_vidx: u32,
        from_id: u32,
        action: u32,
        to: u32,
        max_nodes: usize,
        worklist: &mut VecDeque<u32>,
    ) -> bool {
        let gen = self.generation;
        let node = to as usize;
        if self.visit_gen[node] == gen {
            // Equal markings intern to the same arena node, so a visited
            // hit is an exact successor: a real edge (even when the target
            // was later retro-pruned — its marking is still exact).
            run.edges.push((from_vidx, action, self.visit_idx[node]));
            return true;
        }
        let s = self.states[node] as usize;
        if self.bucket_gen[s] != gen {
            self.bucket_gen[s] = gen;
            self.buckets[s].clear();
        }
        // Arrival pruning: covered by an antichain member? (Strict
        // domination is implied — an equal marking would be the same
        // arena node, caught by the visited check above.)
        let dim = self.dim;
        let row = &self.rows;
        if let Some(&dom) = self.buckets[s]
            .iter()
            .find(|&&u| dominates(row_of(row, dim, u), row_of(row, dim, to)))
        {
            run.subsumed += 1;
            run.jumps.push((from_vidx, action, self.visit_idx[dom as usize]));
            return true;
        }
        if run.visited.len() >= max_nodes {
            run.capped = true;
            return false;
        }
        // Visit.
        let vidx = run.visited.len() as u32;
        self.visit_gen[node] = gen;
        self.visit_idx[node] = vidx;
        self.ovl_parent[node] = from_id;
        if self.gen_of[node] != gen {
            run.reused += 1;
        }
        run.visited.push(to);
        run.states.push(self.states[node]);
        run.parent.push(from_vidx);
        run.via.push(action);
        run.edges.push((from_vidx, action, vidx));
        // Retro-pruning: antichain members strictly dominated by the
        // newcomer yield to it. Each pruned node gets a zero-effect ε-jump
        // to the dominator (saturation for the completeness tier) and is
        // skipped at pop if not yet expanded.
        let (rows, buckets, pruned_gen, visit_idx) = (
            &self.rows,
            &mut self.buckets[s],
            &mut self.pruned_gen,
            &self.visit_idx,
        );
        buckets.retain(|&u| {
            if dominates(row_of(rows, dim, to), row_of(rows, dim, u)) {
                pruned_gen[u as usize] = gen;
                run.eps_jumps.push((visit_idx[u as usize], vidx));
                run.subsumed += 1;
                false
            } else {
                true
            }
        });
        self.buckets[s].push(to);
        worklist.push_back(to);
        true
    }

    /// Returns the canonical arena node for `(state, row)` and whether it
    /// was newly created. Unlike the from-scratch builder's interner this
    /// one is uncapped — the per-query budget caps *visits*, while arena
    /// nodes persist precisely so later queries can reuse them.
    fn intern(&mut self, state: u32, row: &[u64]) -> (u32, bool) {
        let hash = hash_key(state, row);
        let mut slot = (hash as usize) & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == 0 {
                break;
            }
            let id = (entry - 1) as usize;
            if self.hashes[id] == hash
                && self.states[id] == state
                && row_of(&self.rows, self.dim, entry - 1) == row
            {
                return (entry - 1, false);
            }
            slot = (slot + 1) & self.mask;
        }
        let id = u32::try_from(self.states.len())
            .expect("shared coverability arena overflow: more than u32::MAX nodes");
        self.states.push(state);
        self.rows.extend_from_slice(row);
        self.hashes.push(hash);
        self.gen_of.push(self.generation);
        self.span_of.push(NONE);
        self.visit_gen.push(0);
        self.visit_idx.push(0);
        self.ovl_parent.push(NONE);
        self.pruned_gen.push(0);
        self.table[slot] = id + 1;
        if (self.states.len() + 1) * 8 > self.table.len() * 7 {
            self.grow_table();
        }
        (id, true)
    }

    fn grow_table(&mut self) {
        let new_len = self.table.len() * 2;
        self.mask = new_len - 1;
        self.table.clear();
        self.table.resize(new_len, 0);
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & self.mask;
            while self.table[slot] != 0 {
                slot = (slot + 1) & self.mask;
            }
            self.table[slot] = id as u32 + 1;
        }
    }

    /// Rebuilds the overlay ancestor index for `node` (inclusive): the same
    /// stamped per-control-state chain as the from-scratch builder's
    /// `AncestorIndex`, but walking this query's overlay parents, so the
    /// chain crosses reused arena territory transparently.
    fn anc_build(&mut self, node: u32) {
        self.anc_current += 1;
        self.anc_entries.clear();
        let mut a = node;
        while a != NONE {
            let s = self.states[a as usize] as usize;
            if self.anc_stamp[s] != self.anc_current {
                self.anc_stamp[s] = self.anc_current;
                self.anc_head[s] = 0;
                self.anc_tail[s] = 0;
            }
            let idx = self.anc_entries.len() as u32 + 1;
            self.anc_entries.push((a, 0));
            if self.anc_tail[s] == 0 {
                self.anc_head[s] = idx;
            } else {
                self.anc_entries[(self.anc_tail[s] - 1) as usize].1 = idx;
            }
            self.anc_tail[s] = idx;
            a = self.ovl_parent[a as usize];
        }
    }

    /// ω-accelerates `next` against the indexed overlay ancestors with
    /// control state `state` — semantics identical to the from-scratch
    /// builder's `AncestorIndex::accelerate`.
    fn anc_accelerate(&self, state: u32, next: &mut [u64]) {
        let s = state as usize;
        if self.anc_stamp[s] != self.anc_current {
            return;
        }
        let mut e = self.anc_head[s];
        while e != 0 {
            let (node, next_entry) = self.anc_entries[(e - 1) as usize];
            let row = row_of(&self.rows, self.dim, node);
            let mut dominated = true;
            let mut strictly = false;
            for (a, n) in row.iter().zip(next.iter()) {
                if *a > *n {
                    dominated = false;
                    break;
                }
                if *a < *n {
                    strictly = true;
                }
            }
            if dominated && strictly {
                for (a, n) in row.iter().zip(next.iter_mut()) {
                    if *a < *n {
                        *n = OMEGA;
                    }
                }
            }
            e = next_entry;
        }
    }
}

impl SharedRun {
    /// Nodes visited by this query, in visit order.
    pub fn node_count(&self) -> usize {
        self.visited.len()
    }

    /// Control state of the node at `vidx` (visit order).
    pub fn state(&self, vidx: usize) -> usize {
        self.states[vidx] as usize
    }

    /// Control states in visit order — the shared analogue of iterating a
    /// from-scratch graph's nodes. Every yielded state is genuinely
    /// coverable from this query's initial configuration (pruned nodes were
    /// visited before pruning, and their markings are exact).
    pub fn states(&self) -> impl Iterator<Item = usize> + '_ {
        self.states.iter().map(|&s| s as usize)
    }

    /// The action sequence labelling the overlay tree path from the root to
    /// the node at `vidx`.
    pub fn path_to_node(&self, vidx: usize) -> Vec<usize> {
        let mut actions = Vec::new();
        let mut n = vidx as u32;
        while self.parent[n as usize] != NONE {
            actions.push(self.via[n as usize] as usize);
            n = self.parent[n as usize];
        }
        actions.reverse();
        actions
    }

    /// The real edges as [`DeltaEdge`]s over visit indices.
    fn real_delta_edges<'a>(&self, vass: &'a Vass) -> Vec<DeltaEdge<'a>> {
        self.edges
            .iter()
            .map(|&(from, action, to)| DeltaEdge {
                from: from as usize,
                to: to as usize,
                delta: &vass.actions[action as usize].delta,
            })
            .collect()
    }

    /// **Sound** lasso evidence: does a closed walk with componentwise
    /// non-negative summed effect pass through a predicate state using
    /// *real* edges only? Real edges carry exact successor markings, so a
    /// witness here pumps into an actual infinite run (the classic
    /// Karp–Miller argument); jump edges are excluded because their
    /// targets over-approximate the successor.
    pub fn nonneg_cycle_through_pred(&self, vass: &Vass, target: &dyn Fn(usize) -> bool) -> bool {
        cycle::nonneg_cycle_exists(
            self.node_count(),
            vass.dim,
            &self.real_delta_edges(vass),
            &|node| target(self.states[node] as usize),
        )
    }

    /// [`Self::nonneg_cycle_through_pred`] with the walk materialized as
    /// `(from, action, to)` triples over visit indices (cap semantics as in
    /// [`crate::CoverabilityGraph::nonneg_cycle_search_through_pred`]).
    pub fn nonneg_cycle_search_through_pred(
        &self,
        vass: &Vass,
        target: &dyn Fn(usize) -> bool,
        max_len: usize,
    ) -> CycleSearch<(usize, usize, usize)> {
        cycle::nonneg_cycle_search(
            self.node_count(),
            vass.dim,
            &self.real_delta_edges(vass),
            &|node| target(self.states[node] as usize),
            max_len,
        )
        .map_edges(|i| {
            let (f, a, t) = self.edges[i];
            (f as usize, a as usize, t as usize)
        })
    }

    /// **Complete** lasso evidence: the same decision over real edges
    /// *plus* jump edges (at their action's effect) and retro-pruning
    /// ε-jumps (at zero effect). Any real lasso shadow-maps into this
    /// augmented graph — iterate the real pump cycle, follow the saturated
    /// edge relation, and pigeonhole on (node, cycle position): the
    /// resulting closed walk repeats the cycle's action multiset, whose
    /// summed effect is non-negative. So `false` here **refutes** the
    /// lasso outright; `true` alone proves nothing (a jump target may be
    /// unjustifiably large) — decide `true` via
    /// [`Self::nonneg_cycle_through_pred`] or a from-scratch build.
    pub fn augmented_nonneg_cycle_through_pred(
        &self,
        vass: &Vass,
        target: &dyn Fn(usize) -> bool,
    ) -> bool {
        let zero = vec![0i64; vass.dim];
        let mut edges = self.real_delta_edges(vass);
        edges.extend(self.jumps.iter().map(|&(from, action, to)| DeltaEdge {
            from: from as usize,
            to: to as usize,
            delta: &vass.actions[action as usize].delta,
        }));
        edges.extend(self.eps_jumps.iter().map(|&(from, to)| DeltaEdge {
            from: from as usize,
            to: to as usize,
            delta: &zero,
        }));
        cycle::nonneg_cycle_exists(self.node_count(), vass.dim, &edges, &|node| {
            target(self.states[node] as usize)
        })
    }

    /// The marking of the node at `vidx`, read back from the arena (for
    /// tests and diagnostics; the run itself stores no markings).
    pub fn marking<'a>(&self, arena: &'a SharedCoverability, vidx: usize) -> &'a [u64] {
        row_of(&arena.rows, arena.dim, self.visited[vidx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverability::CoverabilityGraph;
    use crate::vass::Vass;
    use std::collections::BTreeSet;

    fn pump_drain(d: usize) -> Vass {
        let mut v = Vass::new(2, d);
        for i in 0..d {
            let mut up = vec![0i64; d];
            up[i] = 1;
            v.add_action(0, up, 0);
            let mut down = vec![0i64; d];
            down[i] = -1;
            v.add_action(1, down, 1);
        }
        v.add_action(0, vec![0; d], 1);
        v
    }

    fn coverable_states(run: &SharedRun) -> BTreeSet<usize> {
        run.states().collect()
    }

    fn reference_states(vass: &Vass, init: usize) -> BTreeSet<usize> {
        CoverabilityGraph::build(vass, init)
            .nodes()
            .map(|n| n.state)
            .collect()
    }

    #[test]
    fn shared_matches_from_scratch_state_sets() {
        let v = pump_drain(3);
        let mut arena = SharedCoverability::new(&v);
        for init in [0usize, 1, 0, 1] {
            let run = arena.query(&v, init, usize::MAX);
            assert!(!run.capped);
            assert_eq!(coverable_states(&run), reference_states(&v, init));
        }
    }

    #[test]
    fn second_identical_query_reuses_the_arena() {
        let v = pump_drain(2);
        let mut arena = SharedCoverability::new(&v);
        let first = arena.query(&v, 0, usize::MAX);
        assert_eq!(first.reused, 0);
        let nodes = arena.arena_nodes();
        let second = arena.query(&v, 0, usize::MAX);
        assert_eq!(second.reused, second.node_count());
        assert_eq!(arena.arena_nodes(), nodes, "replay interns nothing new");
        assert_eq!(coverable_states(&first), coverable_states(&second));
    }

    #[test]
    fn subsumption_prunes_dominated_markings() {
        // One state pumping one counter: 0 -> 1 -> ω from-scratch; the
        // antichain additionally retro-prunes 0 and 1 once ω lands.
        let mut v = Vass::new(1, 1);
        v.add_action(0, vec![1], 0);
        let mut arena = SharedCoverability::new(&v);
        let run = arena.query(&v, 0, usize::MAX);
        assert!(run.subsumed > 0);
        assert_eq!(coverable_states(&run), reference_states(&v, 0));
    }

    #[test]
    fn repeat_queries_are_deterministic() {
        let v = pump_drain(3);
        let mut a = SharedCoverability::new(&v);
        let mut b = SharedCoverability::new(&v);
        for init in [0usize, 1, 0] {
            let ra = a.query(&v, init, usize::MAX);
            let rb = b.query(&v, init, usize::MAX);
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
    }

    #[test]
    fn cap_zero_yields_an_empty_run() {
        let v = pump_drain(1);
        let mut arena = SharedCoverability::new(&v);
        let run = arena.query(&v, 0, 0);
        assert_eq!(run.node_count(), 0);
        assert!(!run.capped);
    }

    #[test]
    fn capped_run_marks_truncation_and_stores_no_span() {
        let v = pump_drain(3);
        let mut arena = SharedCoverability::new(&v);
        let capped = arena.query(&v, 0, 2);
        assert!(capped.capped);
        assert!(capped.node_count() <= 2);
        // A later uncapped query must not trust holes left by the cap.
        let full = arena.query(&v, 0, usize::MAX);
        assert!(!full.capped);
        assert_eq!(coverable_states(&full), reference_states(&v, 0));
    }

    #[test]
    fn real_cycle_decision_matches_reference_on_pump_drain() {
        let v = pump_drain(2);
        let reference = CoverabilityGraph::build(&v, 0);
        let expect = reference.nonneg_cycle_through_pred(&v, &|s| s == 0);
        let mut arena = SharedCoverability::new(&v);
        let run = arena.query(&v, 0, usize::MAX);
        let sound = run.nonneg_cycle_through_pred(&v, &|s| s == 0);
        let complete = run.augmented_nonneg_cycle_through_pred(&v, &|s| s == 0);
        // The tiers bracket the truth.
        assert!(!sound || expect);
        assert!(complete || !expect);
        assert_eq!(sound, expect, "pump-drain decides on real edges alone");
    }

    #[test]
    fn path_to_node_chains_control_states_from_the_root() {
        let v = pump_drain(2);
        let mut arena = SharedCoverability::new(&v);
        let run = arena.query(&v, 0, usize::MAX);
        for vidx in 0..run.node_count() {
            let path = run.path_to_node(vidx);
            let mut state = 0usize;
            for a in path {
                assert_eq!(v.actions[a].from, state);
                state = v.actions[a].to;
            }
            assert_eq!(state, run.state(vidx));
        }
    }
}
