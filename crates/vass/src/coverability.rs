//! Karp–Miller coverability graph with ω-acceleration, exact or
//! subsumption-pruned.
//!
//! The graph stores its nodes in dense arenas (DESIGN.md §5.8): markings
//! live in one flat row-major `Vec<u64>` arena, the `(state, marking) → id`
//! canonicalization is a hand-rolled open-addressing interner whose table
//! holds node ids (so a lookup hit clones nothing and a miss copies the
//! candidate marking exactly once, into the arena), and ω-acceleration
//! consults a per-expansion ancestor index instead of re-walking the full
//! parent chain per successor. Node ids are assigned in BFS-discovery
//! order, which is what makes every downstream iteration deterministic.
//!
//! Two builds share that machinery (DESIGN.md §5.12):
//!
//! * the **exact** build ([`CoverabilityGraph::build`] and its capped and
//!   target-stopped variants) interns every distinct successor;
//! * the **pruned** build ([`CoverabilityGraph::build_pruned`]) keeps a
//!   per-control-state **antichain** of its markings (componentwise `≤`
//!   with [`OMEGA`] as ⊤): a successor covered by an existing marking is
//!   not interned (*arrival pruning*), and when a strictly larger marking
//!   lands, dominated antichain members are *retro-pruned* — dropped from
//!   the antichain and, if not yet expanded, never expanded. Both prunings
//!   record **jump edges** to the dominating node, so the graph stays
//!   *saturated*: every node has, per firable action, an edge (real or
//!   jump) to a node whose marking dominates the computed successor.
//!
//! Saturation is what keeps the pruned build exact for the verifier's
//! questions. Its control-state set equals the exact build's (a pruned
//! successor is covered by a node of the same state, and monotonicity
//! lets the covering node reach everything the pruned one could). For
//! lassos, a non-negative cycle over *real* edges is sound evidence, and
//! the absence of one over real plus jump edges refutes the lasso
//! ([`CoverabilityGraph::augmented_nonneg_cycle_through_pred`]).

use crate::cycle::{self, DeltaEdge};
use crate::dense::FxHasher;
use crate::vass::Vass;
use std::hash::Hasher;

/// The ω value of a marking coordinate ("arbitrarily large").
pub const OMEGA: u64 = u64::MAX;

/// An extended marking: one value per counter, where [`OMEGA`] means the
/// counter can be pumped above any bound.
pub type Marking = Vec<u64>;

/// Sentinel for "no parent node / no incoming action" in the dense arrays.
const NONE: u32 = u32::MAX;

/// Adds `delta` to `marking` into `out` (ω absorbs). Returns `false` when a
/// non-ω coordinate would go negative.
fn add_into(marking: &[u64], delta: &[i64], out: &mut [u64]) -> bool {
    for ((m, d), o) in marking.iter().zip(delta).zip(out.iter_mut()) {
        if *m == OMEGA {
            *o = OMEGA;
        } else {
            let v = (*m as i128) + (*d as i128);
            if v < 0 {
                return false;
            }
            *o = v as u64;
        }
    }
    true
}

/// `a` componentwise dominates `b` (`≥` with [`OMEGA`] as ⊤, which plain
/// `u64` comparison already gives since `OMEGA == u64::MAX`).
fn dominates(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y)
}

/// A view of one coverability-graph node. The marking borrows the graph's
/// row arena; everything else is copied out of the dense columns.
#[derive(Clone, Copy, Debug)]
pub struct NodeRef<'a> {
    /// Control state.
    pub state: usize,
    /// Extended marking (one row of the arena).
    pub marking: &'a [u64],
    /// Parent node id in the Karp–Miller tree (`None` for the root).
    pub parent: Option<usize>,
    /// The index (into the VASS action list) of the action taken from the
    /// parent.
    pub via_action: Option<usize>,
}

/// The Karp–Miller coverability graph of a VASS from a given initial control
/// state (with all counters initially zero).
///
/// Nodes with identical `(state, marking)` pairs are canonicalized; edges
/// record the underlying VASS action so that cycle effects can be computed
/// exactly.
#[derive(Clone, Debug)]
pub struct CoverabilityGraph {
    dim: usize,
    /// Control state per node.
    states: Vec<u32>,
    /// Flat row-major marking arena: node `i`'s marking is
    /// `rows[i*dim .. (i+1)*dim]`.
    rows: Vec<u64>,
    /// Parent node per node ([`NONE`] for the root).
    parent: Vec<u32>,
    /// Incoming action per node ([`NONE`] for the root).
    via: Vec<u32>,
    /// Cached interner hash per node (so table growth never re-reads rows).
    hashes: Vec<u64>,
    /// Real edges `(from_node, action_index, to_node)` in discovery order:
    /// the target's marking is exactly the (accelerated) successor. The
    /// edge *indices* are part of the determinism contract (cycle witnesses
    /// are reported as indices into this list).
    edges: Vec<(u32, u32, u32)>,
    /// Pruned build only — arrival-pruning jump edges `(from, action, to)`:
    /// the target *strictly dominates* the computed successor.
    jumps: Vec<(u32, u32, u32)>,
    /// Pruned build only — retro-pruning ε-jumps `(pruned, dominator)`,
    /// with zero effect.
    eps_jumps: Vec<(u32, u32)>,
    /// Successors not interned because a marking covered them, plus nodes
    /// retro-pruned by a later, larger marking (pruned build only).
    subsumed: usize,
    /// Whether the node cap dropped any successor.
    capped: bool,
    /// Open-addressing interner table over `(state, marking)`: slots hold
    /// `node id + 1` (`0` = empty); length is a power of two.
    table: Vec<u32>,
    mask: usize,
}

/// Deterministic hash of an interner key (control state + marking row).
fn hash_key(state: u32, row: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(state);
    for &w in row {
        h.write_u64(w);
    }
    h.finish()
}

/// An interner miss: the key's hash and the empty slot its probe ended on.
#[derive(Clone, Copy)]
struct Probe {
    hash: u64,
    slot: usize,
}

/// The per-expansion ancestor index for ω-acceleration: one walk up the
/// parent chain of the node being expanded builds, per control state, the
/// chain of its ancestors with that state (nearest first). Each successor
/// candidate then scans exactly the ancestors sharing its target state —
/// O(1) lookup plus O(width) per *matching* ancestor — instead of
/// re-walking the whole chain per candidate. Scratch buffers are stamped,
/// so reuse across expansions (and across builds) is O(chain length), not
/// O(|states|).
#[derive(Clone, Debug)]
struct AncestorIndex {
    /// Per control state: index+1 of the first (nearest) chain entry.
    head: Vec<u32>,
    /// Per control state: index+1 of the last chain entry (for appends).
    tail: Vec<u32>,
    /// Stamp validating `head`/`tail` for the current expansion.
    stamp: Vec<u64>,
    current: u64,
    /// Chain entries `(node id, index+1 of next entry with the same state)`.
    entries: Vec<(u32, u32)>,
}

impl AncestorIndex {
    fn new(num_states: usize) -> Self {
        AncestorIndex {
            head: vec![0; num_states],
            tail: vec![0; num_states],
            stamp: vec![0; num_states],
            current: 0,
            entries: Vec::new(),
        }
    }

    /// Rebuilds the index for the ancestors of `node` (inclusive).
    fn build(&mut self, graph: &CoverabilityGraph, node: u32) {
        self.current += 1;
        self.entries.clear();
        let mut a = node;
        while a != NONE {
            let s = graph.states[a as usize] as usize;
            if self.stamp[s] != self.current {
                self.stamp[s] = self.current;
                self.head[s] = 0;
                self.tail[s] = 0;
            }
            let idx = self.entries.len() as u32 + 1;
            self.entries.push((a, 0));
            if self.tail[s] == 0 {
                self.head[s] = idx;
            } else {
                self.entries[(self.tail[s] - 1) as usize].1 = idx;
            }
            self.tail[s] = idx;
            a = graph.parent[a as usize];
        }
    }

    /// ω-accelerates `next` against the indexed ancestors with control state
    /// `state`: any ancestor whose marking is dominated by (and not equal
    /// to) the current `next` pumps the strictly larger coordinates to ω.
    /// Ancestors apply nearest-first, exactly like the replaced chain walk.
    fn accelerate(&self, graph: &CoverabilityGraph, state: u32, next: &mut [u64]) {
        let s = state as usize;
        if self.stamp[s] != self.current {
            return;
        }
        let mut e = self.head[s];
        while e != 0 {
            let (node, next_entry) = self.entries[(e - 1) as usize];
            let row = graph.row(node as usize);
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

/// The pruned build's per-control-state antichains of node ids, stamped
/// per build so a new build never pays a clearing pass.
#[derive(Clone, Debug)]
struct Antichains {
    /// The build that last reset each state's member list.
    stamp: Vec<u64>,
    members: Vec<Vec<u32>>,
    current: u64,
}

impl Antichains {
    /// The antichain of control state `state` in the current build.
    fn of(&mut self, state: usize) -> &mut Vec<u32> {
        if self.stamp[state] != self.current {
            self.stamp[state] = self.current;
            self.members[state].clear();
        }
        &mut self.members[state]
    }
}

/// Per-control-state scratch for [`CoverabilityGraph::build_pruned`]: the
/// ω-acceleration ancestor index and the subsumption antichains. Both are
/// sized by the VASS's state count and stamped per use, so a caller that
/// runs many builds over one VASS allocates them once and passes the same
/// scratch to every build.
#[derive(Clone, Debug)]
pub struct KmScratch {
    ancestors: AncestorIndex,
    antichains: Antichains,
}

impl KmScratch {
    /// Scratch for builds over a VASS with `num_states` control states.
    pub fn new(num_states: usize) -> Self {
        KmScratch {
            ancestors: AncestorIndex::new(num_states),
            antichains: Antichains {
                stamp: vec![0; num_states],
                members: vec![Vec::new(); num_states],
                current: 0,
            },
        }
    }
}

impl CoverabilityGraph {
    fn empty(dim: usize) -> Self {
        CoverabilityGraph {
            dim,
            states: Vec::new(),
            rows: Vec::new(),
            parent: Vec::new(),
            via: Vec::new(),
            hashes: Vec::new(),
            edges: Vec::new(),
            jumps: Vec::new(),
            eps_jumps: Vec::new(),
            subsumed: 0,
            capped: false,
            table: vec![0; 16],
            mask: 15,
        }
    }

    /// Builds the coverability graph of `vass` from `(init, 0̄)`.
    pub fn build(vass: &Vass, init: usize) -> Self {
        Self::build_exact(vass, init, usize::MAX, None)
    }

    /// Like [`CoverabilityGraph::build`], but never creates more than
    /// `max_nodes` nodes (the cap is enforced at interning time, so the
    /// documented bound holds exactly — not merely up to the out-degree of
    /// the node being expanded). A truncated graph under-approximates
    /// reachability (everything it contains is genuinely coverable) and
    /// reports [`Self::capped`]; callers that rely on exhaustiveness should
    /// pass `usize::MAX`.
    pub fn build_capped(vass: &Vass, init: usize, max_nodes: usize) -> Self {
        Self::build_exact(vass, init, max_nodes, None)
    }

    /// Like [`CoverabilityGraph::build`], but stops as soon as a node with
    /// control state `target` is interned. The resulting graph is partial:
    /// it is only useful for answering "is `target` coverable?" and for
    /// extracting a witness path to `target` ([`Self::path_to_state`]) —
    /// both of which only need the prefix built so far.
    pub fn build_to_state(vass: &Vass, init: usize, target: usize) -> Self {
        Self::build_exact(vass, init, usize::MAX, Some(target))
    }

    /// The subsumption-pruned build from `(init, 0̄)` with at most
    /// `max_nodes` nodes (see the module docs): same control-state set as
    /// the exact build, usually far fewer nodes. `scratch` must have been
    /// created for `vass`'s state count; reusing it across builds saves its
    /// per-state allocations.
    pub fn build_pruned(
        vass: &Vass,
        init: usize,
        max_nodes: usize,
        scratch: &mut KmScratch,
    ) -> Self {
        debug_assert_eq!(
            scratch.antichains.stamp.len(),
            vass.states,
            "scratch sized for another VASS"
        );
        scratch.antichains.current += 1;
        Self::build_inner(
            vass,
            init,
            max_nodes,
            None,
            &mut scratch.ancestors,
            Some(&mut scratch.antichains),
        )
    }

    fn build_exact(vass: &Vass, init: usize, max_nodes: usize, stop_at: Option<usize>) -> Self {
        let mut ancestors = AncestorIndex::new(vass.states);
        Self::build_inner(vass, init, max_nodes, stop_at, &mut ancestors, None)
    }

    /// The one Karp–Miller loop behind both builds; `antichains` selects
    /// the pruned build.
    fn build_inner(
        vass: &Vass,
        init: usize,
        max_nodes: usize,
        stop_at: Option<usize>,
        ancestors: &mut AncestorIndex,
        mut antichains: Option<&mut Antichains>,
    ) -> Self {
        let mut graph = Self::empty(vass.dim);
        if max_nodes == 0 {
            graph.capped = true;
            return graph;
        }
        // Per-state CSR adjacency, computed once: expansion below touches
        // only the actions leaving the popped state instead of scanning the
        // whole action list per node.
        let adjacency = vass.action_csr();
        let root_row = vec![0u64; vass.dim];
        let root = match graph.find(init as u32, &root_row) {
            Ok(_) => unreachable!("an empty graph has no nodes"),
            Err(probe) => graph.insert(probe, init as u32, &root_row, NONE, NONE),
        };
        if let Some(antichains) = antichains.as_deref_mut() {
            antichains.of(init).push(root);
        }
        if stop_at == Some(init) {
            return graph;
        }
        // Retro-pruned nodes, never expanded: the ε-jump to the dominator
        // stands in for the whole subtree (monotonicity).
        let mut pruned = vec![false];
        // Scratch marking buffers, reused across the whole construction.
        let mut current = vec![0u64; vass.dim];
        let mut next = vec![0u64; vass.dim];
        // Without dimensions acceleration can never fire: skip the ancestor
        // index entirely.
        let accelerable = vass.dim > 0;

        // BFS: ids are assigned in discovery order, so expanding them in id
        // order is the FIFO worklist.
        let mut next_node = 0;
        while next_node < graph.node_count() {
            let node = next_node;
            next_node += 1;
            if pruned[node] {
                continue;
            }
            let node_id = node as u32;
            let state = graph.states[node] as usize;
            current.copy_from_slice(graph.row(node));
            // ω-acceleration: if some ancestor (in the Karp–Miller tree)
            // has the same control state as a successor and a marking
            // strictly dominated by it, the strictly larger coordinates can
            // be pumped. One parent-chain walk per expansion builds the
            // per-state index all successors then consult.
            if accelerable {
                ancestors.build(&graph, node_id);
            }
            for &action_idx in adjacency.actions_from(state) {
                let action = &vass.actions[action_idx as usize];
                if !add_into(&current, &action.delta, &mut next) {
                    continue;
                }
                if accelerable {
                    ancestors.accelerate(&graph, action.to as u32, &mut next);
                }
                let probe = match graph.find(action.to as u32, &next) {
                    Ok(existing) => {
                        graph.edges.push((node_id, action_idx, existing));
                        continue;
                    }
                    Err(probe) => probe,
                };
                // Arrival pruning: covered by an antichain member? (Strict
                // domination is implied — an equal marking would have been
                // found above.)
                if let Some(antichains) = antichains.as_deref_mut() {
                    if let Some(dominator) = graph.covering(antichains.of(action.to), &next) {
                        graph.jumps.push((node_id, action_idx, dominator));
                        graph.subsumed += 1;
                        continue;
                    }
                }
                if graph.node_count() >= max_nodes {
                    // Interning would exceed the node cap: drop the edge and
                    // keep expanding among the existing nodes.
                    graph.capped = true;
                    continue;
                }
                let target = graph.insert(probe, action.to as u32, &next, node_id, action_idx);
                graph.edges.push((node_id, action_idx, target));
                pruned.push(false);
                if let Some(antichains) = antichains.as_deref_mut() {
                    graph.retro_prune(antichains.of(action.to), target, &mut pruned);
                }
                if stop_at == Some(action.to) {
                    return graph;
                }
            }
        }
        graph
    }

    /// The first antichain member whose marking covers `row`, if any.
    fn covering(&self, antichain: &[u32], row: &[u64]) -> Option<u32> {
        antichain
            .iter()
            .copied()
            .find(|&u| dominates(self.row(u as usize), row))
    }

    /// Adds the new node `newcomer` to its state's antichain. Members it
    /// strictly dominates yield to it: each gets a zero-effect ε-jump to
    /// the newcomer (saturation for the augmented refutation) and is
    /// marked pruned, so it is skipped if not yet expanded.
    fn retro_prune(&mut self, antichain: &mut Vec<u32>, newcomer: u32, pruned: &mut [bool]) {
        let dim = self.dim;
        let rows = &self.rows;
        let new_row = &rows[newcomer as usize * dim..][..dim];
        antichain.retain(|&u| {
            let dominated = dominates(new_row, &rows[u as usize * dim..][..dim]);
            if dominated {
                pruned[u as usize] = true;
                self.eps_jumps.push((u, newcomer));
                self.subsumed += 1;
            }
            !dominated
        });
        antichain.push(newcomer);
    }

    /// Looks `(state, row)` up: its node id on a hit, or the probe to
    /// [`Self::insert`] it with on a miss.
    fn find(&self, state: u32, row: &[u64]) -> Result<u32, Probe> {
        debug_assert_eq!(row.len(), self.dim);
        let hash = hash_key(state, row);
        let mut slot = (hash as usize) & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == 0 {
                return Err(Probe { hash, slot });
            }
            let id = (entry - 1) as usize;
            if self.hashes[id] == hash && self.states[id] == state && self.row(id) == row {
                return Ok(entry - 1);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Creates the node for a key [`Self::find`] missed, copying the row
    /// into the arena exactly once.
    fn insert(&mut self, probe: Probe, state: u32, row: &[u64], parent: u32, via: u32) -> u32 {
        let id = u32::try_from(self.states.len())
            .expect("coverability graph overflow: more than u32::MAX nodes");
        self.states.push(state);
        self.rows.extend_from_slice(row);
        self.parent.push(parent);
        self.via.push(via);
        self.hashes.push(probe.hash);
        self.table[probe.slot] = id + 1;
        if (self.states.len() + 1) * 8 > self.table.len() * 7 {
            self.grow_table();
        }
        id
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

    /// The marking row of a node.
    fn row(&self, id: usize) -> &[u64] {
        &self.rows[id * self.dim..(id + 1) * self.dim]
    }

    /// A view of the node with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: usize) -> NodeRef<'_> {
        NodeRef {
            state: self.states[id] as usize,
            marking: self.row(id),
            parent: (self.parent[id] != NONE).then(|| self.parent[id] as usize),
            via_action: (self.via[id] != NONE).then(|| self.via[id] as usize),
        }
    }

    /// Iterates over the nodes in id (BFS-discovery) order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeRef<'_>> {
        (0..self.node_count()).map(|id| self.node(id))
    }

    /// Number of nodes (a cost metric reported by the benchmarks).
    pub fn node_count(&self) -> usize {
        self.states.len()
    }

    /// Number of (real) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over the real edges as `(from_node, action_index, to_node)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.edges
            .iter()
            .map(|&(f, a, t)| (f as usize, a as usize, t as usize))
    }

    /// Successors the pruned build did not intern because an existing
    /// marking covered them, plus nodes it retro-pruned (always `0` for the
    /// exact build).
    pub fn subsumed(&self) -> usize {
        self.subsumed
    }

    /// Whether the node cap dropped any successor: the graph then
    /// under-approximates coverability.
    pub fn capped(&self) -> bool {
        self.capped
    }

    /// A sequence of VASS action indices leading from the root to some node
    /// with the given control state, if one exists.
    pub fn path_to_state(&self, target: usize) -> Option<Vec<usize>> {
        let node = self.states.iter().position(|&s| s as usize == target)?;
        Some(self.path_to_node(node))
    }

    /// The VASS action sequence from the root to the given node, following
    /// the Karp–Miller tree's parent chain (empty for the root). This is the
    /// run *prefix* a counterexample report renders in front of a blocking
    /// point or pump cycle.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn path_to_node(&self, node: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut current = node;
        while self.parent[current] != NONE {
            debug_assert_ne!(
                self.via[current], NONE,
                "non-root nodes record their incoming action"
            );
            path.push(self.via[current] as usize);
            current = self.parent[current] as usize;
        }
        path.reverse();
        path
    }

    /// Decides whether a cycle (closed walk) through some node with control
    /// state `target` has a componentwise non-negative summed action effect —
    /// the witness for state repeated reachability (Lemma 21's lasso).
    ///
    /// The decision is exact and unbounded: it reduces to circulation
    /// feasibility per strongly connected component, solved by exact rational
    /// linear programming with Kosaraju–Sullivan support refinement for
    /// connectivity (see [`crate::cycle`]). The cycle-length cap of the old
    /// depth-first search — which silently missed lassos longer than the cap —
    /// is gone.
    pub fn nonneg_cycle_through(&self, vass: &Vass, target: usize) -> bool {
        self.nonneg_cycle_through_pred(vass, &|s| s == target)
    }

    /// Like [`CoverabilityGraph::nonneg_cycle_through`], but accepts any
    /// control state satisfying the predicate (used by the verifier, where
    /// "accepting" is a property of the encoded Büchi component).
    ///
    /// Only real edges count, so on a pruned build a `true` is **sound**
    /// lasso evidence (real edges carry exact successor markings, so the
    /// cycle pumps into an actual infinite run — the classic Karp–Miller
    /// argument), while a `false` proves nothing.
    pub fn nonneg_cycle_through_pred(&self, vass: &Vass, target: &dyn Fn(usize) -> bool) -> bool {
        cycle::nonneg_cycle_exists(
            self.node_count(),
            vass.dim,
            &self.delta_edges(vass),
            &|node| target(self.states[node] as usize),
        )
    }

    /// Decides [`CoverabilityGraph::nonneg_cycle_through_pred`] and
    /// materializes the pump-cycle witness in one pipeline run
    /// ([`cycle::nonneg_cycle_search`]): on
    /// [`cycle::CycleSearch::Witness`], the walk comes back as
    /// coverability-graph edges `(from_node, action_index, to_node)` in
    /// traversal order, starting (and ending) at a predicate node, with
    /// componentwise non-negative summed action effect — the cycle part of a
    /// lasso counterexample, repeatable forever. The decision itself is
    /// exact regardless of the `max_len` materialization cap.
    pub fn nonneg_cycle_search_through_pred(
        &self,
        vass: &Vass,
        target: &dyn Fn(usize) -> bool,
        max_len: usize,
    ) -> cycle::CycleSearch<(usize, usize, usize)> {
        cycle::nonneg_cycle_search(
            self.node_count(),
            vass.dim,
            &self.delta_edges(vass),
            &|node| target(self.states[node] as usize),
            max_len,
        )
        .map_edges(|i| {
            let (f, a, t) = self.edges[i];
            (f as usize, a as usize, t as usize)
        })
    }

    /// **Complete** lasso evidence for a pruned build: the decision of
    /// [`Self::nonneg_cycle_through_pred`] over real edges *plus* jump
    /// edges (at their action's effect) and retro-pruning ε-jumps (at zero
    /// effect). Any real lasso shadow-maps into this augmented graph —
    /// iterate the real pump cycle, follow the saturated edge relation, and
    /// pigeonhole on (node, cycle position): the resulting closed walk
    /// repeats the cycle's action multiset, whose summed effect is
    /// non-negative. So `false` here **refutes** the lasso outright; `true`
    /// alone proves nothing (a jump target may be unjustifiably large) —
    /// decide `true` via the real edges or an exact build. On an exact
    /// build the two decisions coincide.
    pub fn augmented_nonneg_cycle_through_pred(
        &self,
        vass: &Vass,
        target: &dyn Fn(usize) -> bool,
    ) -> bool {
        let zero = vec![0i64; vass.dim];
        let mut edges = self.delta_edges(vass);
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

    /// The graph's real edges as [`DeltaEdge`]s over coverability nodes,
    /// with each edge *borrowing* its underlying VASS action effect —
    /// building the cycle-search instance copies no delta vectors.
    fn delta_edges<'a>(&self, vass: &'a Vass) -> Vec<DeltaEdge<'a>> {
        self.edges
            .iter()
            .map(|&(from, action, to)| DeltaEdge {
                from: from as usize,
                to: to as usize,
                delta: &vass.actions[action as usize].delta,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn acceleration_produces_omega() {
        let mut v = Vass::new(1, 1);
        v.add_action(0, vec![1], 0);
        let g = CoverabilityGraph::build(&v, 0);
        assert!(g.nodes().any(|n| n.marking == vec![OMEGA]));
        // The graph is finite despite the unbounded counter.
        assert!(g.node_count() <= 3);
    }

    #[test]
    fn negative_moves_from_zero_are_blocked() {
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![-1], 1);
        let g = CoverabilityGraph::build(&v, 0);
        assert!(g.nodes().all(|n| n.state != 1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn path_extraction_reaches_target() {
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![2], 1);
        v.add_action(1, vec![-1], 2);
        let g = CoverabilityGraph::build(&v, 0);
        let path = g.path_to_state(2).unwrap();
        assert_eq!(path.len(), 2);
        assert!(g.path_to_state(0).unwrap().is_empty());
    }

    #[test]
    fn two_dimensional_markings() {
        // Transfer loop: (+1,-1) needs the second counter, which never has
        // tokens, so only the producing action on dim 0 fires.
        let mut v = Vass::new(1, 2);
        v.add_action(0, vec![1, 0], 0);
        v.add_action(0, vec![1, -1], 0);
        let g = CoverabilityGraph::build(&v, 0);
        assert!(g.nodes().any(|n| n.marking[0] == OMEGA));
        assert!(g.nodes().all(|n| n.marking[1] != OMEGA));
    }

    #[test]
    fn nonneg_cycle_detection_respects_sign() {
        // One node, two self loops: -1 and +1. A non-negative cycle exists
        // (+1, or +1 then -1).
        let mut v = Vass::new(1, 1);
        v.add_action(0, vec![1], 0);
        v.add_action(0, vec![-1], 0);
        let g = CoverabilityGraph::build(&v, 0);
        assert!(g.nonneg_cycle_through(&v, 0));

        // Only a decrementing loop: no non-negative cycle, even though the
        // coverability graph has a cycle at ω.
        let mut v2 = Vass::new(2, 1);
        v2.add_action(0, vec![1], 0);
        v2.add_action(0, vec![0], 1);
        v2.add_action(1, vec![-1], 1);
        let g2 = CoverabilityGraph::build(&v2, 0);
        assert!(g2.nonneg_cycle_through(&v2, 0));
        assert!(!g2.nonneg_cycle_through(&v2, 1));
    }

    #[test]
    fn cycle_witness_and_prefix_reconstruct_a_lasso() {
        // 0 --(+1)--> 1 with a balanced two-edge cycle 1 ⇄ 2: the lasso
        // through state 1 has a one-action prefix and a two-edge pump cycle.
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![1], 1);
        v.add_action(1, vec![-1], 2);
        v.add_action(2, vec![1], 1);
        let g = CoverabilityGraph::build(&v, 0);
        assert!(g.nonneg_cycle_through(&v, 1));
        let cycle::CycleSearch::Witness(walk) =
            g.nonneg_cycle_search_through_pred(&v, &|s| s == 1, 10_000)
        else {
            panic!("lasso exists");
        };
        // Chained and closed over coverability nodes, starting at state 1.
        for (k, &(_, _, to)) in walk.iter().enumerate() {
            assert_eq!(to, walk[(k + 1) % walk.len()].0);
        }
        let (start, _, _) = walk[0];
        assert_eq!(g.node(start).state, 1);
        // The prefix to the cycle's start replays to its control state.
        let prefix = g.path_to_node(start);
        assert_eq!(prefix.len(), 1);
        assert_eq!(v.actions[prefix[0]].to, 1);
        // Summed effect of the cycle is non-negative.
        let sum: i64 = walk.iter().map(|&(_, a, _)| v.actions[a].delta[0]).sum();
        assert!(sum >= 0);
    }

    #[test]
    fn node_cap_is_enforced_exactly() {
        // A fan-out of 8 actions from the root: the old pop-time check let
        // one expansion overshoot the cap by its out-degree; the cap must now
        // hold exactly for every value.
        let mut v = Vass::new(9, 1);
        for to in 1..9 {
            v.add_action(0, vec![1], to);
        }
        for cap in 0..=10usize {
            let g = CoverabilityGraph::build_capped(&v, 0, cap);
            assert!(
                g.node_count() <= cap,
                "cap {cap} overshot: {} nodes",
                g.node_count()
            );
        }
        // Uncapped, the graph has the root plus all eight targets.
        assert_eq!(CoverabilityGraph::build(&v, 0).node_count(), 9);
    }

    #[test]
    fn build_to_state_stops_early() {
        // A chain 0 → 1 → … with a huge branching side-structure after the
        // target: stopping at state 1 must not explore the rest.
        let mut v = Vass::new(12, 2);
        v.add_action(0, vec![1, 0], 1);
        for s in 1..11 {
            v.add_action(s, vec![0, 1], s + 1);
            v.add_action(s, vec![1, 1], s);
        }
        let g = CoverabilityGraph::build_to_state(&v, 0, 1);
        assert!(g.nodes().any(|n| n.state == 1));
        let full = CoverabilityGraph::build(&v, 0);
        assert!(g.node_count() < full.node_count());
        // The partial graph still yields a witness path.
        assert_eq!(g.path_to_state(1).unwrap().len(), 1);
    }

    #[test]
    fn duplicate_targets_are_interned_once_and_expanded_once() {
        // Two distinct actions from the root produce the *same* successor
        // `(state 1, [1])`, and a third path reaches it again via state 2:
        // the node must be interned once, re-queued never, and expanded
        // exactly once — observable as exact node and edge counts (a double
        // expansion would duplicate the out-edges of state 1).
        let mut v = Vass::new(4, 1);
        v.add_action(0, vec![1], 1); // root → (1,[1])
        v.add_action(0, vec![1], 1); // duplicate successor
        v.add_action(0, vec![0], 2); // root → (2,[0])
        v.add_action(2, vec![1], 1); // second path to (1,[1])
        v.add_action(1, vec![0], 3); // the out-edge that must appear once per intern
        let g = CoverabilityGraph::build(&v, 0);
        // Nodes: (0,[0]), (1,[1]), (2,[0]), (3,[1]).
        assert_eq!(g.node_count(), 4);
        // Edges: three into (1,[1]), one into (2,[0]), and exactly ONE copy
        // of (1,[1]) → (3,[1]) — five total. A re-expansion of the
        // re-reached node would push a sixth.
        assert_eq!(g.edge_count(), 5);
        let into_3: Vec<_> = g.edges().filter(|&(_, _, to)| g.node(to).state == 3).collect();
        assert_eq!(into_3.len(), 1);
    }

    #[test]
    fn interner_assigns_bfs_discovery_order() {
        // Ids must follow the BFS worklist order, not any value order: the
        // root is 0 and successors number up in discovery order.
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![5], 2); // discovered first, large marking
        v.add_action(0, vec![1], 1); // discovered second, small marking
        let g = CoverabilityGraph::build(&v, 0);
        assert_eq!(g.node(0).state, 0);
        assert_eq!(g.node(1).state, 2);
        assert_eq!(g.node(2).state, 1);
        assert_eq!(g.node(1).marking, &[5]);
    }

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

    fn coverable_states(graph: &CoverabilityGraph) -> BTreeSet<usize> {
        graph.nodes().map(|n| n.state).collect()
    }

    fn pruned(vass: &Vass, init: usize, max_nodes: usize) -> CoverabilityGraph {
        CoverabilityGraph::build_pruned(vass, init, max_nodes, &mut KmScratch::new(vass.states))
    }

    #[test]
    fn pruned_matches_exact_state_sets() {
        let v = pump_drain(3);
        let mut scratch = KmScratch::new(v.states);
        for init in [0usize, 1, 0, 1] {
            let g = CoverabilityGraph::build_pruned(&v, init, usize::MAX, &mut scratch);
            assert!(!g.capped());
            assert_eq!(
                coverable_states(&g),
                coverable_states(&CoverabilityGraph::build(&v, init))
            );
        }
    }

    #[test]
    fn subsumption_prunes_dominated_markings() {
        // One state pumping one counter: 0 -> 1 -> ω in the exact build; the
        // antichain additionally retro-prunes 0 and 1 once ω lands.
        let mut v = Vass::new(1, 1);
        v.add_action(0, vec![1], 0);
        let g = pruned(&v, 0, usize::MAX);
        assert!(g.subsumed() > 0);
        assert_eq!(CoverabilityGraph::build(&v, 0).subsumed(), 0);
        assert_eq!(
            coverable_states(&g),
            coverable_states(&CoverabilityGraph::build(&v, 0))
        );
    }

    #[test]
    fn repeat_queries_are_deterministic() {
        let v = pump_drain(3);
        let mut a = KmScratch::new(v.states);
        let mut b = KmScratch::new(v.states);
        for init in [0usize, 1, 0] {
            let ga = CoverabilityGraph::build_pruned(&v, init, usize::MAX, &mut a);
            let gb = CoverabilityGraph::build_pruned(&v, init, usize::MAX, &mut b);
            assert_eq!(format!("{ga:?}"), format!("{gb:?}"));
        }
    }

    #[test]
    fn cap_zero_yields_an_empty_run() {
        let v = pump_drain(1);
        let g = pruned(&v, 0, 0);
        assert_eq!(g.node_count(), 0);
        // The cap dropped the root itself: the empty search is truncated.
        assert!(g.capped());
        assert!(CoverabilityGraph::build_capped(&v, 0, 0).capped());
    }

    #[test]
    fn capped_run_marks_truncation() {
        let v = pump_drain(3);
        let g = pruned(&v, 0, 2);
        assert!(g.capped());
        assert!(g.node_count() <= 2);
        assert!(!pruned(&v, 0, usize::MAX).capped());
    }

    #[test]
    fn real_cycle_decision_matches_reference_on_pump_drain() {
        let v = pump_drain(2);
        let reference = CoverabilityGraph::build(&v, 0);
        let expect = reference.nonneg_cycle_through_pred(&v, &|s| s == 0);
        let g = pruned(&v, 0, usize::MAX);
        let sound = g.nonneg_cycle_through_pred(&v, &|s| s == 0);
        let complete = g.augmented_nonneg_cycle_through_pred(&v, &|s| s == 0);
        // The tiers bracket the truth.
        assert!(!sound || expect);
        assert!(complete || !expect);
        assert_eq!(sound, expect, "pump-drain decides on real edges alone");
    }

    #[test]
    fn path_to_node_chains_control_states_from_the_root() {
        let v = pump_drain(2);
        let g = pruned(&v, 0, usize::MAX);
        for node in 0..g.node_count() {
            let mut state = 0usize;
            for a in g.path_to_node(node) {
                assert_eq!(v.actions[a].from, state);
                state = v.actions[a].to;
            }
            assert_eq!(state, g.node(node).state);
        }
    }
}
