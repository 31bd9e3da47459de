//! Exact detection of componentwise non-negative cycles.
//!
//! The repeated-reachability check of Lemma 21 asks whether the coverability
//! graph contains a closed walk through a target node whose summed action
//! effect is componentwise non-negative. The previous implementation searched
//! for such walks by depth-first enumeration with dominance pruning — correct
//! only up to its configured length cap, and exponential in practice (the
//! EXP-F3 `d = 5` instance ran for minutes). This module decides the same
//! question exactly, in polynomial time, via a circulation characterization:
//!
//! **Characterization.** A closed walk through a target node with
//! componentwise non-negative total effect exists iff some edge set `S`
//! inside a single strongly connected component admits rational edge
//! multiplicities `x_e > 0` for `e ∈ S` such that
//!
//! 1. flow is conserved at every node (`Σ in = Σ out`),
//! 2. the summed effect `Σ x_e·δ_e` is componentwise `≥ 0`,
//! 3. some edge leaving a target node carries flow, and
//! 4. `S` is weakly connected.
//!
//! *Soundness:* scale `x` to integers and duplicate each edge `x_e` times;
//! conservation makes the multigraph balanced, so its weakly connected
//! support carries an Eulerian circuit — a single closed walk through the
//! target with effect `Σ x_e·δ_e ≥ 0`. *Completeness:* the edge-usage counts
//! of a witnessing walk satisfy 1–4, and every edge of a closed walk lies in
//! one SCC.
//!
//! Conditions 1–3 are rational linear feasibility, decided by the exact
//! simplex of `has_arith::lp`. Condition 4 is restored in the style of
//! Kosaraju–Sullivan's zero-cycle algorithm: compute the *maximal support*
//! (the set of edges carrying flow in some feasible circulation — a single
//! feasible point realizes all of them at once, since the constraints are
//! closed under addition); if it is weakly connected, accept; otherwise any
//! connected witness lies entirely inside one weak component, so recurse into
//! each component containing a target. Each recursion strictly shrinks the
//! edge set, giving polynomially many LP calls overall.

use has_arith::{LpCmp, LpOutcome, LpProblem, Rational};
use std::collections::BTreeMap;

/// An edge of a cycle-detection instance: `from → to` with counter effect
/// `delta`. The delta is *borrowed* (from the VASS action table, for
/// coverability-graph edges), so building an instance over E edges copies
/// no vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaEdge<'a> {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Counter effect of traversing the edge.
    pub delta: &'a [i64],
}

/// Tarjan's strongly-connected-components algorithm (iterative), traversing
/// a CSR adjacency built in two counting passes (no per-node allocations).
///
/// Returns one component id per node (components are numbered in reverse
/// topological order) and the number of components.
pub fn strongly_connected_components(
    num_nodes: usize,
    edges: &[(usize, usize)],
) -> (Vec<usize>, usize) {
    const UNSET: usize = usize::MAX;
    // CSR adjacency: `targets[offsets[v]..offsets[v+1]]` are v's successors,
    // in edge-list order (the counting sort is stable).
    let mut offsets = vec![0u32; num_nodes + 1];
    for &(from, _) in edges {
        offsets[from + 1] += 1;
    }
    for v in 0..num_nodes {
        offsets[v + 1] += offsets[v];
    }
    let mut targets = vec![0u32; edges.len()];
    let mut cursor = offsets.clone();
    for &(from, to) in edges {
        targets[cursor[from] as usize] = to as u32;
        cursor[from] += 1;
    }
    let degree = |v: usize| (offsets[v + 1] - offsets[v]) as usize;
    let mut index = vec![UNSET; num_nodes];
    let mut low = vec![0usize; num_nodes];
    let mut comp = vec![UNSET; num_nodes];
    let mut on_stack = vec![false; num_nodes];
    let mut stack: Vec<usize> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    let mut next_index = 0usize;
    let mut comp_count = 0usize;

    for root in 0..num_nodes {
        if index[root] != UNSET {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some(&(v, child)) = call.last() {
            if child < degree(v) {
                call.last_mut().expect("non-empty call stack").1 += 1;
                let w = targets[offsets[v] as usize + child] as usize;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("SCC stack holds the root");
                        on_stack[w] = false;
                        comp[w] = comp_count;
                        if w == v {
                            break;
                        }
                    }
                    comp_count += 1;
                }
            }
        }
    }
    (comp, comp_count)
}

/// Sufficient fast path of [`nonneg_cycle_search`]: a closed walk through a
/// target that uses only *monotone* edges (componentwise non-negative
/// `delta`) is already a witness — each edge contributes `≥ 0`, so the sum
/// does too. Decided by SCC reachability over the monotone
/// subgraph, `O(V + E·dim)`, no LP. This is the common shape on
/// ω-saturated coverability graphs (pump loops repeat increments), where
/// the circulation machinery otherwise grinds through huge strongly
/// connected components; a miss here costs one SCC pass and falls through
/// to the exact decision — unless every edge is monotone, when the SCCs
/// computed here are the whole graph's and a miss decides `None`
/// ([`Monotone::NoCycle`]).
///
/// Returns [`Monotone::Walk`] with a materialized walk (edge indices,
/// starting at a target) — the shortest monotone cycle through the first
/// qualifying target, found by BFS inside its component.
fn monotone_cycle(
    num_nodes: usize,
    edges: &[DeltaEdge<'_>],
    is_target: &dyn Fn(usize) -> bool,
) -> Monotone {
    let monotone: Vec<usize> = edges
        .iter()
        .enumerate()
        .filter(|(_, e)| e.delta.iter().all(|&d| d >= 0))
        .map(|(i, _)| i)
        .collect();
    if monotone.is_empty() {
        return Monotone::Undecided;
    }
    let pairs: Vec<(usize, usize)> = monotone
        .iter()
        .map(|&i| (edges[i].from, edges[i].to))
        .collect();
    let (comp, _) = strongly_connected_components(num_nodes, &pairs);
    // A monotone edge t → v with comp[t] == comp[v] and t a target closes
    // into a cycle through t (self-loops included).
    let Some(&first) = monotone.iter().find(|&&i| {
        let e = &edges[i];
        is_target(e.from) && comp[e.from] == comp[e.to]
    }) else {
        // With every edge monotone these are the SCCs of the whole graph,
        // and no target has an edge inside its own: no closed walk passes
        // through a target at all.
        return if monotone.len() == edges.len() {
            Monotone::NoCycle
        } else {
            Monotone::Undecided
        };
    };
    let target = edges[first].from;
    if edges[first].to == target {
        return Monotone::Walk(vec![first]);
    }
    // BFS from the edge's head back to the target inside the component,
    // tracking the incoming monotone edge per node.
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    for &i in &monotone {
        let e = &edges[i];
        if comp[e.from] == comp[target] && comp[e.to] == comp[target] {
            adjacency[e.from].push(i);
        }
    }
    let mut via = vec![usize::MAX; num_nodes];
    let mut queue = std::collections::VecDeque::from([edges[first].to]);
    via[edges[first].to] = first;
    while let Some(v) = queue.pop_front() {
        for &i in &adjacency[v] {
            let to = edges[i].to;
            if via[to] == usize::MAX {
                via[to] = i;
                if to == target {
                    let mut walk = Vec::new();
                    let mut cur = target;
                    while walk.is_empty() || cur != edges[first].to {
                        let i = via[cur];
                        walk.push(i);
                        cur = edges[i].from;
                    }
                    walk.push(first);
                    walk.reverse();
                    return Monotone::Walk(walk);
                }
                queue.push_back(to);
            }
        }
    }
    // The SCC guarantees a path exists; unreachable in practice, but degrade
    // to the exact decision rather than panic.
    Monotone::Undecided
}

/// What [`monotone_cycle`] settled.
enum Monotone {
    /// A monotone closed walk through a target.
    Walk(Vec<usize>),
    /// Every edge is monotone and no target lies on a cycle: the exact
    /// decision would search the same components and find nothing.
    NoCycle,
    /// Nothing; the exact decision runs.
    Undecided,
}

/// The outcome of [`nonneg_cycle_search`]: the decision *and* (when it can
/// be materialized) the witnessing closed walk, from one pipeline run.
///
/// Generic over the edge representation `E` so wrappers can re-express the
/// walk in their own edge space ([`CycleSearch::map_edges`]) — the search
/// itself produces indices into the searched edge list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CycleSearch<E = usize> {
    /// No closed walk through a target with componentwise non-negative
    /// summed effect exists. Exact and unbounded.
    None,
    /// A witness exists, materialized as a walk of edges: consecutive edges
    /// share a node, the walk is closed, it starts (and ends) at a node
    /// satisfying the target predicate, and its summed `delta` is
    /// componentwise non-negative — a concrete "pump cycle" a
    /// counterexample report can show.
    Witness(Vec<E>),
    /// A witness exists (the decision is still exact), but materializing it
    /// would exceed the caller's traversal cap or overflow the integer
    /// scaling of the circulation. A cap of 0 always lands here when a
    /// witness exists: it asks for the decision only.
    ExceedsCap,
}

impl<E> CycleSearch<E> {
    /// Whether a witnessing walk exists (materialized or not) — the exact
    /// decision, whatever the cap.
    pub fn exists(&self) -> bool {
        !matches!(self, CycleSearch::None)
    }

    /// Re-expresses a materialized walk's edges through `f`, preserving the
    /// other verdicts.
    pub fn map_edges<T>(self, f: impl FnMut(E) -> T) -> CycleSearch<T> {
        match self {
            CycleSearch::None => CycleSearch::None,
            CycleSearch::ExceedsCap => CycleSearch::ExceedsCap,
            CycleSearch::Witness(walk) => CycleSearch::Witness(walk.into_iter().map(f).collect()),
        }
    }
}

/// Decides whether the graph contains a closed walk through a node
/// satisfying `is_target` whose summed `delta` is componentwise
/// non-negative, and materializes that walk in the same pipeline run.
///
/// The walk is built from the witnessing circulation by scaling the rational
/// edge multiplicities to integers and threading an Eulerian circuit through
/// the resulting balanced multigraph; its length is the scaled total flow,
/// so materialization is bounded by `max_len` edge traversals
/// ([`CycleSearch::ExceedsCap`] past the bound — the *decision* is exact
/// either way). `max_len = 0` asks for the decision only: no walk fits, so
/// the search stops at the first component that admits a circulation and
/// never scales or threads one.
pub fn nonneg_cycle_search(
    num_nodes: usize,
    dim: usize,
    edges: &[DeltaEdge<'_>],
    is_target: &dyn Fn(usize) -> bool,
    max_len: usize,
) -> CycleSearch {
    if edges.is_empty() {
        return CycleSearch::None;
    }
    match monotone_cycle(num_nodes, edges, is_target) {
        // The monotone walk is itself a valid witness; past the caller's cap
        // the decision stands and only the rendering is withheld.
        Monotone::Walk(walk) if walk.len() <= max_len => return CycleSearch::Witness(walk),
        Monotone::Walk(_) => return CycleSearch::ExceedsCap,
        Monotone::NoCycle => return CycleSearch::None,
        Monotone::Undecided => {}
    }
    let mut admitted = false;
    for es in target_components(num_nodes, edges, is_target) {
        if let Some((sub, point)) = component_witness(dim, edges, es, is_target) {
            if max_len == 0 {
                return CycleSearch::ExceedsCap;
            }
            if let Some(walk) = eulerian_walk(edges, &sub, &point, is_target, max_len) {
                return CycleSearch::Witness(walk);
            }
            // This component's witness is too large to materialize; another
            // component may still yield a small one.
            admitted = true;
        }
    }
    if admitted {
        CycleSearch::ExceedsCap
    } else {
        CycleSearch::None
    }
}

/// The per-SCC edge sets that contain at least one edge leaving a target
/// node (a witnessing walk leaves its target at least once, and lies within
/// one strongly connected component).
fn target_components(
    num_nodes: usize,
    edges: &[DeltaEdge<'_>],
    is_target: &dyn Fn(usize) -> bool,
) -> Vec<Vec<usize>> {
    let pairs: Vec<(usize, usize)> = edges.iter().map(|e| (e.from, e.to)).collect();
    let (comp, comp_count) = strongly_connected_components(num_nodes, &pairs);
    let mut by_comp: Vec<Vec<usize>> = vec![Vec::new(); comp_count];
    for (i, e) in edges.iter().enumerate() {
        if comp[e.from] == comp[e.to] {
            by_comp[comp[e.from]].push(i);
        }
    }
    by_comp
        .into_iter()
        .filter(|es| es.iter().any(|&i| is_target(edges[i].from)))
        .collect()
}

/// Kosaraju–Sullivan-style support refinement within one SCC's edge set.
///
/// Fast path: *any* feasible circulation whose (accumulated) support is
/// already weakly connected is a complete witness (the target-outflow row
/// guarantees it touches a target), so most queries resolve with a single
/// Phase-I solve. Only a disconnected support triggers the maximal-support
/// computation and the per-component recursion.
///
/// On success, returns the edge subset searched together with a feasible
/// circulation over it whose support is weakly connected — the raw material
/// [`nonneg_cycle_search`] turns into a concrete closed walk.
fn component_witness(
    dim: usize,
    edges: &[DeltaEdge<'_>],
    initial: Vec<usize>,
    is_target: &dyn Fn(usize) -> bool,
) -> Option<(Vec<usize>, Vec<Rational>)> {
    let mut work = vec![initial];
    while let Some(es) = work.pop() {
        match maximal_support(dim, edges, &es, is_target) {
            Support::Infeasible => {}
            Support::ConnectedWitness(point) => return Some((es, point)),
            Support::Disconnected(support) => {
                // A connected witness has connected support inside the
                // maximal support, hence inside exactly one of its weak
                // components.
                for c in weak_components(edges, &support) {
                    if c.iter().any(|&i| is_target(edges[i].from)) {
                        work.push(c);
                    }
                }
            }
        }
    }
    None
}

enum Support {
    /// No circulation through a target exists over this edge set.
    Infeasible,
    /// Some circulation has weakly connected support: a witness exists, and
    /// this point (indexed by position in the searched edge subset) realizes
    /// it.
    ConnectedWitness(Vec<Rational>),
    /// The maximal support (every edge positive in some circulation); its
    /// weak components are more than one.
    Disconnected(Vec<usize>),
}

/// Computes the support structure of the circulations over `es`.
///
/// The maximal support is found by repeatedly maximizing the total flow on
/// the edges not yet known to be supportable: an optimum of zero proves the
/// remainder is zero in *every* solution (all variables are non-negative),
/// while any positive or unbounded outcome enlarges the known support. The
/// constraint set is closed under addition and upward scaling, so the
/// accumulated *sum* of the points seen along the way is itself a feasible
/// circulation realizing the union of their supports — the sum is what a
/// connected verdict returns, and every intermediate sum with connected
/// support short-circuits the computation.
fn maximal_support(
    dim: usize,
    edges: &[DeltaEdge<'_>],
    es: &[usize],
    is_target: &dyn Fn(usize) -> bool,
) -> Support {
    let Some(lp) = circulation_lp(dim, edges, es, is_target) else {
        return Support::Infeasible;
    };
    let Some(first) = lp.feasible_point() else {
        return Support::Infeasible;
    };
    let mut supported = vec![false; es.len()];
    let mut accum = vec![Rational::ZERO; es.len()];
    // Adds a circulation to the accumulated sum and reports whether the
    // accumulated support (exactly the positive coordinates of `accum`,
    // since every point is componentwise non-negative) is weakly connected.
    let absorb =
        |supported: &mut Vec<bool>, accum: &mut Vec<Rational>, point: &[Rational]| -> bool {
            for (p, v) in point.iter().enumerate() {
                if v.is_positive() {
                    supported[p] = true;
                    accum[p] += *v;
                }
            }
            let support: Vec<usize> = supported
                .iter()
                .enumerate()
                .filter(|(_, s)| **s)
                .map(|(p, _)| es[p])
                .collect();
            weak_components(edges, &support).len() == 1
        };
    if absorb(&mut supported, &mut accum, &first) {
        return Support::ConnectedWitness(accum);
    }
    loop {
        let objective: Vec<(usize, Rational)> = (0..es.len())
            .filter(|&p| !supported[p])
            .map(|p| (p, Rational::ONE))
            .collect();
        if objective.is_empty() {
            break;
        }
        let point = match lp.maximize(&objective) {
            LpOutcome::Infeasible => unreachable!("a feasible point was already found"),
            LpOutcome::Optimal { value, point } => {
                if value.is_zero() {
                    // Every remaining edge is zero in every circulation.
                    break;
                }
                point
            }
            LpOutcome::Unbounded { point } => point,
        };
        if absorb(&mut supported, &mut accum, &point) {
            return Support::ConnectedWitness(accum);
        }
    }
    let support: Vec<usize> = es
        .iter()
        .enumerate()
        .filter(|(p, _)| supported[*p])
        .map(|(_, &i)| i)
        .collect();
    if weak_components(edges, &support).len() == 1 {
        // The accumulated sum realizes the whole maximal support at once.
        return Support::ConnectedWitness(accum);
    }
    Support::Disconnected(support)
}

/// Turns a connected circulation into a concrete closed walk: scale the
/// rational multiplicities to integers, duplicate each edge that many times,
/// and thread an Eulerian circuit through the resulting multigraph (balanced
/// by flow conservation; a balanced, weakly connected directed multigraph is
/// strongly connected, so Hierholzer's algorithm always closes the circuit).
///
/// Returns the walk as indices into `edges`, starting at a target node.
/// `None` if the scaled walk would exceed `max_len` traversals or the
/// integer scaling overflows `i128`.
fn eulerian_walk(
    edges: &[DeltaEdge<'_>],
    es: &[usize],
    point: &[Rational],
    is_target: &dyn Fn(usize) -> bool,
    max_len: usize,
) -> Option<Vec<usize>> {
    fn gcd(a: i128, b: i128) -> i128 {
        let (mut a, mut b) = (a.abs(), b.abs());
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a.max(1)
    }
    // Least common multiple of the denominators of the positive coordinates.
    let mut scale: i128 = 1;
    for v in point {
        if v.is_positive() {
            let d = v.denominator();
            scale = scale.checked_mul(d / gcd(scale, d))?;
        }
    }
    // Integer multiplicity per position; total bounded by `max_len`.
    let mut mult: Vec<usize> = Vec::with_capacity(es.len());
    let mut total: usize = 0;
    for v in point {
        let m = if v.is_positive() {
            let scaled = v.numerator().checked_mul(scale / v.denominator())?;
            usize::try_from(scaled).ok()?
        } else {
            0
        };
        total = total.checked_add(m)?;
        if total > max_len {
            return None;
        }
        mult.push(m);
    }
    // Start at a target node that the circulation actually leaves.
    let start = es
        .iter()
        .enumerate()
        .find(|(p, &i)| mult[*p] > 0 && is_target(edges[i].from))
        .map(|(_, &i)| edges[i].from)?;
    // Hierholzer: per-node out-edge lists with remaining-use counters; edges
    // are recorded on backtrack and reversed, the classic iterative form.
    let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (p, &i) in es.iter().enumerate() {
        if mult[p] > 0 {
            adj.entry(edges[i].from).or_default().push(p);
        }
    }
    let mut remaining = mult;
    let mut cursor: BTreeMap<usize, usize> = BTreeMap::new();
    let mut stack: Vec<(usize, Option<usize>)> = vec![(start, None)];
    let mut walk_rev: Vec<usize> = Vec::with_capacity(total);
    while let Some(&(v, via)) = stack.last() {
        let next = adj.get(&v).and_then(|list| {
            let c = cursor.entry(v).or_insert(0);
            while *c < list.len() && remaining[list[*c]] == 0 {
                *c += 1;
            }
            (*c < list.len()).then(|| list[*c])
        });
        match next {
            Some(p) => {
                remaining[p] -= 1;
                stack.push((edges[es[p]].to, Some(p)));
            }
            None => {
                stack.pop();
                if let Some(p) = via {
                    walk_rev.push(p);
                }
            }
        }
    }
    if walk_rev.len() != total {
        // Disconnected support — cannot happen for a ConnectedWitness point,
        // but degrade gracefully rather than return a broken walk.
        return None;
    }
    walk_rev.reverse();
    Some(walk_rev.into_iter().map(|p| es[p]).collect())
}

/// Builds the circulation feasibility program over the edge subset `es`:
/// one non-negative multiplicity per edge, conservation at every incident
/// node, componentwise non-negative summed effect, and at least one unit of
/// flow out of the target nodes. Returns `None` if no edge leaves a target
/// (the program would be trivially infeasible).
fn circulation_lp(
    dim: usize,
    edges: &[DeltaEdge<'_>],
    es: &[usize],
    is_target: &dyn Fn(usize) -> bool,
) -> Option<LpProblem> {
    let mut lp = LpProblem::new(es.len());
    // Conservation: per incident node, Σ incoming − Σ outgoing = 0.
    let mut balance: BTreeMap<usize, Vec<(usize, Rational)>> = BTreeMap::new();
    for (pos, &i) in es.iter().enumerate() {
        let e = &edges[i];
        balance.entry(e.to).or_default().push((pos, Rational::ONE));
        balance
            .entry(e.from)
            .or_default()
            .push((pos, -Rational::ONE));
    }
    for coeffs in balance.values() {
        lp.add_constraint(coeffs, LpCmp::Eq, Rational::ZERO);
    }
    // Componentwise non-negative summed effect. Coordinates no edge touches
    // contribute no constraint.
    for c in 0..dim {
        let coeffs: Vec<(usize, Rational)> = es
            .iter()
            .enumerate()
            .filter(|(_, &i)| edges[i].delta[c] != 0)
            .map(|(pos, &i)| (pos, Rational::from_int(edges[i].delta[c])))
            .collect();
        if !coeffs.is_empty() {
            lp.add_constraint(&coeffs, LpCmp::Ge, Rational::ZERO);
        }
    }
    // Positive flow through a target node.
    let outflow: Vec<(usize, Rational)> = es
        .iter()
        .enumerate()
        .filter(|(_, &i)| is_target(edges[i].from))
        .map(|(pos, _)| (pos, Rational::ONE))
        .collect();
    if outflow.is_empty() {
        return None;
    }
    lp.add_constraint(&outflow, LpCmp::Ge, Rational::ONE);
    Some(lp)
}

/// Weak connected components of the subgraph spanned by `support`, returned
/// as groups of edge indices.
fn weak_components(edges: &[DeltaEdge<'_>], support: &[usize]) -> Vec<Vec<usize>> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    // Iterative two-pass find with path compression: supports can be as
    // large as an SCC's whole edge set, so recursion depth must not scale
    // with the parent-chain length.
    fn find(parent: &mut BTreeMap<usize, usize>, v: usize) -> usize {
        let mut root = v;
        loop {
            let p = *parent.entry(root).or_insert(root);
            if p == root {
                break;
            }
            root = p;
        }
        let mut cur = v;
        while cur != root {
            let next = parent[&cur];
            parent.insert(cur, root);
            cur = next;
        }
        root
    }
    for &i in support {
        let a = find(&mut parent, edges[i].from);
        let b = find(&mut parent, edges[i].to);
        if a != b {
            parent.insert(a, b);
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &i in support {
        let root = find(&mut parent, edges[i].from);
        groups.entry(root).or_default().push(i);
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(from: usize, to: usize, delta: &'static [i64]) -> DeltaEdge<'static> {
        DeltaEdge { from, to, delta }
    }

    /// The decision alone: [`nonneg_cycle_search`] with cap 0.
    fn exists(
        num_nodes: usize,
        dim: usize,
        edges: &[DeltaEdge<'_>],
        is_target: &dyn Fn(usize) -> bool,
    ) -> bool {
        nonneg_cycle_search(num_nodes, dim, edges, is_target, 0).exists()
    }

    /// The materialized walk of [`nonneg_cycle_search`], if any.
    fn witness(
        num_nodes: usize,
        dim: usize,
        edges: &[DeltaEdge<'_>],
        is_target: &dyn Fn(usize) -> bool,
        max_len: usize,
    ) -> Option<Vec<usize>> {
        match nonneg_cycle_search(num_nodes, dim, edges, is_target, max_len) {
            CycleSearch::Witness(walk) => Some(walk),
            CycleSearch::None | CycleSearch::ExceedsCap => None,
        }
    }

    #[test]
    fn sccs_of_a_cycle_and_a_tail() {
        // 0 → 1 → 2 → 0 is one SCC; 2 → 3 is a tail.
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3)];
        let (comp, count) = strongly_connected_components(4, &edges);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[2], comp[3]);
    }

    #[test]
    fn sccs_of_disjoint_self_loops() {
        let edges = [(0, 0), (2, 2)];
        let (comp, count) = strongly_connected_components(3, &edges);
        assert_eq!(count, 3);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[1]);
    }

    #[test]
    fn positive_self_loop_is_a_lasso() {
        let edges = [edge(0, 0, &[1])];
        assert!(exists(1, 1, &edges, &|n| n == 0));
    }

    #[test]
    fn negative_self_loop_is_not() {
        let edges = [edge(0, 0, &[-1])];
        assert!(!exists(1, 1, &edges, &|n| n == 0));
    }

    #[test]
    fn mixed_self_loops_balance_out() {
        let edges = [edge(0, 0, &[-1]), edge(0, 0, &[1])];
        assert!(exists(1, 1, &edges, &|n| n == 0));
    }

    #[test]
    fn balanced_two_cycle() {
        let edges = [edge(0, 1, &[1]), edge(1, 0, &[-1])];
        assert!(exists(2, 1, &edges, &|n| n == 0));
        assert!(exists(2, 1, &edges, &|n| n == 1));
    }

    #[test]
    fn target_outside_every_cycle() {
        // 0 → 1 with a positive loop at 1: no cycle through 0.
        let edges = [edge(0, 1, &[0]), edge(1, 1, &[1])];
        assert!(!exists(2, 1, &edges, &|n| n == 0));
        assert!(exists(2, 1, &edges, &|n| n == 1));
    }

    #[test]
    fn remote_gains_are_reachable_when_the_bridge_is_free() {
        // Target 0 has a draining loop; node 1 has a pumping loop; the
        // bridges cost nothing. A walk 0 → 1, pump, 1 → 0 nets +2.
        let edges = [
            edge(0, 0, &[-1]),
            edge(1, 1, &[2]),
            edge(0, 1, &[0]),
            edge(1, 0, &[0]),
        ];
        assert!(exists(2, 1, &edges, &|n| n == 0));
    }

    #[test]
    fn support_refinement_rejects_disconnected_compensation() {
        // As above, but crossing the bridge burns a second counter that
        // nothing replenishes: the pumping loop at node 1 can compensate the
        // drain at node 0 only in a *disconnected* circulation, which is not
        // a walk. The naive LP (without connectivity refinement) is feasible
        // here; the refinement must reject it.
        let edges = [
            edge(0, 0, &[-1, 0]),
            edge(1, 1, &[2, 0]),
            edge(0, 1, &[0, -1]),
            edge(1, 0, &[0, 0]),
        ];
        assert!(!exists(2, 2, &edges, &|n| n == 0));
        // Node 1's own loop is still a perfectly good lasso through 1.
        assert!(exists(2, 2, &edges, &|n| n == 1));
    }

    #[test]
    fn long_cycles_are_found_without_any_length_cap() {
        // A 100-node ring with zero deltas: the only cycle has length 100,
        // far beyond the old default caps.
        let n = 100;
        let edges: Vec<DeltaEdge<'_>> = (0..n).map(|i| edge(i, (i + 1) % n, &[0])).collect();
        assert!(exists(n, 1, &edges, &|s| s == 0));
    }

    #[test]
    fn amortized_pumping_across_the_cycle() {
        // Cycle 0 → 1 → 0 where one leg pays 3 and the other gains only 1,
        // but a +1 self-loop at node 1 can run as often as needed: the walk
        // 0 → 1, loop ×2, 1 → 0 is non-negative.
        let edges = [edge(0, 1, &[-3]), edge(1, 0, &[1]), edge(1, 1, &[1])];
        assert!(exists(2, 1, &edges, &|n| n == 0));
    }

    #[test]
    fn zero_dimension_reduces_to_cycle_existence() {
        let edges = [edge(0, 1, &[]), edge(1, 0, &[])];
        assert!(exists(2, 0, &edges, &|n| n == 0));
        let dag = [edge(0, 1, &[])];
        assert!(!exists(2, 0, &dag, &|n| n == 0));
    }

    /// Asserts that `walk` is a valid witness for (`edges`, `is_target`):
    /// non-empty, consecutive edges chained, closed, through a target, with
    /// componentwise non-negative summed effect.
    fn assert_valid_walk(
        edges: &[DeltaEdge<'_>],
        walk: &[usize],
        dim: usize,
        is_target: &dyn Fn(usize) -> bool,
    ) {
        assert!(!walk.is_empty());
        let mut sum = vec![0i64; dim];
        for (k, &i) in walk.iter().enumerate() {
            let next = walk[(k + 1) % walk.len()];
            assert_eq!(
                edges[i].to,
                edges[next].from,
                "walk breaks between positions {k} and {}",
                (k + 1) % walk.len()
            );
            for (s, d) in sum.iter_mut().zip(edges[i].delta) {
                *s += d;
            }
        }
        assert!(
            sum.iter().all(|&s| s >= 0),
            "negative summed effect {sum:?}"
        );
        assert!(
            walk.iter().any(|&i| is_target(edges[i].from)),
            "walk avoids every target"
        );
    }

    #[test]
    fn witness_matches_decision_on_the_basic_instances() {
        let cases: Vec<(usize, usize, Vec<DeltaEdge<'static>>)> = vec![
            (1, 1, vec![edge(0, 0, &[1])]),
            (1, 1, vec![edge(0, 0, &[-1])]),
            (1, 1, vec![edge(0, 0, &[-1]), edge(0, 0, &[1])]),
            (2, 1, vec![edge(0, 1, &[1]), edge(1, 0, &[-1])]),
            (2, 1, vec![edge(0, 1, &[0]), edge(1, 1, &[1])]),
            (
                2,
                2,
                vec![
                    edge(0, 0, &[-1, 0]),
                    edge(1, 1, &[2, 0]),
                    edge(0, 1, &[0, -1]),
                    edge(1, 0, &[0, 0]),
                ],
            ),
        ];
        for (nodes, dim, edges) in cases {
            for t in 0..nodes {
                let is_target = |n: usize| n == t;
                let decided = exists(nodes, dim, &edges, &is_target);
                let witness = witness(nodes, dim, &edges, &is_target, 10_000);
                assert_eq!(decided, witness.is_some(), "target {t}, edges {edges:?}");
                if let Some(walk) = witness {
                    assert_valid_walk(&edges, &walk, dim, &is_target);
                    assert!(is_target(edges[walk[0]].from), "walk starts off-target");
                }
            }
        }
    }

    #[test]
    fn witness_materializes_amortized_pumping() {
        // 0 → 1 pays 3, 1 → 0 gains 1, and a +1 self-loop at 1 makes up the
        // difference: the witness must traverse the loop at least twice.
        let edges = [edge(0, 1, &[-3]), edge(1, 0, &[1]), edge(1, 1, &[1])];
        let walk = witness(2, 1, &edges, &|n| n == 0, 10_000).expect("lasso exists");
        assert_valid_walk(&edges, &walk, 1, &|n| n == 0);
        assert!(
            walk.iter().filter(|&&i| i == 2).count() >= 2,
            "{walk:?} must pump the self-loop"
        );
    }

    #[test]
    fn witness_respects_the_materialization_cap() {
        // The valid witness needs 4 traversals (0→1, loop ×2, 1→0); a cap of
        // 3 must refuse rather than truncate, while the decision stays true.
        let edges = [edge(0, 1, &[-3]), edge(1, 0, &[1]), edge(1, 1, &[1])];
        assert!(exists(2, 1, &edges, &|n| n == 0));
        assert!(matches!(
            nonneg_cycle_search(2, 1, &edges, &|n| n == 0, 3),
            CycleSearch::ExceedsCap
        ));
    }

    #[test]
    fn witness_walks_the_long_ring() {
        let n = 100;
        let edges: Vec<DeltaEdge<'_>> = (0..n).map(|i| edge(i, (i + 1) % n, &[0])).collect();
        let walk = witness(n, 1, &edges, &|s| s == 0, 10_000).expect("ring cycles");
        assert_eq!(walk.len(), n);
        assert_valid_walk(&edges, &walk, 1, &|s| s == 0);
    }

    #[test]
    fn all_monotone_graph_with_targets_off_every_cycle_decides_none() {
        // Every edge is monotone; the targets 0 and 3 lie on no cycle (the
        // only cycle is 1 ⇄ 2), so the monotone pass alone decides.
        let edges = [
            edge(0, 1, &[1, 0]),
            edge(1, 2, &[0, 0]),
            edge(2, 1, &[0, 2]),
            edge(2, 3, &[1, 1]),
        ];
        let targets = |n: usize| n == 0 || n == 3;
        assert!(matches!(
            monotone_cycle(4, &edges, &targets),
            Monotone::NoCycle
        ));
        assert_eq!(
            nonneg_cycle_search(4, 2, &edges, &targets, 10_000),
            CycleSearch::None
        );
        assert!(!exists(4, 2, &edges, &targets));
        // A negative edge elsewhere leaves the decision to the circulation.
        let mixed = [edges[0], edges[1], edges[2], edges[3], edge(3, 3, &[-1, 0])];
        assert!(matches!(
            monotone_cycle(4, &mixed, &targets),
            Monotone::Undecided
        ));
        assert!(!exists(4, 2, &mixed, &targets));
    }

    #[test]
    fn target_on_a_monotone_cycle_still_yields_a_witness() {
        // All edges monotone, target 1 on the cycle 1 → 2 → 1.
        let edges = [edge(0, 1, &[0]), edge(1, 2, &[1]), edge(2, 1, &[0])];
        let targets = |n: usize| n == 1;
        let walk = witness(3, 1, &edges, &targets, 10_000).expect("monotone lasso");
        assert_eq!(walk, vec![1, 2]);
        assert_valid_walk(&edges, &walk, 1, &targets);
        assert!(exists(3, 1, &edges, &targets));
    }

    #[test]
    fn predicate_targets_accept_any_matching_node() {
        let edges = [edge(0, 1, &[1]), edge(1, 0, &[-1]), edge(2, 2, &[-1])];
        assert!(exists(3, 1, &edges, &|n| n >= 1));
        assert!(!exists(3, 1, &edges, &|n| n == 2));
    }
}
