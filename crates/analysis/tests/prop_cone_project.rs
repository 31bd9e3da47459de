//! Property tests for the dimension cone and the VASS it assembles
//! ([`DimensionCone::assemble`]) on random small VASS.
//!
//! The generators draw *dense* VASS (deltas in −2..=2 per dimension); each
//! property converts its VASS to the sparse action list the cone reads
//! ([`SparseActions`], one entry per non-zero coordinate) and assembles
//! the projected VASS from that list.
//!
//! * Structure: the assembly keeps the action count, order and
//!   endpoints, and gives each action exactly its delta restricted to the
//!   kept dimensions, or the sink decrement when the cone disables it. The
//!   expected deltas are read off the dense VASS, independent of the
//!   sparse list the assembly reads.
//! * Semantics: projecting onto the union cone of an init set is
//!   verdict-neutral from every init in the set. The exact Karp–Miller
//!   build of the unprojected VASS is the reference: both cover the same
//!   control states, agree on every lasso (state repeated reachability)
//!   answer, and every tree path of the projected graph is a run of the
//!   original VASS under the same action indices, which is what witness
//!   labels rely on. This is the exactness gate for the verifier, which
//!   always projects its Lemma 21 queries.
//! * Oracle: the sparse fixpoint keeps and disables exactly what the dense
//!   fixpoint below does — the cone's former implementation, which scans
//!   every action × dimension of the dense VASS each round.
//!
//! [`DimensionCone::assemble`]: has_analysis::DimensionCone::assemble

use has_analysis::{dimension_cone_multi, DimensionCone};
use has_vass::{CoverabilityGraph, SparseActions, Vass, OMEGA};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

fn arb_vass(states: usize, dim: usize) -> impl Strategy<Value = Vass> {
    let action = (
        0..states,
        proptest::collection::vec(-2i64..=2, dim),
        0..states,
    );
    proptest::collection::vec(action, 1..12).prop_map(move |actions| {
        let mut v = Vass::new(states, dim);
        for (from, delta, to) in actions {
            v.add_action(from, delta, to);
        }
        v
    })
}

/// A VASS with 4–5 states and 1–`max_dim` dimensions, plus a non-empty
/// init set.
fn arb_query(max_dim: usize) -> impl Strategy<Value = (Vass, Vec<usize>)> {
    (4usize..=5, 1usize..=max_dim).prop_flat_map(|(states, dim)| {
        (
            arb_vass(states, dim),
            proptest::collection::vec(0..states, 1..=states),
        )
            .prop_map(|(v, mut inits)| {
                inits.sort_unstable();
                inits.dedup();
                (v, inits)
            })
    })
}

/// The sparse action list of `vass`: its non-zero coordinates per action.
fn sparse(vass: &Vass) -> SparseActions {
    let mut list = SparseActions::new();
    for (a, action) in vass.actions().iter().enumerate() {
        let delta = vass.delta(a).iter().enumerate();
        list.push(action.from, delta.map(|(d, &v)| (d as u32, v)), action.to);
    }
    list
}

/// The union cone of `vass` from `inits`, and the VASS it assembles.
fn cone_and_assembly(vass: &Vass, inits: &[usize]) -> (DimensionCone, Vass) {
    let list = sparse(vass);
    let adjacency = list.action_csr(vass.states);
    let cone = dimension_cone_multi(&list, vass.dim, &adjacency, inits);
    let assembled = cone.assemble(&list, vass.states);
    (cone, assembled)
}

/// The dense reference fixpoint: per round, control-graph reachability
/// from `inits` over live actions, then rule 1 (disable a reachable live
/// action decrementing a dimension no reachable live action increments)
/// until nothing changes, then rule 2 (keep the dimensions some reachable
/// live action decrements). Returns `(keep, disabled)`.
fn dense_cone(vass: &Vass, inits: &[usize]) -> (Vec<bool>, Vec<bool>) {
    let actions = vass.actions();
    let mut disabled = vec![false; actions.len()];
    loop {
        let mut reach = vec![false; vass.states];
        let mut queue: VecDeque<usize> = inits.iter().copied().collect();
        for &init in inits {
            reach[init] = true;
        }
        while let Some(s) = queue.pop_front() {
            for (a, action) in actions.iter().enumerate() {
                if action.from == s && !disabled[a] && !reach[action.to] {
                    reach[action.to] = true;
                    queue.push_back(action.to);
                }
            }
        }
        let live = |a: usize| !disabled[a] && reach[actions[a].from];
        let mut incremented = vec![false; vass.dim];
        for a in (0..actions.len()).filter(|&a| live(a)) {
            for (d, &v) in vass.delta(a).iter().enumerate() {
                incremented[d] |= v > 0;
            }
        }
        let dead: Vec<usize> = (0..actions.len())
            .filter(|&a| live(a))
            .filter(|&a| {
                let delta = vass.delta(a);
                (0..vass.dim).any(|d| delta[d] < 0 && !incremented[d])
            })
            .collect();
        if dead.is_empty() {
            let mut keep = vec![false; vass.dim];
            for a in (0..actions.len()).filter(|&a| live(a)) {
                for (d, &v) in vass.delta(a).iter().enumerate() {
                    keep[d] |= v < 0;
                }
            }
            return (keep, disabled);
        }
        for a in dead {
            disabled[a] = true;
        }
    }
}

fn states_of(graph: &CoverabilityGraph) -> BTreeSet<usize> {
    graph.nodes().map(|n| n.state).collect()
}

proptest! {
    #[test]
    fn projection_keeps_actions_and_restricts_deltas(
        vass in arb_vass(4, 4),
        init in 0usize..4,
    ) {
        let (cone, projected) = cone_and_assembly(&vass, &[init]);
        let kept: Vec<usize> = (0..vass.dim).filter(|&d| cone.keeps(d)).collect();
        let any_disabled = (0..vass.action_count()).any(|a| cone.disables(a));
        prop_assert_eq!(kept.len(), cone.dims_after());
        prop_assert_eq!(projected.dim, kept.len() + usize::from(any_disabled));
        prop_assert_eq!(projected.states, vass.states);
        prop_assert_eq!(projected.actions(), vass.actions());
        for a in 0..vass.action_count() {
            let mut expected = vec![0i64; projected.dim];
            if cone.disables(a) {
                expected[kept.len()] = -1;
            } else {
                for (new, &old) in kept.iter().enumerate() {
                    expected[new] = vass.delta(a)[old];
                }
            }
            prop_assert_eq!(projected.delta(a), &expected[..], "action {}", a);
        }
    }
}

proptest! {
    #[test]
    fn projection_preserves_coverability_lassos_and_paths((vass, inits) in arb_query(3)) {
        let (cone, projected) = cone_and_assembly(&vass, &inits);
        // Original dimension → projected coordinate, for kept dimensions.
        let mut coord = vec![None; vass.dim];
        for (new, old) in (0..vass.dim).filter(|&d| cone.keeps(d)).enumerate() {
            coord[old] = Some(new);
        }
        for &init in &inits {
            let full = CoverabilityGraph::build(&vass, init);
            let proj = CoverabilityGraph::build(&projected, init);
            prop_assert_eq!(states_of(&full), states_of(&proj), "init {}", init);
            for t in 0..vass.states {
                prop_assert_eq!(
                    vass.state_repeated_reachable(init, t),
                    projected.state_repeated_reachable(init, t),
                    "lasso {} -> {}", init, t
                );
            }
            for node in 0..proj.node_count() {
                // Replay the tree path on the original VASS from 0̄. A
                // Karp–Miller marking is exact where it is finite, so a
                // counter may go negative only where the projected tree
                // has already accelerated it to ω; dropped dimensions are
                // never decremented by a firing action.
                let path = proj.path_to_node(node);
                let mut ancestors = vec![node];
                while let Some(parent) = proj.node(*ancestors.last().unwrap()).parent {
                    ancestors.push(parent);
                }
                ancestors.reverse();
                let mut state = init;
                let mut counters = vec![0i64; vass.dim];
                for (&a, &at) in path.iter().zip(&ancestors[1..]) {
                    prop_assert!(!cone.disables(a), "disabled action {} fired", a);
                    prop_assert_eq!(vass.actions()[a].from, state);
                    state = vass.actions()[a].to;
                    let marking = proj.node(at).marking;
                    for (d, c) in counters.iter_mut().enumerate() {
                        *c += vass.delta(a)[d];
                        match coord[d] {
                            Some(k) if marking[k] == OMEGA => {}
                            Some(k) => prop_assert_eq!(
                                u64::try_from(*c).ok(), Some(marking[k]),
                                "node {} dim {}", node, d
                            ),
                            None => prop_assert!(*c >= 0, "dropped dim {} went negative", d),
                        }
                    }
                }
                prop_assert_eq!(state, proj.node(node).state, "path ends at the node");
            }
        }
    }
}

proptest! {
    #[test]
    fn sparse_cone_matches_the_dense_reference((vass, inits) in arb_query(4)) {
        let (cone, _) = cone_and_assembly(&vass, &inits);
        let (keep, disabled) = dense_cone(&vass, &inits);
        prop_assert_eq!(cone.dims_before(), vass.dim);
        for (d, &k) in keep.iter().enumerate() {
            prop_assert_eq!(cone.keeps(d), k, "dimension {}", d);
        }
        for (a, &x) in disabled.iter().enumerate() {
            prop_assert_eq!(cone.disables(a), x, "action {}", a);
        }
        prop_assert_eq!(cone.dims_after(), keep.iter().filter(|&&k| k).count());
    }
}
