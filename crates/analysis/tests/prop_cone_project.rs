//! Property tests for [`DimensionCone::project`] on random small VASS.
//!
//! * Structure: the projection keeps the action count, order and
//!   endpoints, and gives each action exactly its delta restricted to the
//!   kept dimensions, or the sink decrement when the cone disables it. The
//!   expected deltas come from a dense reference written here, independent
//!   of the sparse arena writes the projection performs.
//! * Semantics: projecting onto the union cone of an init set is
//!   verdict-neutral from every init in the set. The exact Karp–Miller
//!   build of the unprojected VASS is the reference: both cover the same
//!   control states, agree on every lasso (state repeated reachability)
//!   answer, and every tree path of the projected graph is a run of the
//!   original VASS under the same action indices, which is what witness
//!   labels rely on. This is the exactness gate for the verifier, which
//!   always projects its Lemma 21 queries.
//!
//! [`DimensionCone::project`]: has_analysis::DimensionCone::project

use has_analysis::dimension_cone_multi;
use has_vass::{CoverabilityGraph, Vass, OMEGA};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// A VASS with 4–5 states and 1–3 dimensions, plus a non-empty init set.
fn arb_query() -> impl Strategy<Value = (Vass, Vec<usize>)> {
    (4usize..=5, 1usize..=3).prop_flat_map(|(states, dim)| {
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

fn states_of(graph: &CoverabilityGraph) -> BTreeSet<usize> {
    graph.nodes().map(|n| n.state).collect()
}

proptest! {
    #[test]
    fn projection_keeps_actions_and_restricts_deltas(
        vass in arb_vass(4, 4),
        init in 0usize..4,
    ) {
        let cone = dimension_cone_multi(&vass, &[init]);
        let projected = cone.project(&vass);
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
    fn projection_preserves_coverability_lassos_and_paths((vass, inits) in arb_query()) {
        let cone = dimension_cone_multi(&vass, &inits);
        let projected = cone.project(&vass);
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
