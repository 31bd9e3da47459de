//! Representation-equivalence property suite for the dense coverability
//! core.
//!
//! The arena/interner-backed [`CoverabilityGraph`] replaced an ordered-map
//! construction (`BTreeMap<(state, Marking), usize>` canonicalization,
//! per-candidate ancestor-chain walks). The refactor's contract is that the
//! dense representation is *observationally identical*, not merely
//! equivalent up to reordering: node ids are assigned in the same worklist
//! discovery order, edges are recorded in the same order, and the witness
//! paths derived from the parent chains are the same action sequences —
//! byte-for-byte determinism is what DESIGN.md §5.6 promises downstream.
//!
//! The reference model below is a faithful reimplementation of the former
//! map-based construction (including the acceleration's nearest-ancestor
//! pumping order and the cap-at-intern-time semantics). The properties
//! compare, on random small VASS:
//!
//! * the full node sequence `(state, marking, parent, via_action)`;
//! * the full edge list `(from, action, to)`;
//! * the coverability answers of every control state, and the chosen
//!   reachability witness paths;
//! * the capped variant (`build_capped`).

use has_vass::{CoverabilityGraph, Marking, Vass, OMEGA};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

// ---------------------------------------------------------------------
// Reference model: the former BTreeMap-backed Karp–Miller construction.
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct RefNode {
    state: usize,
    marking: Marking,
    parent: Option<usize>,
    via_action: Option<usize>,
}

struct RefGraph {
    nodes: Vec<RefNode>,
    edges: Vec<(usize, usize, usize)>,
    index: BTreeMap<(usize, Marking), usize>,
}

fn add(marking: &Marking, delta: &[i64]) -> Option<Marking> {
    let mut out = Vec::with_capacity(marking.len());
    for (m, d) in marking.iter().zip(delta) {
        if *m == OMEGA {
            out.push(OMEGA);
        } else {
            let v = (*m as i128) + (*d as i128);
            if v < 0 {
                return None;
            }
            out.push(v as u64);
        }
    }
    Some(out)
}

fn leq(a: &Marking, b: &Marking) -> bool {
    a.iter().zip(b).all(|(x, y)| *x <= *y)
}

impl RefGraph {
    fn build(vass: &Vass, init: usize, max_nodes: usize) -> Self {
        let mut graph = RefGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            index: BTreeMap::new(),
        };
        if max_nodes == 0 {
            return graph;
        }
        let actions_by_state = vass.action_csr();
        let root_marking = vec![0u64; vass.dim];
        let root = graph
            .intern(init, root_marking, None, None, max_nodes)
            .expect("first intern under non-zero cap");
        let mut worklist = VecDeque::from([root]);
        let mut expanded = vec![false; 1];

        while let Some(node_id) = worklist.pop_front() {
            if expanded[node_id] {
                continue;
            }
            expanded[node_id] = true;
            let (state, marking) = {
                let n = &graph.nodes[node_id];
                (n.state, n.marking.clone())
            };
            for &action_idx in actions_by_state.actions_from(state) {
                let action_idx = action_idx as usize;
                let action = vass.actions()[action_idx];
                let Some(mut next) = add(&marking, vass.delta(action_idx)) else {
                    continue;
                };
                // ω-acceleration over the parent chain, nearest ancestor
                // first, pumping into the progressively updated `next`.
                let mut ancestor = Some(node_id);
                while let Some(a) = ancestor {
                    let anc = &graph.nodes[a];
                    if anc.state == action.to && leq(&anc.marking, &next) && anc.marking != next {
                        for (av, nv) in anc.marking.iter().zip(next.iter_mut()) {
                            if *av < *nv {
                                *nv = OMEGA;
                            }
                        }
                    }
                    ancestor = anc.parent;
                }
                let existed = graph.index.contains_key(&(action.to, next.clone()));
                let Some(target) =
                    graph.intern(action.to, next, Some(node_id), Some(action_idx), max_nodes)
                else {
                    continue;
                };
                graph.edges.push((node_id, action_idx, target));
                if !existed {
                    expanded.push(false);
                    worklist.push_back(target);
                }
            }
        }
        graph
    }

    fn intern(
        &mut self,
        state: usize,
        marking: Marking,
        parent: Option<usize>,
        via_action: Option<usize>,
        max_nodes: usize,
    ) -> Option<usize> {
        if let Some(&id) = self.index.get(&(state, marking.clone())) {
            return Some(id);
        }
        if self.nodes.len() >= max_nodes {
            return None;
        }
        let id = self.nodes.len();
        self.nodes.push(RefNode {
            state,
            marking: marking.clone(),
            parent,
            via_action,
        });
        self.index.insert((state, marking), id);
        Some(id)
    }

    fn path_to_state(&self, target: usize) -> Option<Vec<usize>> {
        let node = self.nodes.iter().position(|n| n.state == target)?;
        let mut path = Vec::new();
        let mut current = node;
        while let Some(parent) = self.nodes[current].parent {
            path.push(self.nodes[current].via_action.expect("non-root has via"));
            current = parent;
        }
        path.reverse();
        Some(path)
    }
}

// ---------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------

fn assert_same(reference: &RefGraph, dense: &CoverabilityGraph) {
    assert_eq!(reference.nodes.len(), dense.node_count(), "node counts");
    for (id, (r, d)) in reference.nodes.iter().zip(dense.nodes()).enumerate() {
        assert_eq!(r.state, d.state, "state of node {id}");
        assert_eq!(&r.marking[..], d.marking, "marking of node {id}");
        assert_eq!(r.parent, d.parent, "parent of node {id}");
        assert_eq!(r.via_action, d.via_action, "via_action of node {id}");
    }
    let dense_edges: Vec<(usize, usize, usize)> = dense.edges().collect();
    assert_eq!(reference.edges, dense_edges, "edge lists");
}

fn arb_vass(states: usize, dim: usize) -> impl Strategy<Value = Vass> {
    let action = (
        0..states,
        proptest::collection::vec(-2i64..=2, dim),
        0..states,
    );
    proptest::collection::vec(action, 1..10).prop_map(move |actions| {
        let mut v = Vass::new(states, dim);
        for (from, delta, to) in actions {
            v.add_action(from, delta, to);
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    #[test]
    fn full_graphs_are_identical(vass in arb_vass(4, 2)) {
        let reference = RefGraph::build(&vass, 0, usize::MAX);
        let dense = CoverabilityGraph::build(&vass, 0);
        assert_same(&reference, &dense);
    }

    #[test]
    fn capped_graphs_are_identical(vass in arb_vass(4, 2), cap in 0usize..12) {
        let reference = RefGraph::build(&vass, 0, cap);
        let dense = CoverabilityGraph::build_capped(&vass, 0, cap);
        assert_same(&reference, &dense);
    }

    #[test]
    fn coverability_answers_and_witnesses_agree(vass in arb_vass(4, 2)) {
        let reference = RefGraph::build(&vass, 0, usize::MAX);
        let dense = CoverabilityGraph::build(&vass, 0);
        for state in 0..4 {
            let ref_path = reference.path_to_state(state);
            let dense_path = dense.path_to_state(state);
            prop_assert_eq!(
                ref_path.is_some(),
                dense_path.is_some(),
                "coverability of state {}", state
            );
            // Not just *a* witness: the same chosen witness, action for
            // action (both pick the first node in discovery order and walk
            // the same parent chain).
            prop_assert_eq!(ref_path, dense_path, "witness path to state {}", state);
        }
    }
}
