//! Equivalence property suite for the shared incremental Karp–Miller arena
//! (DESIGN.md §5.12).
//!
//! [`SharedCoverability`] answers the same coverability and lasso
//! sub-queries as a from-scratch [`CoverabilityGraph`] per query, while
//! reusing interned nodes, stored successor spans, and ω-accelerations
//! across the queries of one arena, and pruning via the per-control-state
//! antichain. Pruning and reuse change the traversal, not the answers; the
//! properties below pin that on random small VASS (the
//! `prop_dense_equiv.rs` generator), always driving *sequences* of queries
//! through one arena so cross-query reuse is actually exercised:
//!
//! * the coverable control-state set of every query equals the
//!   from-scratch build's, regardless of what ran before it on the arena;
//! * the lasso tiers bracket the from-scratch decision — a real-edge
//!   non-negative cycle is sound evidence, the absence of one over the
//!   jump-augmented graph is a sound refutation — and the full tiered
//!   decision (with from-scratch fallback in the ambiguous gap) agrees
//!   exactly;
//! * materialized pump-cycle witnesses are well-formed closed walks
//!   through a target state with componentwise non-negative summed effect;
//! * overlay witness paths chain control states from the root;
//! * capped runs under-approximate, and identical query sequences on
//!   fresh arenas are byte-identical (`Debug` render) — the determinism
//!   contract sharing must uphold.

use has_vass::{CoverabilityGraph, SharedCoverability, SharedRun, Vass};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

fn shared_states(run: &SharedRun) -> BTreeSet<usize> {
    run.states().collect()
}

fn reference_states(vass: &Vass, init: usize) -> BTreeSet<usize> {
    CoverabilityGraph::build(vass, init)
        .nodes()
        .map(|n| n.state)
        .collect()
}

/// The verifier's four-tier lasso decision over a shared run: sound
/// real-edge evidence, complete jump-augmented refutation, from-scratch
/// rebuild in the gap.
fn tiered_lasso(vass: &Vass, init: usize, run: &SharedRun, target: usize) -> bool {
    let pred = |s: usize| s == target;
    if run.nonneg_cycle_through_pred(vass, &pred) {
        return true;
    }
    if !run.augmented_nonneg_cycle_through_pred(vass, &pred) {
        return false;
    }
    CoverabilityGraph::build(vass, init).nonneg_cycle_through_pred(vass, &pred)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn coverable_state_sets_match_from_scratch(vass in arb_vass(4, 2)) {
        let mut arena = SharedCoverability::new(&vass);
        // Every state as init, twice over: the second round replays
        // stored spans over a warm arena.
        for init in [0usize, 1, 2, 3, 0, 1, 2, 3] {
            let run = arena.query(&vass, init, usize::MAX);
            prop_assert!(!run.capped);
            prop_assert_eq!(
                shared_states(&run),
                reference_states(&vass, init),
                "coverable set from init {}", init
            );
        }
    }

    #[test]
    fn lasso_tiers_bracket_and_decide(vass in arb_vass(4, 2)) {
        let mut arena = SharedCoverability::new(&vass);
        for init in [0usize, 1, 2, 3] {
            let run = arena.query(&vass, init, usize::MAX);
            let reference = CoverabilityGraph::build(&vass, init);
            for target in 0..4usize {
                let expect = reference.nonneg_cycle_through_pred(&vass, &|s| s == target);
                let sound = run.nonneg_cycle_through_pred(&vass, &|s| s == target);
                let complete =
                    run.augmented_nonneg_cycle_through_pred(&vass, &|s| s == target);
                prop_assert!(!sound || expect, "real-edge cycle must be sound");
                prop_assert!(complete || !expect, "augmented graph must be complete");
                prop_assert_eq!(
                    tiered_lasso(&vass, init, &run, target),
                    expect,
                    "tiered decision from init {} target {}", init, target
                );
            }
        }
    }

    #[test]
    fn materialized_cycles_are_wellformed(vass in arb_vass(4, 2)) {
        let mut arena = SharedCoverability::new(&vass);
        for init in [0usize, 1, 2, 3] {
            let run = arena.query(&vass, init, usize::MAX);
            for target in 0..4usize {
                let search =
                    run.nonneg_cycle_search_through_pred(&vass, &|s| s == target, 4_096);
                if let has_vass::CycleSearch::Witness(walk) = search {
                    prop_assert!(!walk.is_empty());
                    let (start, _, _) = walk[0];
                    prop_assert_eq!(run.state(start), target, "walk starts at a target");
                    let mut total = vec![0i64; vass.dim];
                    let mut at = start;
                    for &(from, action, to) in &walk {
                        prop_assert_eq!(from, at, "consecutive edges chain");
                        prop_assert_eq!(vass.actions[action].from, run.state(from));
                        prop_assert_eq!(vass.actions[action].to, run.state(to));
                        for (t, d) in total.iter_mut().zip(&vass.actions[action].delta) {
                            *t += d;
                        }
                        at = to;
                    }
                    prop_assert_eq!(at, start, "walk is closed");
                    prop_assert!(total.iter().all(|&d| d >= 0), "summed effect nonneg");
                }
            }
        }
    }

    #[test]
    fn witness_paths_chain_control_states(vass in arb_vass(4, 2)) {
        let mut arena = SharedCoverability::new(&vass);
        for init in [0usize, 1, 2, 3, 2, 1] {
            let run = arena.query(&vass, init, usize::MAX);
            for vidx in 0..run.node_count() {
                let mut state = init;
                for a in run.path_to_node(vidx) {
                    prop_assert_eq!(vass.actions[a].from, state);
                    state = vass.actions[a].to;
                }
                prop_assert_eq!(state, run.state(vidx), "path ends at the node");
            }
        }
    }

    #[test]
    fn capped_runs_underapproximate(vass in arb_vass(4, 2), cap in 0usize..12) {
        let mut arena = SharedCoverability::new(&vass);
        // Warm the arena first so the capped query replays stored spans.
        let _ = arena.query(&vass, 0, usize::MAX);
        let run = arena.query(&vass, 1, cap);
        prop_assert!(run.node_count() <= cap);
        let reference = reference_states(&vass, 1);
        prop_assert!(shared_states(&run).is_subset(&reference));
    }

    #[test]
    fn identical_query_sequences_are_byte_identical(vass in arb_vass(4, 2)) {
        let mut a = SharedCoverability::new(&vass);
        let mut b = SharedCoverability::new(&vass);
        for init in [0usize, 3, 1, 2, 0, 3] {
            let ra = a.query(&vass, init, usize::MAX);
            let rb = b.query(&vass, init, usize::MAX);
            prop_assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
    }
}
