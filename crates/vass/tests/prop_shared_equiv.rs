//! Equivalence property suite for the subsumption-pruned Karp–Miller build
//! (DESIGN.md §5.12) against the exact build.
//!
//! [`CoverabilityGraph::build_pruned`] answers the same coverability and
//! lasso sub-queries as [`CoverabilityGraph::build`], while pruning via
//! the per-control-state antichain; the verifier runs one pruned build per
//! query, all of a `(T, β)` pair's builds sharing one [`KmScratch`].
//! Pruning changes the graph, not the answers; the properties below pin
//! that on random small VASS (the `prop_dense_equiv.rs` generator),
//! always driving *sequences* of builds through one scratch so its
//! per-build stamping is actually exercised:
//!
//! * the coverable control-state set of every build equals the exact
//!   build's, regardless of what ran before it on the scratch;
//! * the lasso tiers bracket the exact decision — a real-edge non-negative
//!   cycle is sound evidence, the absence of one over the jump-augmented
//!   graph is a sound refutation — and the full tiered decision (with an
//!   exact build in the ambiguous gap) agrees exactly;
//! * materialized pump-cycle witnesses are well-formed closed walks
//!   through a target state with componentwise non-negative summed effect;
//! * witness paths chain control states from the root;
//! * capped builds under-approximate (and one that reports no truncation
//!   is complete), and repeated builds are byte-identical (`Debug`
//!   render) whether the scratch is fresh or warm — the determinism
//!   contract.

use has_vass::{CoverabilityGraph, KmScratch, Vass};
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

fn states_of(graph: &CoverabilityGraph) -> BTreeSet<usize> {
    graph.nodes().map(|n| n.state).collect()
}

fn reference_states(vass: &Vass, init: usize) -> BTreeSet<usize> {
    states_of(&CoverabilityGraph::build(vass, init))
}

/// The verifier's three-tier lasso decision over a pruned build: sound
/// real-edge evidence, complete jump-augmented refutation, exact build in
/// the gap.
fn tiered_lasso(vass: &Vass, init: usize, run: &CoverabilityGraph, target: usize) -> bool {
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
        let mut scratch = KmScratch::new(vass.states);
        // Every state as init, twice over: the second round runs on a
        // warm scratch.
        for init in [0usize, 1, 2, 3, 0, 1, 2, 3] {
            let run = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut scratch);
            prop_assert!(!run.capped());
            prop_assert_eq!(
                states_of(&run),
                reference_states(&vass, init),
                "coverable set from init {}", init
            );
        }
    }

    #[test]
    fn lasso_tiers_bracket_and_decide(vass in arb_vass(4, 2)) {
        let mut scratch = KmScratch::new(vass.states);
        for init in [0usize, 1, 2, 3] {
            let run = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut scratch);
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
        let mut scratch = KmScratch::new(vass.states);
        for init in [0usize, 1, 2, 3] {
            let run = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut scratch);
            for target in 0..4usize {
                let search =
                    run.nonneg_cycle_search_through_pred(&vass, &|s| s == target, 4_096);
                if let has_vass::CycleSearch::Witness(walk) = search {
                    prop_assert!(!walk.is_empty());
                    let (start, _, _) = walk[0];
                    prop_assert_eq!(run.node(start).state, target, "walk starts at a target");
                    let mut total = vec![0i64; vass.dim];
                    let mut at = start;
                    for &(from, action, to) in &walk {
                        prop_assert_eq!(from, at, "consecutive edges chain");
                        prop_assert_eq!(vass.actions[action].from, run.node(from).state);
                        prop_assert_eq!(vass.actions[action].to, run.node(to).state);
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
        let mut scratch = KmScratch::new(vass.states);
        for init in [0usize, 1, 2, 3, 2, 1] {
            let run = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut scratch);
            for node in 0..run.node_count() {
                let mut state = init;
                for a in run.path_to_node(node) {
                    prop_assert_eq!(vass.actions[a].from, state);
                    state = vass.actions[a].to;
                }
                prop_assert_eq!(state, run.node(node).state, "path ends at the node");
            }
        }
    }

    #[test]
    fn capped_runs_underapproximate(vass in arb_vass(4, 2), cap in 0usize..12) {
        let mut scratch = KmScratch::new(vass.states);
        // Warm the scratch first so the capped build runs on stale stamps.
        let _ = CoverabilityGraph::build_pruned(&vass, 0, usize::MAX, &mut scratch);
        let run = CoverabilityGraph::build_pruned(&vass, 1, cap, &mut scratch);
        prop_assert!(run.node_count() <= cap);
        let reference = reference_states(&vass, 1);
        prop_assert!(states_of(&run).is_subset(&reference));
        if !run.capped() {
            prop_assert_eq!(states_of(&run), reference, "an untruncated build is complete");
        }
    }

    #[test]
    fn repeated_builds_are_byte_identical(vass in arb_vass(4, 2)) {
        let mut warm = KmScratch::new(vass.states);
        for init in [0usize, 3, 1, 2, 0, 3] {
            let ra = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut warm);
            let rb = CoverabilityGraph::build_pruned(
                &vass,
                init,
                usize::MAX,
                &mut KmScratch::new(vass.states),
            );
            prop_assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
    }
}
