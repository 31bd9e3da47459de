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
//! * a build that recorded no jump or ε-jump (`subsumed() == 0`) has an
//!   augmented edge set equal to its real one, so the verifier skips the
//!   refutation tier there: its answer is the real-edge decision's;
//! * materialized pump-cycle witnesses are well-formed closed walks
//!   through a target state with componentwise non-negative summed effect;
//! * on larger random VASS (6 states, 3 counters, up to 16 actions), where
//!   the pruned build's ω-first worklist expands in another order than
//!   the exact build's BFS, the coverable sets, the tiered lasso decision
//!   and the materialized cycles still hold as above;
//! * witness paths chain control states from the root;
//! * capped builds under-approximate (and one that reports no truncation
//!   is complete), and repeated builds are byte-identical (`Debug`
//!   render) whether the scratch is fresh or warm — the determinism
//!   contract. A warm scratch reuses the adjacency it cached.

use has_vass::{CoverabilityGraph, KmScratch, Vass};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random VASS with fewer than `max_actions` actions.
fn arb_vass(states: usize, dim: usize, max_actions: usize) -> impl Strategy<Value = Vass> {
    let action = (
        0..states,
        proptest::collection::vec(-2i64..=2, dim),
        0..states,
    );
    proptest::collection::vec(action, 1..max_actions).prop_map(move |actions| {
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
/// real-edge evidence, complete jump-augmented refutation (skipped when the
/// build recorded no jump), exact build in the gap.
fn tiered_lasso(vass: &Vass, init: usize, run: &CoverabilityGraph, target: usize) -> bool {
    let pred = |s: usize| s == target;
    if lasso(vass, run, target) {
        return true;
    }
    if run.subsumed() == 0 || !run.augmented_nonneg_cycle_through(vass, &pred) {
        return false;
    }
    lasso(vass, &CoverabilityGraph::build(vass, init), target)
}

/// The real-edge lasso decision alone (cap 0) through control state `target`.
fn lasso(vass: &Vass, graph: &CoverabilityGraph, target: usize) -> bool {
    graph
        .nonneg_cycle_through(vass, &|s| s == target, 0)
        .exists()
}

/// A materialized pump cycle is a closed walk over real edges that starts
/// at a `target` node and has a componentwise non-negative summed effect.
fn check_walk(vass: &Vass, run: &CoverabilityGraph, target: usize, walk: &[(usize, usize, usize)]) {
    prop_assert!(!walk.is_empty());
    let (start, _, _) = walk[0];
    prop_assert_eq!(run.node(start).state, target, "walk starts at a target");
    let mut total = vec![0i64; vass.dim];
    let mut at = start;
    for &(from, action, to) in walk {
        prop_assert_eq!(from, at, "consecutive edges chain");
        prop_assert_eq!(vass.actions()[action].from, run.node(from).state);
        prop_assert_eq!(vass.actions()[action].to, run.node(to).state);
        for (t, d) in total.iter_mut().zip(vass.delta(action)) {
            *t += d;
        }
        at = to;
    }
    prop_assert_eq!(at, start, "walk is closed");
    prop_assert!(total.iter().all(|&d| d >= 0), "summed effect nonneg");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn coverable_state_sets_match_from_scratch(vass in arb_vass(4, 2, 10)) {
        let mut scratch = KmScratch::new(&vass);
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
    fn lasso_tiers_bracket_and_decide(vass in arb_vass(4, 2, 10)) {
        let mut scratch = KmScratch::new(&vass);
        for init in [0usize, 1, 2, 3] {
            let run = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut scratch);
            let reference = CoverabilityGraph::build(&vass, init);
            for target in 0..4usize {
                let expect = lasso(&vass, &reference, target);
                let sound = lasso(&vass, &run, target);
                let complete = run.augmented_nonneg_cycle_through(&vass, &|s| s == target);
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
    fn unpruned_builds_need_no_refutation_tier(vass in arb_vass(4, 2, 10)) {
        let mut scratch = KmScratch::new(&vass);
        for init in [0usize, 1, 2, 3] {
            let run = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut scratch);
            if run.subsumed() > 0 {
                continue;
            }
            for target in 0..4usize {
                prop_assert_eq!(
                    run.augmented_nonneg_cycle_through(&vass, &|s| s == target),
                    lasso(&vass, &run, target),
                    "augmented and real decisions from init {} target {}", init, target
                );
            }
        }
    }

    #[test]
    fn materialized_cycles_are_wellformed(vass in arb_vass(4, 2, 10)) {
        let mut scratch = KmScratch::new(&vass);
        for init in [0usize, 1, 2, 3] {
            let run = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut scratch);
            for target in 0..4usize {
                let search = run.nonneg_cycle_through(&vass, &|s| s == target, 4_096);
                // Cap 0 is the decision alone: it never materializes a walk,
                // and it agrees with the capped search.
                let decision = run.nonneg_cycle_through(&vass, &|s| s == target, 0);
                prop_assert!(
                    !matches!(decision, has_vass::CycleSearch::Witness(_)),
                    "cap 0 returned a walk from init {} target {}", init, target
                );
                prop_assert_eq!(
                    decision.exists(),
                    search.exists(),
                    "cap-0 decision from init {} target {}", init, target
                );
                if let has_vass::CycleSearch::Witness(walk) = search {
                    check_walk(&vass, &run, target, &walk);
                }
            }
        }
    }

    #[test]
    fn witness_paths_chain_control_states(vass in arb_vass(4, 2, 10)) {
        let mut scratch = KmScratch::new(&vass);
        for init in [0usize, 1, 2, 3, 2, 1] {
            let run = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut scratch);
            for node in 0..run.node_count() {
                let mut state = init;
                for a in run.path_to_node(node) {
                    prop_assert_eq!(vass.actions()[a].from, state);
                    state = vass.actions()[a].to;
                }
                prop_assert_eq!(state, run.node(node).state, "path ends at the node");
            }
        }
    }

    #[test]
    fn capped_runs_underapproximate(vass in arb_vass(4, 2, 10), cap in 0usize..12) {
        let mut scratch = KmScratch::new(&vass);
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
    fn repeated_builds_are_byte_identical(vass in arb_vass(4, 2, 10)) {
        let mut warm = KmScratch::new(&vass);
        for init in [0usize, 3, 1, 2, 0, 3] {
            let ra = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut warm);
            let rb = CoverabilityGraph::build_pruned(
                &vass,
                init,
                usize::MAX,
                &mut KmScratch::new(&vass),
            );
            prop_assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
    }

    /// Larger VASS, where the pruned build's ω-first worklist expands nodes
    /// in another order than the exact build's BFS: the order changes the
    /// graph, never the coverable set, the tiered lasso decision or the
    /// shape of a materialized cycle.
    #[test]
    fn omega_first_order_keeps_the_answers(vass in arb_vass(6, 3, 17)) {
        let mut scratch = KmScratch::new(&vass);
        for init in 0..6usize {
            let run = CoverabilityGraph::build_pruned(&vass, init, usize::MAX, &mut scratch);
            let reference = CoverabilityGraph::build(&vass, init);
            prop_assert!(!run.capped());
            prop_assert_eq!(states_of(&run), states_of(&reference), "coverable set from init {}", init);
            for target in 0..6usize {
                prop_assert_eq!(
                    tiered_lasso(&vass, init, &run, target),
                    lasso(&vass, &reference, target),
                    "tiered decision from init {} target {}", init, target
                );
                if let has_vass::CycleSearch::Witness(walk) =
                    run.nonneg_cycle_through(&vass, &|s| s == target, 4_096)
                {
                    check_walk(&vass, &run, target, &walk);
                }
            }
        }
    }
}
