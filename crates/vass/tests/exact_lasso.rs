//! Tests of the exact lasso decision procedure: the EXP-F3 regression that
//! motivated it, cap-bug regressions, and property-based cross-checks against
//! the explicit [`BoundedExplorer`] ground truth.

// This target calls only `BoundedExplorer::has_lasso`; the oracle's other
// methods serve `prop_coverability.rs`.
#[allow(dead_code)]
#[path = "support/bounded.rs"]
mod bounded;

use bounded::BoundedExplorer;
use has_vass::{CoverabilityGraph, Vass};
use proptest::prelude::*;
use std::time::Instant;

/// The EXP-F3 gadget: state 0 pumps each of `d` counters, state 1 drains
/// them (EXP-F3, `cargo run --release -p has-bench --bin tables -- vass`).
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

/// Regression for the EXP-F3 blowup: the old depth-first cycle search ran
/// for many minutes on the `d = 5` instance; the exact procedure must answer
/// both lasso queries near-instantly (this is a tier-1 test, so the bound is
/// generous enough for debug builds and loaded CI machines).
#[test]
fn exp_f3_pump_drain_5_is_fast() {
    let v = pump_drain(5);
    let start = Instant::now();
    // State 0 pumps forever: repeatedly reachable.
    assert!(v.state_repeated_reachable(0, 0));
    // State 1 only drains: every cycle through it is strictly negative.
    assert!(!v.state_repeated_reachable(0, 1));
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs() < 5,
        "EXP-F3 d=5 lasso queries took {elapsed:?}; the exponential blowup is back"
    );
}

/// The old implementation capped the searched cycle length (callers passed
/// `Some(32)`), silently missing longer lassos. The only cycle through state
/// 0 here has length 100.
#[test]
fn lassos_longer_than_the_old_cap_are_found() {
    let n = 100;
    let mut v = Vass::new(n, 1);
    for s in 0..n {
        v.add_action(s, vec![0], (s + 1) % n);
    }
    assert!(v.state_repeated_reachable(0, 0));
    let graph = CoverabilityGraph::build(&v, 0);
    assert!(graph.nonneg_cycle_through(&v, &|s| s == n - 1, 0).exists());
}

/// A lasso that must traverse a pumping loop many times before paying a
/// large debt: the witnessing closed walk is much longer than the number of
/// graph nodes, which defeated the old default bound of `2 · |nodes|`.
#[test]
fn heavily_amortized_lassos_are_found() {
    // 0 → 1 costs 1000 of counter 0; a self-loop at 1 earns 1 per turn;
    // 1 → 0 closes the cycle. Counter 0 starts pumpable at state 0.
    let mut v = Vass::new(2, 1);
    v.add_action(0, vec![1], 0); // pump
    v.add_action(0, vec![-1000], 1);
    v.add_action(1, vec![1], 1);
    v.add_action(1, vec![0], 0);
    assert!(v.state_repeated_reachable(0, 0));
    assert!(v.state_repeated_reachable(0, 1));
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
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Completeness against ground truth: every capped lasso the explicit
    /// explorer finds is a genuine lasso, so the exact procedure must
    /// confirm it.
    #[test]
    fn explorer_lassos_are_confirmed(vass in arb_vass(4, 3)) {
        let explorer = BoundedExplorer::new(5, 20_000);
        for target in 0..4 {
            if explorer.has_lasso(&vass, 0, target) {
                prop_assert!(
                    vass.state_repeated_reachable(0, target),
                    "explorer found a lasso at {target} that the exact procedure missed"
                );
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Soundness against an independent bounded witness search: whenever the
    /// exact procedure claims a lasso, a closed walk with componentwise
    /// non-negative effect must exist in the coverability graph. The witness
    /// search is the pre-rewrite exponential DFS, so it runs with fewer
    /// cases and under a step budget; instances where it exhausts the budget
    /// without a verdict are skipped (they cannot falsify the claim either
    /// way).
    #[test]
    fn claimed_lassos_have_walk_witnesses(vass in arb_vass(3, 2)) {
        let graph = CoverabilityGraph::build(&vass, 0);
        for target in 0..3 {
            if graph.nonneg_cycle_through(&vass, &|s| s == target, 0).exists() {
                prop_assert!(
                    walk_witness_exists(&vass, &graph, target, 28, 60_000) != Some(false),
                    "exact procedure claims a lasso at {target} with no short witness"
                );
            }
        }
    }
}

/// Reference search: a closed walk through a node with state `target` whose
/// accumulated delta is componentwise non-negative, up to `max_len` steps,
/// with dominance pruning (the pre-rewrite algorithm, kept here as a test
/// oracle only). Returns `Some(found)` on an exhaustive answer within the
/// step budget, `None` when the budget runs out first.
fn walk_witness_exists(
    vass: &Vass,
    graph: &CoverabilityGraph,
    target: usize,
    max_len: usize,
    mut budget: usize,
) -> Option<bool> {
    let nodes: Vec<_> = graph.nodes().collect();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes.len()];
    for (from, action_idx, to) in graph.edges() {
        adj[from].push((action_idx, to));
    }
    for start in 0..nodes.len() {
        if nodes[start].state != target {
            continue;
        }
        let mut stack = vec![(start, vec![0i64; vass.dim], 0usize)];
        let mut seen: Vec<Vec<(Vec<i64>, usize)>> = vec![Vec::new(); nodes.len()];
        while let Some((node, acc, depth)) = stack.pop() {
            match budget.checked_sub(1) {
                Some(b) => budget = b,
                None => return None,
            }
            if depth > 0 && node == start && acc.iter().all(|d| *d >= 0) {
                return Some(true);
            }
            if depth >= max_len {
                continue;
            }
            let dominated = seen[node]
                .iter()
                .any(|(prev, pd)| *pd <= depth && prev.iter().zip(&acc).all(|(p, a)| p >= a));
            if dominated && depth > 0 {
                continue;
            }
            seen[node].push((acc.clone(), depth));
            for &(action_idx, next) in &adj[node] {
                let delta = vass.delta(action_idx);
                let next_acc: Vec<i64> = acc.iter().zip(delta).map(|(a, d)| a + d).collect();
                stack.push((next, next_acc, depth + 1));
            }
        }
    }
    Some(false)
}
