//! The VASS model and its decision procedures.

use crate::coverability::CoverabilityGraph;
use std::fmt;

/// An action `(from, δ, to)`: move from control state `from` to `to`, adding
/// `δ` to the counter vector (which must stay non-negative). The delta `δ`
/// lives in the owning [`Vass`]'s flat arena: read it with [`Vass::delta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Action {
    /// Source control state.
    pub from: usize,
    /// Target control state.
    pub to: usize,
}

/// A Vector Addition System with States.
#[derive(Clone, Debug, Default)]
pub struct Vass {
    /// Number of control states.
    pub states: usize,
    /// Vector dimension.
    pub dim: usize,
    /// Actions, in insertion order.
    actions: Vec<Action>,
    /// The action deltas, `dim` entries per action in action order: action
    /// `a`'s delta is `deltas[a * dim..(a + 1) * dim]`. One flat arena
    /// instead of one heap vector per action.
    deltas: Vec<i64>,
}

impl Vass {
    /// Creates a VASS with the given number of control states and dimension.
    pub fn new(states: usize, dim: usize) -> Self {
        Vass {
            states,
            dim,
            actions: Vec::new(),
            deltas: Vec::new(),
        }
    }

    /// Reserves room for at least `additional` more actions (and their
    /// deltas), so a caller that knows its action count assembles the VASS
    /// without regrowing the arena.
    pub fn reserve(&mut self, additional: usize) {
        self.actions.reserve(additional);
        self.deltas.reserve(additional * self.dim);
    }

    /// Adds an action.
    ///
    /// # Panics
    /// Panics if the states are out of range or the delta has the wrong
    /// dimension.
    pub fn add_action(&mut self, from: usize, delta: Vec<i64>, to: usize) {
        assert!(from < self.states && to < self.states, "state out of range");
        assert_eq!(delta.len(), self.dim, "delta dimension mismatch");
        self.actions.push(Action { from, to });
        self.deltas.extend_from_slice(&delta);
    }

    /// Adds an action whose delta is given sparsely as `(index, amount)`
    /// pairs; every other coordinate is zero, and amounts at the same index
    /// add up. Equivalent to [`Vass::add_action`] with the densified vector,
    /// without allocating it.
    ///
    /// # Panics
    /// Panics if the states are out of range or an index is not below
    /// [`Vass::dim`].
    pub fn add_action_sparse(&mut self, from: usize, delta: &[(u32, i64)], to: usize) {
        assert!(from < self.states && to < self.states, "state out of range");
        for &(index, _) in delta {
            assert!(
                (index as usize) < self.dim,
                "delta index {index} out of range"
            );
        }
        let base = self.deltas.len();
        self.deltas.resize(base + self.dim, 0);
        for &(index, amount) in delta {
            self.deltas[base + index as usize] += amount;
        }
        self.actions.push(Action { from, to });
    }

    /// The actions, in insertion order; action `a` is `actions()[a]`.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The delta of action `a` (length [`Vass::dim`]).
    pub fn delta(&self, a: usize) -> &[i64] {
        &self.deltas[a * self.dim..(a + 1) * self.dim]
    }

    /// Per-state adjacency in compressed-sparse-row form: two flat arrays
    /// instead of one allocation per state. [`ActionCsr::actions_from`]
    /// returns the action indices leaving a state, in insertion order.
    pub fn action_csr(&self) -> ActionCsr {
        let mut offsets = vec![0u32; self.states + 1];
        for a in &self.actions {
            offsets[a.from + 1] += 1;
        }
        for s in 0..self.states {
            offsets[s + 1] += offsets[s];
        }
        let mut actions = vec![0u32; self.actions.len()];
        let mut cursor = offsets.clone();
        for (i, a) in self.actions.iter().enumerate() {
            actions[cursor[a.from] as usize] = i as u32;
            cursor[a.from] += 1;
        }
        ActionCsr { offsets, actions }
    }

    /// Decides control-state reachability from `(init, 0̄)`: is there a run
    /// reaching some configuration with control state `target`?
    ///
    /// The coverability-graph construction stops as soon as the target is
    /// discovered ([`CoverabilityGraph::build_to_state`]) rather than
    /// building the whole graph.
    pub fn state_reachable(&self, init: usize, target: usize) -> bool {
        if init == target {
            return true;
        }
        let graph = CoverabilityGraph::build_to_state(self, init, target);
        let reachable = graph.nodes().any(|n| n.state == target);
        reachable
    }

    /// Decides state repeated reachability from `(init, 0̄)`: is there a run
    /// `(init, 0̄) →* (target, v̄) →⁺ (target, v̄')` with `v̄ ≤ v̄'`
    /// componentwise? (Lemma 21's lasso condition.)
    ///
    /// The decision is exact: it looks for a cycle through a
    /// coverability-graph node with control state `target` whose summed
    /// action delta is componentwise non-negative, decided by circulation
    /// feasibility per strongly connected component (see [`crate::cycle`]).
    /// The `max_cycle_len` parameter of earlier versions is gone — the old
    /// bounded search silently missed lassos longer than its cap.
    pub fn state_repeated_reachable(&self, init: usize, target: usize) -> bool {
        let graph = CoverabilityGraph::build(self, init);
        graph
            .nonneg_cycle_through(self, &|s| s == target, 0)
            .exists()
    }

    /// Number of actions.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }
}

/// Compressed-sparse-row action adjacency of a [`Vass`] (see
/// [`Vass::action_csr`]): `offsets` has one entry per state plus a
/// terminator, `actions` holds the action indices grouped by source state.
#[derive(Clone, Debug)]
pub struct ActionCsr {
    offsets: Vec<u32>,
    actions: Vec<u32>,
}

impl ActionCsr {
    /// The indices of the actions leaving `state`, in insertion order.
    pub fn actions_from(&self, state: usize) -> &[u32] {
        &self.actions[self.offsets[state] as usize..self.offsets[state + 1] as usize]
    }
}

impl fmt::Display for Vass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Vass({} states, dim {}, {} actions)",
            self.states,
            self.dim,
            self.actions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A producer/consumer VASS: state 0 pumps the counter, state 1 drains it.
    fn producer_consumer() -> Vass {
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![1], 0); // produce
        v.add_action(0, vec![0], 1); // switch
        v.add_action(1, vec![-1], 1); // consume
        v.add_action(1, vec![-1], 2); // finish (requires one token)
        v
    }

    #[test]
    fn reachability_through_counters() {
        let v = producer_consumer();
        assert!(v.state_reachable(0, 1));
        assert!(v.state_reachable(0, 2));
        assert!(!v.state_reachable(1, 0));
    }

    #[test]
    fn unreachable_when_counter_cannot_be_paid() {
        // Reaching state 1 requires decrementing from zero: impossible.
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![-1], 1);
        assert!(!v.state_reachable(0, 1));
        assert!(v.state_reachable(0, 0));
    }

    #[test]
    fn repeated_reachability_of_pumping_state() {
        let v = producer_consumer();
        // State 0 loops with +1: repeatedly reachable.
        assert!(v.state_repeated_reachable(0, 0));
        // State 1 loops with -1 only: a cycle exists in the coverability
        // graph (counter is ω) but its effect is negative, so it is *not*
        // repeatedly reachable... unless the counter can be pumped before
        // each visit — which it cannot once in state 1. Expect false.
        assert!(!v.state_repeated_reachable(1, 1));
        // State 2 has no outgoing actions: not repeatedly reachable.
        assert!(!v.state_repeated_reachable(0, 2));
    }

    #[test]
    fn repeated_reachability_with_balanced_cycle() {
        // 0 -> 1 (+1), 1 -> 0 (-1): a balanced cycle through both states.
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![1], 1);
        v.add_action(1, vec![-1], 0);
        assert!(v.state_repeated_reachable(0, 0));
        assert!(v.state_repeated_reachable(0, 1));
    }

    #[test]
    fn self_loop_without_counters_is_a_lasso() {
        let mut v = Vass::new(1, 0);
        v.add_action(0, vec![], 0);
        assert!(v.state_repeated_reachable(0, 0));
    }

    #[test]
    fn no_actions_means_no_lasso() {
        let v = Vass::new(1, 0);
        assert!(!v.state_repeated_reachable(0, 0));
        assert!(v.state_reachable(0, 0));
    }

    #[test]
    fn sparse_action_equals_densified_action() {
        let mut sparse = Vass::new(2, 4);
        let mut dense = Vass::new(2, 4);
        let mut add = |from: usize, delta: &[(u32, i64)], to: usize| {
            sparse.add_action_sparse(from, delta, to);
            let mut d = vec![0i64; 4];
            for &(k, v) in delta {
                d[k as usize] += v;
            }
            dense.add_action(from, d, to);
        };
        add(0, &[], 1);
        add(1, &[(3, 1), (0, -1)], 0);
        add(0, &[(2, 1), (2, -1)], 0); // insert and retrieve on one dim cancel
        add(1, &[(1, -1)], 1);
        assert_eq!(sparse.actions(), dense.actions());
        for a in 0..dense.action_count() {
            assert_eq!(sparse.delta(a), dense.delta(a));
        }
        assert_eq!(sparse.delta(1), &[-1, 0, 0, 1]);
        assert_eq!(sparse.delta(2), &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sparse_index_out_of_range_panics() {
        let mut v = Vass::new(1, 2);
        v.add_action_sparse(0, &[(2, 1)], 0);
    }

    #[test]
    #[should_panic]
    fn wrong_dimension_panics() {
        let mut v = Vass::new(1, 2);
        v.add_action(0, vec![1], 0);
    }
}
