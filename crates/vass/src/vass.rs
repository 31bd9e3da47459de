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

    /// Assembles a VASS over `states` control states and dimension `dim`
    /// with exactly `actions`, in order, in one pass: action `a`'s delta
    /// row starts zeroed and `fill(a, row)` writes its non-zero
    /// coordinates. With `dim == 0` the arena is never allocated and `fill`
    /// is never called.
    ///
    /// # Panics
    /// Panics if an action's state is out of range.
    pub fn from_actions(
        states: usize,
        dim: usize,
        actions: &[Action],
        mut fill: impl FnMut(usize, &mut [i64]),
    ) -> Self {
        assert!(
            actions.iter().all(|a| a.from < states && a.to < states),
            "state out of range"
        );
        let mut deltas = vec![0i64; actions.len() * dim];
        if dim > 0 {
            for (a, row) in deltas.chunks_exact_mut(dim).enumerate() {
                fill(a, row);
            }
        }
        Vass {
            states,
            dim,
            actions: actions.to_vec(),
            deltas,
        }
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
        ActionCsr::over(self.states, &self.actions)
    }

    /// Decides control-state reachability from `(init, 0̄)`: is there a run
    /// reaching some configuration with control state `target`?
    pub fn state_reachable(&self, init: usize, target: usize) -> bool {
        init == target
            || CoverabilityGraph::build(self, init)
                .nodes()
                .any(|n| n.state == target)
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
    /// The CSR of `actions` over `states` control states.
    fn over(states: usize, actions: &[Action]) -> Self {
        let mut offsets = vec![0u32; states + 1];
        for a in actions {
            offsets[a.from + 1] += 1;
        }
        for s in 0..states {
            offsets[s + 1] += offsets[s];
        }
        let mut indices = vec![0u32; actions.len()];
        let mut cursor = offsets.clone();
        for (i, a) in actions.iter().enumerate() {
            indices[cursor[a.from] as usize] = i as u32;
            cursor[a.from] += 1;
        }
        ActionCsr {
            offsets,
            actions: indices,
        }
    }

    /// Number of control states.
    pub fn states(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of actions.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// The indices of the actions leaving `state`, in insertion order.
    pub fn actions_from(&self, state: usize) -> &[u32] {
        &self.actions[self.offsets[state] as usize..self.offsets[state + 1] as usize]
    }
}

/// A flat action list whose deltas are stored sparsely: per action only
/// its non-zero `(dimension, amount)` entries, in one shared entry arena.
/// This is the form a VASS is *built* in when most actions move few of its
/// counters (the verifier's `V(T, β)`: one insert and one retrieve at
/// most): a pass over it costs `O(actions + non-zeros)`, independent of
/// the dimension. The list carries neither a state count nor a dimension;
/// the consumer supplies both (see [`SparseActions::action_csr`]).
#[derive(Clone, Debug)]
pub struct SparseActions {
    actions: Vec<Action>,
    /// Action `a`'s entries are `entries[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<u32>,
    entries: Vec<(u32, i64)>,
}

impl Default for SparseActions {
    fn default() -> Self {
        SparseActions {
            actions: Vec::new(),
            offsets: vec![0],
            entries: Vec::new(),
        }
    }
}

impl SparseActions {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the action `from → to` with the delta given as
    /// `(dimension, amount)` pairs; every other coordinate is zero. Amounts
    /// at one dimension add up, and a dimension whose amounts sum to zero
    /// is not stored, so [`SparseActions::delta`] holds exactly the
    /// action's non-zero net entries.
    pub fn push(&mut self, from: usize, delta: impl IntoIterator<Item = (u32, i64)>, to: usize) {
        let start = self.entries.len();
        for (dim, amount) in delta {
            match self.entries[start..].iter_mut().find(|(d, _)| *d == dim) {
                Some((_, sum)) => *sum += amount,
                None => self.entries.push((dim, amount)),
            }
        }
        let mut end = start;
        for i in start..self.entries.len() {
            if self.entries[i].1 != 0 {
                self.entries[end] = self.entries[i];
                end += 1;
            }
        }
        self.entries.truncate(end);
        self.actions.push(Action { from, to });
        self.offsets
            .push(u32::try_from(end).expect("sparse entries are u32-indexed"));
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the list has no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The actions, in insertion order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The non-zero net entries of action `a`'s delta, in first-mention
    /// order.
    pub fn delta(&self, a: usize) -> &[(u32, i64)] {
        &self.entries[self.offsets[a] as usize..self.offsets[a + 1] as usize]
    }

    /// The action adjacency over `states` control states — the same CSR
    /// [`Vass::action_csr`] returns for any VASS with these actions, in this
    /// order, so one CSR serves both the list and a VASS assembled from it.
    ///
    /// # Panics
    /// Panics if an action's source is not below `states`.
    pub fn action_csr(&self, states: usize) -> ActionCsr {
        ActionCsr::over(states, &self.actions)
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
    fn sparse_actions_store_net_nonzero_entries() {
        let mut list = SparseActions::new();
        list.push(0, [], 1);
        list.push(1, [(3, 1), (0, -1)], 0);
        list.push(0, [(2, 1), (2, -1)], 0); // insert and retrieve on one dim cancel
        list.push(1, [(1, -1), (4, 2), (1, -1)], 1);
        assert_eq!(list.len(), 4);
        assert!(list.delta(0).is_empty());
        assert_eq!(list.delta(1), &[(3, 1), (0, -1)]);
        assert!(list.delta(2).is_empty());
        assert_eq!(list.delta(3), &[(1, -2), (4, 2)]);
        let csr = list.action_csr(2);
        assert_eq!((csr.states(), csr.action_count()), (2, 4));
        assert_eq!(
            (csr.actions_from(0), csr.actions_from(1)),
            (&[0, 2][..], &[1, 3][..])
        );
    }

    /// Without dimensions the arena stays unallocated, however many
    /// actions the VASS has and however it is built.
    #[test]
    fn zero_dimension_vass_allocates_no_delta_arena() {
        let mut v = Vass::new(3, 0);
        for s in 0..3 {
            v.add_action(s, vec![], (s + 1) % 3);
            v.add_action(s, vec![], s);
        }
        assert_eq!(v.action_count(), 6);
        assert_eq!(v.deltas.capacity(), 0);
        assert!(v.delta(5).is_empty());
        let assembled = Vass::from_actions(3, 0, v.actions(), |_, _| unreachable!());
        assert_eq!(assembled.actions(), v.actions());
        assert_eq!(assembled.deltas.capacity(), 0);
        assert!(assembled.delta(5).is_empty());
    }

    #[test]
    fn assembled_vass_equals_the_incremental_one() {
        let v = producer_consumer();
        let assembled = Vass::from_actions(v.states, v.dim, v.actions(), |a, row| {
            row.copy_from_slice(v.delta(a));
        });
        assert_eq!((assembled.states, assembled.dim), (v.states, v.dim));
        assert_eq!(assembled.actions(), v.actions());
        for a in 0..v.action_count() {
            assert_eq!(assembled.delta(a), v.delta(a));
        }
    }

    #[test]
    #[should_panic(expected = "state out of range")]
    fn assembled_state_out_of_range_panics() {
        Vass::from_actions(1, 0, &[Action { from: 0, to: 1 }], |_, _| {});
    }

    #[test]
    #[should_panic]
    fn wrong_dimension_panics() {
        let mut v = Vass::new(1, 2);
        v.add_action(0, vec![1], 0);
    }
}
