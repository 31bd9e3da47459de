//! Dimension cone-of-influence over a per-query VASS.
//!
//! The Lemma 21 coverability queries pay for every counter dimension of
//! `V(T, β)`, but from a fixed initial state most dimensions cannot
//! influence any verdict: a counter constrains a run only where an action
//! *decrements* it (non-negativity is the sole VASS guard). The cone
//! computation is a fixpoint of two mutually reinforcing rules over the
//! control graph reachable from the query's initial state:
//!
//! 1. an action that decrements a dimension no reachable action increments
//!    can never fire — along every feasible path from the initial state the
//!    dimension is identically zero, so the decrement would go negative;
//!    the action is *disabled* (removed from the reachable control graph);
//! 2. a dimension no reachable live action decrements is outside the cone —
//!    it starts at zero (or accumulates increments) and never blocks a
//!    transition, so dropping it changes no coverability, blocking or
//!    lasso answer.
//!
//! Disabling an action by rule 1 can strand further increments (its targets
//! may become unreachable), which re-triggers rule 1 elsewhere; the loop
//! runs to fixpoint (each iteration disables at least one action, so it
//! terminates in at most `|actions|` rounds, each a linear reachability
//! sweep).
//!
//! Both rules are **exact**, not approximate: the feasible-run set of the
//! assembled VASS ([`DimensionCone::assemble`]) equals that of the original,
//! so every Lemma 21 verdict — returning outputs, blocking states, the
//! existence of a non-negative accepting cycle — is preserved byte for
//! byte, while the Karp–Miller graph (whose size is what explodes with the
//! dimension) shrinks. DESIGN.md §5.9 states the soundness argument in
//! full.
//!
//! The fixpoint runs on the **sparse** action list the VASS is built from
//! ([`SparseActions`]): each action stores only its non-zero *net* entries,
//! so a round costs `O(actions + non-zeros)` whatever the dimension, and
//! the rules read exactly the deltas a dense VASS would hold (an insert and
//! a retrieve on one dimension net to zero and are neither). The pair's one
//! real VASS is then assembled from the list over the kept dimensions only.

use has_vass::{ActionCsr, SparseActions, Vass};

/// The cone of influence of one `(VASS, initial state)` query: which
/// dimensions can influence a verdict, and which actions are proven
/// unfireable.
#[derive(Clone, Debug)]
pub struct DimensionCone {
    /// Per-dimension: inside the cone (some reachable live action decrements
    /// it)?
    keep: Vec<bool>,
    /// Per-action: proven unfireable by rule 1 (decrements a
    /// never-incremented dimension)?
    disabled: Vec<bool>,
    /// Number of kept dimensions.
    kept: usize,
    /// Whether any action was disabled.
    any_disabled: bool,
}

impl DimensionCone {
    /// The VASS dimension before projection.
    pub fn dims_before(&self) -> usize {
        self.keep.len()
    }

    /// The cone size: dimensions that can influence a verdict from this
    /// initial state.
    pub fn dims_after(&self) -> usize {
        self.kept
    }

    /// Whether dimension `d` is inside the cone.
    pub fn keeps(&self, d: usize) -> bool {
        self.keep[d]
    }

    /// Whether action `a` is proven unfireable.
    pub fn disables(&self, a: usize) -> bool {
        self.disabled[a]
    }

    /// Assembles the VASS of `list` over `states` control states, restricted
    /// to the cone: same action count, **order** and endpoints (so action
    /// indices keep identifying the same transition — witness paths index
    /// into per-transition labels), with each delta restricted to the kept
    /// dimensions, renumbered densely in their original order. Disabled
    /// actions stay index-stable but are made unfireable through one
    /// reserved sink dimension that is never incremented and that only they
    /// decrement; the sink exists only when some action is disabled. A
    /// trivial cone assembles the full-dimension VASS. One pass over the
    /// list ([`Vass::from_actions`]), writing only kept coordinates: a cone
    /// of 0 dimensions without disables allocates no delta arena.
    ///
    /// # Panics
    /// Panics if `list` is not the action list the cone was computed on
    /// (another action count), or an action leaves `0..states`.
    pub fn assemble(&self, list: &SparseActions, states: usize) -> Vass {
        assert_eq!(
            list.len(),
            self.disabled.len(),
            "cone of another action list"
        );
        // Original dimension → assembled coordinate, for kept dimensions.
        let mut coord: Vec<Option<usize>> = vec![None; self.keep.len()];
        let mut k = 0;
        for (d, _) in self.keep.iter().enumerate().filter(|&(_, &keep)| keep) {
            coord[d] = Some(k);
            k += 1;
        }
        let dim = k + usize::from(self.any_disabled);
        Vass::from_actions(states, dim, list.actions(), |a, row| {
            if self.disabled[a] {
                row[k] = -1;
            } else {
                for &(d, v) in list.delta(a) {
                    if let Some(c) = coord[d as usize] {
                        row[c] = v;
                    }
                }
            }
        })
    }
}

/// The dimension cone of influence over the queries starting at any of
/// `inits` — see the module docs for the fixpoint and its exactness — of
/// the VASS of dimension `dim` whose actions are `list`. `adjacency` is the
/// list's action CSR ([`SparseActions::action_csr`]); its state count is the
/// VASS's. The verifier passes all of a `(T, β)` pair's initial states
/// (DESIGN.md §5.12), so every `τ_in` query of the pair runs on the *same*
/// assembled VASS; `&[init]` gives the single-query cone.
///
/// The fixpoint is the single-init one with reachability seeded from all of
/// `inits`, and it stays **exact for each individual init**: union
/// reachability only grows the reachable-live action set, so "dimension
/// never incremented by a reachable live action" (rule 1) still proves the
/// decrementing action unfireable from every listed init, and a dimension
/// dropped by rule 2 is decremented by no action reachable from any of
/// them. The result is merely more conservative (fewer disables, more kept
/// dimensions) than each per-init cone.
///
/// Each round walks only the reachable states' live actions and reads only
/// their non-zero entries. With `dim == 0` there is nothing to keep or
/// disable, and the trivial cone is returned without a round.
///
/// # Panics
/// Panics if `adjacency` has another action count than `list`, or an entry
/// names a dimension not below `dim`.
pub fn dimension_cone_multi(
    list: &SparseActions,
    dim: usize,
    adjacency: &ActionCsr,
    inits: &[usize],
) -> DimensionCone {
    let n_actions = list.len();
    assert_eq!(
        adjacency.action_count(),
        n_actions,
        "adjacency of another action list"
    );
    let mut disabled = vec![false; n_actions];
    if dim == 0 {
        return DimensionCone {
            keep: Vec::new(),
            disabled,
            kept: 0,
            any_disabled: false,
        };
    }
    let actions = list.actions();
    let max_init = inits.iter().copied().max().map_or(0, |m| m + 1);
    let mut reach = vec![false; adjacency.states().max(max_init)];
    // The reachable states of the current round, in visit order.
    let mut visited: Vec<usize> = Vec::new();
    let mut incremented = vec![false; dim];
    let mut keep = vec![false; dim];
    let mut any_disabled = false;
    // The live actions leaving the reachable states of the current round.
    let mut live: Vec<u32> = Vec::new();

    loop {
        // Control-graph reachability from the inits over live actions,
        // recording which dimensions the reachable live actions increment.
        reach.fill(false);
        visited.clear();
        for &init in inits {
            if !reach[init] {
                reach[init] = true;
                visited.push(init);
            }
        }
        live.clear();
        incremented.fill(false);
        let mut next = 0;
        while let Some(&s) = visited.get(next) {
            next += 1;
            for &a in adjacency.actions_from(s) {
                if disabled[a as usize] {
                    continue;
                }
                live.push(a);
                for &(d, v) in list.delta(a as usize) {
                    if v > 0 {
                        incremented[d as usize] = true;
                    }
                }
                let to = actions[a as usize].to;
                if !reach[to] {
                    reach[to] = true;
                    visited.push(to);
                }
            }
        }
        // Rule 1: a reachable live action decrementing a never-incremented
        // dimension can never fire. Rule 2 in the same pass: keep the
        // dimensions the surviving actions decrement, which is the answer
        // once a round disables nothing.
        keep.fill(false);
        let mut changed = false;
        for &a in &live {
            let delta = list.delta(a as usize);
            if delta
                .iter()
                .any(|&(d, v)| v < 0 && !incremented[d as usize])
            {
                disabled[a as usize] = true;
                changed = true;
            } else {
                for &(d, v) in delta {
                    if v < 0 {
                        keep[d as usize] = true;
                    }
                }
            }
        }
        any_disabled |= changed;
        if !changed {
            let kept = keep.iter().filter(|&&k| k).count();
            return DimensionCone {
                keep,
                disabled,
                kept,
                any_disabled,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_vass::CoverabilityGraph;

    /// The sparse action list of `v`.
    fn list_of(v: &Vass) -> SparseActions {
        let mut list = SparseActions::new();
        for (a, action) in v.actions().iter().enumerate() {
            let delta = v.delta(a).iter().enumerate();
            list.push(action.from, delta.map(|(d, &x)| (d as u32, x)), action.to);
        }
        list
    }

    /// The cone of `v` from `inits`, and the VASS it assembles.
    fn cone_of(v: &Vass, inits: &[usize]) -> (DimensionCone, Vass) {
        let list = list_of(v);
        let cone = dimension_cone_multi(&list, v.dim, &list.action_csr(v.states), inits);
        let assembled = cone.assemble(&list, v.states);
        (cone, assembled)
    }

    /// Insert-only dimension: dropped (never decremented), nothing disabled.
    #[test]
    fn insert_only_dimension_leaves_the_cone() {
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![1], 0);
        v.add_action(0, vec![0], 1);
        let (cone, p) = cone_of(&v, &[0]);
        assert_eq!((cone.dims_before(), cone.dims_after()), (1, 0));
        assert_eq!(p.dim, 0);
        assert_eq!(p.actions(), v.actions());
    }

    /// A retrieve with no reachable insert: the action is disabled and the
    /// dimension leaves the cone; the sink makes the action unfireable.
    #[test]
    fn retrieve_without_insert_is_disabled() {
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![0], 1); // plain step
        v.add_action(1, vec![-1], 2); // decrement never enabled
        let (cone, p) = cone_of(&v, &[0]);
        assert_eq!(cone.dims_after(), 0);
        assert!(cone.disables(1) && !cone.disables(0));
        assert_eq!(p.dim, 1, "one sink dimension");
        let g = CoverabilityGraph::build(&p, 0);
        // State 2 is only reachable through the disabled action.
        assert!(g.path_to_state(2).is_none());
        assert!(g.path_to_state(1).is_some());
    }

    /// A matched insert/retrieve pair stays in the cone untouched, and the
    /// trivial cone assembles the full-dimension VASS.
    #[test]
    fn matched_pair_is_trivial() {
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![1], 1);
        v.add_action(1, vec![-1], 0);
        let (cone, p) = cone_of(&v, &[0]);
        assert_eq!((cone.dims_before(), cone.dims_after()), (1, 1));
        assert!((0..2).all(|a| !cone.disables(a)));
        assert_eq!((p.dim, p.actions()), (1, v.actions()));
        assert_eq!((p.delta(0), p.delta(1)), (&[1][..], &[-1][..]));
    }

    /// An insert and a retrieve naming one dimension net to zero: the
    /// action is neither an increment nor a decrement. It is never
    /// disabled and keeps no dimension, and it does not enable a later
    /// retrieve of that dimension, which rule 1 disables. Reading the two
    /// entries separately instead of their net would keep the dimension
    /// and the later retrieve alive.
    #[test]
    fn same_dimension_insert_and_retrieve_nets_to_zero() {
        let mut list = SparseActions::new();
        list.push(0, [(0, 1), (0, -1)], 1);
        list.push(1, [(0, -1)], 2);
        let cone = dimension_cone_multi(&list, 1, &list.action_csr(3), &[0]);
        assert!(!cone.disables(0), "the netted action is live");
        assert!(cone.disables(1), "nothing increments dimension 0");
        assert!(!cone.keeps(0));
        assert_eq!(cone.dims_after(), 0);
        let p = cone.assemble(&list, 3);
        assert_eq!(p.dim, 1, "the sink only");
        assert_eq!((p.delta(0), p.delta(1)), (&[0][..], &[-1][..]));
        let g = CoverabilityGraph::build(&p, 0);
        assert!(g.path_to_state(1).is_some() && g.path_to_state(2).is_none());
    }

    /// Without dimensions there is nothing to keep or disable: the cone is
    /// trivial and assembles a 0-dimensional VASS with every action.
    #[test]
    fn zero_dimension_list_yields_a_trivial_cone() {
        let mut list = SparseActions::new();
        for (from, to) in [(0, 1), (1, 1), (1, 0)] {
            list.push(from, [], to);
        }
        let cone = dimension_cone_multi(&list, 0, &list.action_csr(2), &[0]);
        assert_eq!((cone.dims_before(), cone.dims_after()), (0, 0));
        assert!((0..3).all(|a| !cone.disables(a)));
        let p = cone.assemble(&list, 2);
        assert_eq!((p.states, p.dim), (2, 0));
        assert_eq!(p.actions(), list.actions());
    }

    /// The sink dimension is added exactly when some action is disabled:
    /// dropping dimensions alone adds none.
    #[test]
    fn sink_dimension_only_when_some_action_is_disabled() {
        // Dimension 0 is live, dimension 1 insert-only: one kept, no sink.
        let mut v = Vass::new(2, 2);
        v.add_action(0, vec![1, 1], 1);
        v.add_action(1, vec![-1, 0], 0);
        let (cone, p) = cone_of(&v, &[0]);
        assert!((0..2).all(|a| !cone.disables(a)));
        assert_eq!((cone.dims_after(), p.dim), (1, 1));
        // A retrieve with no insert anywhere: disabled, so the sink appears.
        let mut w = Vass::new(2, 1);
        w.add_action(0, vec![0], 1);
        w.add_action(1, vec![-1], 1);
        let (cone, p) = cone_of(&w, &[0]);
        assert!(cone.disables(1));
        assert_eq!((cone.dims_after(), p.dim), (0, 1));
        assert_eq!(p.delta(1), &[-1]);
        assert_eq!(p.delta(0), &[0]);
    }

    /// Cascade: disabling a decrement strands the only increment of a second
    /// dimension behind it, which disables that dimension's decrement too.
    #[test]
    fn disabling_cascades_through_stranded_increments() {
        let mut v = Vass::new(4, 2);
        v.add_action(0, vec![-1, 0], 1); // dead: dim 0 never incremented
        v.add_action(1, vec![0, 1], 2); // only increment of dim 1, stranded
        v.add_action(0, vec![0, -1], 3); // becomes dead once 1→2 is stranded
        let (cone, _) = cone_of(&v, &[0]);
        assert_eq!(cone.dims_after(), 0);
        assert!(cone.disables(0) && cone.disables(2));
        // The stranded increment is unreachable, not "disabled".
        assert!(!cone.disables(1));
    }

    /// Reachability is per initial state: from state 1 the increment at 0 is
    /// unreachable and the decrement dies; from state 0 the pair is live.
    #[test]
    fn cone_depends_on_the_initial_state() {
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![1], 1);
        v.add_action(1, vec![-1], 2);
        let (from_start, _) = cone_of(&v, &[0]);
        assert_eq!(from_start.dims_after(), from_start.dims_before());
        assert!((0..2).all(|a| !from_start.disables(a)));
        let (from_mid, _) = cone_of(&v, &[1]);
        assert_eq!(from_mid.dims_after(), 0);
        assert!(from_mid.disables(1));
    }

    /// Assembly preserves coverability of control states exactly on a
    /// mixed example: one live pair, one insert-only dimension, one dead
    /// retrieve guarding an otherwise-unreachable state.
    #[test]
    fn projection_preserves_reachable_state_set() {
        let mut v = Vass::new(5, 3);
        v.add_action(0, vec![1, 0, 0], 1); // live insert (dim 0)
        v.add_action(1, vec![-1, 0, 0], 2); // live retrieve (dim 0)
        v.add_action(1, vec![0, 1, 0], 3); // insert-only dim 1
        v.add_action(3, vec![0, 0, -1], 4); // dead retrieve (dim 2)
        let (cone, p) = cone_of(&v, &[0]);
        assert_eq!(cone.dims_after(), 1);
        assert!(cone.keeps(0) && !cone.keeps(1) && !cone.keeps(2));
        let full = CoverabilityGraph::build(&v, 0);
        let proj = CoverabilityGraph::build(&p, 0);
        for s in 0..5 {
            assert_eq!(
                full.path_to_state(s).is_some(),
                proj.path_to_state(s).is_some(),
                "state {s} coverability must be preserved"
            );
        }
        assert!(proj.node_count() <= full.node_count());
    }
}
