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
//! projected VASS ([`DimensionCone::project`]) equals that of the original,
//! so every Lemma 21 verdict — returning outputs, blocking states, the
//! existence of a non-negative accepting cycle — is preserved byte for
//! byte, while the Karp–Miller graph (whose size is what explodes with the
//! dimension) shrinks. DESIGN.md §5.9 states the soundness argument in
//! full.

use has_vass::Vass;
use std::collections::VecDeque;

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

    /// `true` when projection would change nothing: every dimension is in
    /// the cone and no action is disabled. Callers then query the original
    /// VASS directly.
    pub fn is_trivial(&self) -> bool {
        self.kept == self.keep.len() && !self.any_disabled
    }

    /// Builds the projected VASS: same control states, same action count
    /// **and order** (so action indices keep identifying the same
    /// transition — witness paths index into per-transition labels), with
    /// deltas restricted to the cone dimensions. Disabled actions are kept
    /// index-stable but made unfireable through one reserved sink dimension
    /// that is never incremented and that only they decrement; the sink
    /// exists only when some action is disabled.
    pub fn project(&self, vass: &Vass) -> Vass {
        let mut new_dim_of = vec![usize::MAX; self.keep.len()];
        let mut k = 0;
        for (d, &keep) in self.keep.iter().enumerate() {
            if keep {
                new_dim_of[d] = k;
                k += 1;
            }
        }
        let sink = self.any_disabled as usize;
        let mut out = Vass::new(vass.states, k + sink);
        for (i, action) in vass.actions.iter().enumerate() {
            let mut delta = vec![0i64; k + sink];
            if self.disabled[i] {
                delta[k] = -1;
            } else {
                for (d, &v) in action.delta.iter().enumerate() {
                    if v != 0 && self.keep[d] {
                        delta[new_dim_of[d]] = v;
                    }
                }
            }
            out.add_action(action.from, delta, action.to);
        }
        out
    }
}

/// The dimension cone of influence over the queries starting at any of
/// `inits` — see the module docs for the fixpoint and its exactness. The
/// verifier passes all of a `(T, β)` pair's initial states (DESIGN.md
/// §5.12), so every `τ_in` query of the pair runs on the *same* projected
/// VASS; `&[init]` gives the single-query cone.
///
/// The fixpoint is the single-init one with reachability seeded from all of
/// `inits`, and it stays **exact for each individual init**: union
/// reachability only grows the reachable-live action set, so "dimension
/// never incremented by a reachable live action" (rule 1) still proves the
/// decrementing action unfireable from every listed init, and a dimension
/// dropped by rule 2 is decremented by no action reachable from any of
/// them. The result is merely more conservative (fewer disables, more kept
/// dimensions) than each per-init cone.
pub fn dimension_cone_multi(vass: &Vass, inits: &[usize]) -> DimensionCone {
    let dim = vass.dim;
    let n_actions = vass.actions.len();
    let adjacency = vass.adjacency();
    let mut alive = vec![true; n_actions];
    let mut disabled = vec![false; n_actions];
    let max_init = inits.iter().copied().max().map_or(0, |m| m + 1);
    let mut reach = vec![false; vass.states.max(max_init)];

    loop {
        // Control-graph reachability from the inits over live actions.
        reach.iter_mut().for_each(|r| *r = false);
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &init in inits {
            if !reach[init] {
                reach[init] = true;
                queue.push_back(init);
            }
        }
        while let Some(s) = queue.pop_front() {
            for &a in &adjacency[s] {
                if alive[a] && !reach[vass.actions[a].to] {
                    reach[vass.actions[a].to] = true;
                    queue.push_back(vass.actions[a].to);
                }
            }
        }
        // Which dimensions some reachable live action increments.
        let mut incremented = vec![false; dim];
        for (a, action) in vass.actions.iter().enumerate() {
            if alive[a] && reach[action.from] {
                for (d, &v) in action.delta.iter().enumerate() {
                    if v > 0 {
                        incremented[d] = true;
                    }
                }
            }
        }
        // Rule 1: a reachable live action decrementing a never-incremented
        // dimension can never fire.
        let mut changed = false;
        for (a, action) in vass.actions.iter().enumerate() {
            if alive[a]
                && reach[action.from]
                && action
                    .delta
                    .iter()
                    .enumerate()
                    .any(|(d, &v)| v < 0 && !incremented[d])
            {
                alive[a] = false;
                disabled[a] = true;
                changed = true;
            }
        }
        if changed {
            continue;
        }
        // Fixpoint. Rule 2: keep exactly the dimensions some reachable live
        // action decrements.
        let mut keep = vec![false; dim];
        for (a, action) in vass.actions.iter().enumerate() {
            if alive[a] && reach[action.from] {
                for (d, &v) in action.delta.iter().enumerate() {
                    if v < 0 {
                        keep[d] = true;
                    }
                }
            }
        }
        let kept = keep.iter().filter(|&&k| k).count();
        let any_disabled = disabled.iter().any(|&d| d);
        return DimensionCone {
            keep,
            disabled,
            kept,
            any_disabled,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_vass::CoverabilityGraph;

    /// Insert-only dimension: dropped (never decremented), nothing disabled.
    #[test]
    fn insert_only_dimension_leaves_the_cone() {
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![1], 0);
        v.add_action(0, vec![0], 1);
        let cone = dimension_cone_multi(&v, &[0]);
        assert_eq!((cone.dims_before(), cone.dims_after()), (1, 0));
        assert!(!cone.is_trivial());
        let p = cone.project(&v);
        assert_eq!(p.dim, 0);
        assert_eq!(p.actions.len(), v.actions.len());
    }

    /// A retrieve with no reachable insert: the action is disabled and the
    /// dimension leaves the cone; the sink makes the action unfireable.
    #[test]
    fn retrieve_without_insert_is_disabled() {
        let mut v = Vass::new(3, 1);
        v.add_action(0, vec![0], 1); // plain step
        v.add_action(1, vec![-1], 2); // decrement never enabled
        let cone = dimension_cone_multi(&v, &[0]);
        assert_eq!(cone.dims_after(), 0);
        assert!(cone.disables(1) && !cone.disables(0));
        let p = cone.project(&v);
        assert_eq!(p.dim, 1, "one sink dimension");
        let g = CoverabilityGraph::build(&p, 0);
        // State 2 is only reachable through the disabled action.
        assert!(g.path_to_state(2).is_none());
        assert!(g.path_to_state(1).is_some());
    }

    /// A matched insert/retrieve pair stays in the cone untouched.
    #[test]
    fn matched_pair_is_trivial() {
        let mut v = Vass::new(2, 1);
        v.add_action(0, vec![1], 1);
        v.add_action(1, vec![-1], 0);
        let cone = dimension_cone_multi(&v, &[0]);
        assert!(cone.is_trivial());
        assert_eq!(cone.dims_after(), 1);
    }

    /// Cascade: disabling a decrement strands the only increment of a second
    /// dimension behind it, which disables that dimension's decrement too.
    #[test]
    fn disabling_cascades_through_stranded_increments() {
        let mut v = Vass::new(4, 2);
        v.add_action(0, vec![-1, 0], 1); // dead: dim 0 never incremented
        v.add_action(1, vec![0, 1], 2); // only increment of dim 1, stranded
        v.add_action(0, vec![0, -1], 3); // becomes dead once 1→2 is stranded
        let cone = dimension_cone_multi(&v, &[0]);
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
        assert!(dimension_cone_multi(&v, &[0]).is_trivial());
        let from_mid = dimension_cone_multi(&v, &[1]);
        assert_eq!(from_mid.dims_after(), 0);
        assert!(from_mid.disables(1));
    }

    /// Projection preserves coverability of control states exactly on a
    /// mixed example: one live pair, one insert-only dimension, one dead
    /// retrieve guarding an otherwise-unreachable state.
    #[test]
    fn projection_preserves_reachable_state_set() {
        let mut v = Vass::new(5, 3);
        v.add_action(0, vec![1, 0, 0], 1); // live insert (dim 0)
        v.add_action(1, vec![-1, 0, 0], 2); // live retrieve (dim 0)
        v.add_action(1, vec![0, 1, 0], 3); // insert-only dim 1
        v.add_action(3, vec![0, 0, -1], 4); // dead retrieve (dim 2)
        let cone = dimension_cone_multi(&v, &[0]);
        assert_eq!(cone.dims_after(), 1);
        assert!(cone.keeps(0) && !cone.keeps(1) && !cone.keeps(2));
        let p = cone.project(&v);
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
