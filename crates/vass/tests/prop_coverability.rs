//! Property-based cross-validation of the Karp–Miller procedures against the
//! explicit bounded explorer on random small VASS.
//!
//! The bounded explorer is exact *within its counter cap*, so:
//! * every control state it reaches must be declared reachable by the
//!   Karp–Miller procedure (completeness of coverability);
//! * every capped lasso it finds must be confirmed by the repeated
//!   reachability procedure (completeness of lasso detection);
//! * conversely, if Karp–Miller declares a state unreachable the explorer
//!   must not reach it (soundness).
//!
//! The oracle's own unit tests live at the end of this file, the one target
//! that runs them.

#[path = "support/bounded.rs"]
mod bounded;

use bounded::BoundedExplorer;
use has_vass::Vass;
use proptest::prelude::*;

fn arb_vass(states: usize, dim: usize) -> impl Strategy<Value = Vass> {
    let action = (
        0..states,
        proptest::collection::vec(-2i64..=2, dim),
        0..states,
    );
    proptest::collection::vec(action, 1..8).prop_map(move |actions| {
        let mut v = Vass::new(states, dim);
        for (from, delta, to) in actions {
            v.add_action(from, delta, to);
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn karp_miller_covers_bounded_reachability(vass in arb_vass(4, 2)) {
        let explorer = BoundedExplorer::new(6, 20_000);
        let reachable = explorer.reachable_states(&vass, 0);
        for state in reachable {
            prop_assert!(
                vass.state_reachable(0, state),
                "explorer reached state {state} but Karp–Miller says unreachable"
            );
        }
    }

    #[test]
    fn unreachable_states_are_never_explored(vass in arb_vass(4, 2)) {
        let explorer = BoundedExplorer::new(6, 20_000);
        let reachable = explorer.reachable_states(&vass, 0);
        for state in 0..4 {
            if !vass.state_reachable(0, state) {
                prop_assert!(!reachable.contains(&state));
            }
        }
    }

    #[test]
    fn capped_lassos_are_confirmed(vass in arb_vass(3, 2)) {
        let explorer = BoundedExplorer::new(5, 20_000);
        for target in 0..3 {
            if explorer.has_lasso(&vass, 0, target) {
                prop_assert!(
                    vass.state_repeated_reachable(0, target),
                    "explorer found a capped lasso at {target} that Karp–Miller missed"
                );
            }
        }
    }
}

#[test]
fn capped_exploration_is_exact_for_small_systems() {
    let mut v = Vass::new(2, 1);
    v.add_action(0, vec![1], 0);
    v.add_action(0, vec![-1], 1);
    let explorer = BoundedExplorer::new(3, 1000);
    let configs = explorer.reachable_configurations(&v, 0);
    // counters 0..=3 in state 0, 0..=2 in state 1.
    assert_eq!(configs.len(), 4 + 3);
    assert_eq!(explorer.reachable_states(&v, 0).len(), 2);
}

#[test]
fn lasso_detection_matches_intuition() {
    let mut v = Vass::new(2, 1);
    v.add_action(0, vec![1], 0);
    v.add_action(0, vec![0], 1);
    v.add_action(1, vec![-1], 1);
    let explorer = BoundedExplorer::default();
    assert!(explorer.has_lasso(&v, 0, 0));
    assert!(!explorer.has_lasso(&v, 0, 1));
}

#[test]
fn budget_limits_exploration() {
    let mut v = Vass::new(1, 2);
    v.add_action(0, vec![1, 0], 0);
    v.add_action(0, vec![0, 1], 0);
    let explorer = BoundedExplorer::new(1_000, 50);
    let configs = explorer.reachable_configurations(&v, 0);
    assert!(configs.len() <= 51);
}
