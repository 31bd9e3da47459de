//! Property test for [`DimensionCone::project`] on random small VASS: the
//! projection keeps the action count, order and endpoints, and gives each
//! action exactly its delta restricted to the kept dimensions, or the sink
//! decrement when the cone disables it. The expected deltas come from a
//! dense reference written here, independent of the sparse arena writes
//! the projection performs.
//!
//! [`DimensionCone::project`]: has_analysis::DimensionCone::project

use has_analysis::dimension_cone_multi;
use has_vass::Vass;
use proptest::prelude::*;

fn arb_vass(states: usize, dim: usize) -> impl Strategy<Value = Vass> {
    let action = (
        0..states,
        proptest::collection::vec(-2i64..=2, dim),
        0..states,
    );
    proptest::collection::vec(action, 1..12).prop_map(move |actions| {
        let mut v = Vass::new(states, dim);
        for (from, delta, to) in actions {
            v.add_action(from, delta, to);
        }
        v
    })
}

proptest! {
    #[test]
    fn projection_keeps_actions_and_restricts_deltas(
        vass in arb_vass(4, 4),
        init in 0usize..4,
    ) {
        let cone = dimension_cone_multi(&vass, &[init]);
        let projected = cone.project(&vass);
        let kept: Vec<usize> = (0..vass.dim).filter(|&d| cone.keeps(d)).collect();
        let any_disabled = (0..vass.action_count()).any(|a| cone.disables(a));
        prop_assert_eq!(kept.len(), cone.dims_after());
        prop_assert_eq!(projected.dim, kept.len() + usize::from(any_disabled));
        prop_assert_eq!(projected.states, vass.states);
        prop_assert_eq!(projected.actions(), vass.actions());
        for a in 0..vass.action_count() {
            let mut expected = vec![0i64; projected.dim];
            if cone.disables(a) {
                expected[kept.len()] = -1;
            } else {
                for (new, &old) in kept.iter().enumerate() {
                    expected[new] = vass.delta(a)[old];
                }
            }
            prop_assert_eq!(projected.delta(a), &expected[..], "action {}", a);
        }
    }
}
