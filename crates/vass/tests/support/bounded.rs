//! Explicit-state exploration with counter caps: the ground-truth oracle of
//! the Karp–Miller and lasso property tests.
//!
//! [`BoundedExplorer`] enumerates the exact configuration space of a VASS up
//! to a per-counter cap. It is *not* a decision procedure (counters may need
//! to exceed any fixed cap), but any configuration it reaches is genuinely
//! reachable, and for capped systems it is exhaustive.

use has_vass::Vass;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Explicit-state explorer with a per-counter cap.
#[derive(Clone, Debug)]
pub struct BoundedExplorer {
    cap: u64,
    max_configurations: usize,
}

impl Default for BoundedExplorer {
    fn default() -> Self {
        BoundedExplorer {
            cap: 16,
            max_configurations: 200_000,
        }
    }
}

impl BoundedExplorer {
    /// Creates an explorer with the given counter cap and configuration
    /// budget.
    pub fn new(cap: u64, max_configurations: usize) -> Self {
        BoundedExplorer {
            cap,
            max_configurations,
        }
    }

    /// All configurations reachable from `(init, 0̄)` without any counter
    /// exceeding the cap, up to the configuration budget.
    pub fn reachable_configurations(
        &self,
        vass: &Vass,
        init: usize,
    ) -> BTreeSet<(usize, Vec<u64>)> {
        let adjacency = vass.action_csr();
        let mut seen = BTreeSet::new();
        let start = (init, vec![0u64; vass.dim]);
        let mut queue = VecDeque::from([start.clone()]);
        seen.insert(start);
        while let Some((state, counters)) = queue.pop_front() {
            if seen.len() >= self.max_configurations {
                break;
            }
            for &a in adjacency.actions_from(state) {
                let mut next = counters.clone();
                let mut ok = true;
                for (c, d) in next.iter_mut().zip(vass.delta(a as usize)) {
                    let v = *c as i128 + *d as i128;
                    if v < 0 || v > self.cap as i128 {
                        ok = false;
                        break;
                    }
                    *c = v as u64;
                }
                if !ok {
                    continue;
                }
                let config = (vass.actions()[a as usize].to, next);
                if seen.insert(config.clone()) {
                    queue.push_back(config);
                }
            }
        }
        seen
    }

    /// Control states reachable within the cap.
    pub fn reachable_states(&self, vass: &Vass, init: usize) -> BTreeSet<usize> {
        self.reachable_configurations(vass, init)
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }

    /// Checks for a capped lasso: a reachable configuration with control
    /// state `target` from which the same control state is reached again
    /// with componentwise no-smaller counters (all within the cap).
    pub fn has_lasso(&self, vass: &Vass, init: usize, target: usize) -> bool {
        let configs = self.reachable_configurations(vass, init);
        // Group configurations per control state for the second search.
        let mut by_state: BTreeMap<usize, Vec<Vec<u64>>> = BTreeMap::new();
        for (s, c) in &configs {
            by_state.entry(*s).or_default().push(c.clone());
        }
        let Some(candidates) = by_state.get(&target) else {
            return false;
        };
        let adjacency = vass.action_csr();
        for base in candidates {
            // Forward search from (target, base), at least one step.
            let mut seen = BTreeSet::new();
            let mut queue = VecDeque::from([(target, base.clone(), 0usize)]);
            while let Some((state, counters, steps)) = queue.pop_front() {
                if steps > 0 && state == target && counters.iter().zip(base).all(|(a, b)| a >= b) {
                    return true;
                }
                if seen.len() >= self.max_configurations {
                    break;
                }
                for &a in adjacency.actions_from(state) {
                    let mut next = counters.clone();
                    let mut ok = true;
                    for (c, d) in next.iter_mut().zip(vass.delta(a as usize)) {
                        let v = *c as i128 + *d as i128;
                        if v < 0 || v > self.cap as i128 {
                            ok = false;
                            break;
                        }
                        *c = v as u64;
                    }
                    if !ok {
                        continue;
                    }
                    let to = vass.actions()[a as usize].to;
                    if seen.insert((to, next.clone())) {
                        queue.push_back((to, next, steps + 1));
                    }
                }
            }
        }
        false
    }
}
