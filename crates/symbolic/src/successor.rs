//! Successor enumeration for internal services, and the per-task cache that
//! shares its results between every `(T, β)` exploration of one task.
//!
//! An internal service rewrites every non-input variable of its task
//! (restriction 1 of Section 6), so its symbolic post-states depend on the
//! pre-state only through the input variables' pattern — the
//! [`post_base`]. `enumerate_post_states` takes exactly the context, the
//! schema, the service, that base and the enumeration caps; in particular
//! it cannot read the truth assignment `β` the Büchi product is built for.
//! That is why one list per `(service, caps, base)` key can serve every β
//! of the task: [`TaskContext::post_states`] enumerates it at most once and
//! hands out the shared list (DESIGN.md §5.13). Each list holds its states
//! with the task's unobservable variables forgotten
//! ([`TaskContext::unobservable`], DESIGN.md §5.14).

use crate::context::TaskContext;
use crate::state::SymState;
use has_model::{ArtifactSchema, VarId, VarSort};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

/// The caps a post-state enumeration truncates at: part of the cache key,
/// since the truncated list depends on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SuccessorCaps {
    /// Cap on the number of symbolic states kept per enumeration step.
    pub max_successors: usize,
    /// Cap on the number of undecided related-expression pairs branched
    /// over by the merge refinement.
    pub max_merge_pairs: usize,
}

/// Normalizes every state, then sorts and deduplicates the list: the
/// canonical form of an enumeration step's state set.
pub fn dedup(mut states: Vec<SymState>) -> Vec<SymState> {
    for s in &mut states {
        s.normalize();
    }
    states.sort();
    states.dedup();
    states
}

/// What an internal service keeps of its pre-state `state`: the blank state
/// with the input variables' pattern adopted (every other variable is
/// rewritten). It is everything `enumerate_post_states` reads of the
/// pre-state.
pub fn post_base(ctx: &TaskContext, schema: &ArtifactSchema, state: &SymState) -> SymState {
    let mut base = SymState::blank(ctx, schema);
    base.adopt_vars(ctx, state, &schema.task(ctx.task).input_vars);
    base
}

/// Enumerates the possible post-states of internal service `service_idx`
/// of the context's task from the [`post_base`] of its pre-state: input
/// variables keep their pattern, every other variable is rewritten,
/// constrained by the post-condition. Arithmetic atoms are undetermined and
/// resolved optimistically. The enumerated list is sorted, deduplicated and
/// truncated at `max_successors`; then every state forgets the context's
/// [unobservable](TaskContext::unobservable) variables and each image is
/// kept at its first position (DESIGN.md §5.14), so the result is
/// duplicate-free.
pub(crate) fn enumerate_post_states(
    ctx: &TaskContext,
    schema: &ArtifactSchema,
    service_idx: usize,
    base: &SymState,
    caps: SuccessorCaps,
) -> Vec<SymState> {
    let t = schema.task(ctx.task);
    let post = &t.internal_services[service_idx].post;
    let free_vars: Vec<VarId> = t
        .variables
        .iter()
        .copied()
        .filter(|v| !t.input_vars.contains(v))
        .collect();

    let mut states = vec![base.clone()];
    let mut remaining: BTreeSet<VarId> = free_vars.iter().copied().collect();
    for &v in &free_vars {
        let mut next = Vec::new();
        for s in &states {
            choices_for_var(ctx, schema, s, v, &mut next);
        }
        remaining.remove(&v);
        // Early pruning: drop states that already contradict the
        // post-condition on the atoms whose variables are all decided
        // (atoms touching variables not yet rewritten are left open).
        next.retain(|s| {
            s.satisfies_with_unknowns(ctx, post, &remaining)
                .unwrap_or(true)
        });
        states = dedup(next);
        states.truncate(caps.max_successors);
    }
    // Final filter plus the optional merge refinement over related pairs.
    let mut out = Vec::new();
    for s in &states {
        for refined in merge_refinements(ctx, s, caps) {
            if refined.may_satisfy(ctx, post) {
                out.push(refined);
            }
        }
    }
    let mut out = dedup(out);
    out.truncate(caps.max_successors);
    forget_unobservable(ctx, out)
}

/// Forgets the context's unobservable variables in every state of `states`
/// and drops repeated images, keeping each at its first position: the list
/// becomes its quotient under forgetting, in its own order.
fn forget_unobservable(ctx: &TaskContext, states: Vec<SymState>) -> Vec<SymState> {
    if ctx.unobservable().is_empty() {
        return states;
    }
    let mut seen: HashSet<SymState> = HashSet::with_capacity(states.len());
    states
        .into_iter()
        .filter_map(|mut s| {
            s.forget(ctx, ctx.unobservable());
            seen.insert(s.clone()).then_some(s)
        })
        .collect()
}

/// Appends the candidate values of a single rewritten variable to `out`.
fn choices_for_var(
    ctx: &TaskContext,
    schema: &ArtifactSchema,
    state: &SymState,
    v: VarId,
    out: &mut Vec<SymState>,
) {
    let vi = ctx.var_idx(v);
    match schema.variable(v).sort {
        VarSort::Id => {
            // null
            let mut n = state.clone();
            n.bind(ctx, v, None);
            out.push(n);
            for &rel in ctx.bindings_for(v) {
                // fresh tuple of rel
                let mut f = state.clone();
                f.bind(ctx, v, Some(rel));
                // or equal to an existing expression of sort Id(rel)
                // related to v through the atom basis
                for &cand in ctx.related_to(vi) {
                    let mut e = f.clone();
                    if e.union(ctx, vi, cand).is_ok() {
                        out.push(e);
                    }
                }
                out.push(f);
            }
        }
        VarSort::Numeric => {
            // zero
            let mut z = state.clone();
            z.fresh_numeric(ctx, v);
            let _ = z.union(ctx, vi, ctx.zero_idx);
            out.push(z);
            // fresh
            let mut f = state.clone();
            f.fresh_numeric(ctx, v);
            // equal to a related expression (constants, navigations,
            // other numeric variables mentioned together in atoms)
            for &cand in ctx.related_to(vi) {
                let mut e = f.clone();
                if e.union(ctx, vi, cand).is_ok() {
                    out.push(e);
                }
            }
            out.push(f);
        }
    }
}

/// Optionally merges related expression pairs that are still distinct:
/// this lets the enumeration produce "coincidental" equalities that the
/// specification's atoms can observe (2^k branching over undecided related
/// pairs, capped). Each round keeps the set of normalized states in a hash
/// set; the list is sorted only when a round overflows `max_successors`, so
/// the truncation keeps the same (smallest) states a sorted list would.
fn merge_refinements(ctx: &TaskContext, state: &SymState, caps: SuccessorCaps) -> Vec<SymState> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..ctx.len() {
        for &j in ctx.related_to(i) {
            if i < j && state.is_live(i) && state.is_live(j) && !state.eq(i, j) {
                pairs.push((i, j));
            }
        }
    }
    pairs.truncate(caps.max_merge_pairs);
    let mut first = state.clone();
    first.normalize();
    let mut out = vec![first];
    if pairs.is_empty() {
        return out;
    }
    let mut seen: HashSet<SymState> = out.iter().cloned().collect();
    for (i, j) in pairs {
        let unmerged = out.len();
        for k in 0..unmerged {
            let mut m = out[k].clone();
            if m.union(ctx, i, j).is_ok() {
                m.normalize();
                if !seen.contains(&m) {
                    seen.insert(m.clone());
                    out.push(m);
                }
            }
        }
        if out.len() > caps.max_successors {
            out.sort();
            out.truncate(caps.max_successors);
            break;
        }
    }
    out
}

/// The cache key: internal service index, enumeration caps, post base.
type Key = (usize, SuccessorCaps, SymState);

/// The post-state lists of one task's internal services, shared by every
/// `(T, β)` exploration of the task (see the module docs). A key maps
/// straight to its list, enumerated by the first request for the key.
///
/// Cloning yields an empty cache.
#[derive(Default)]
pub(crate) struct SuccessorCache {
    lists: Mutex<HashMap<Key, Arc<[SymState]>>>,
}

impl Clone for SuccessorCache {
    fn clone(&self) -> Self {
        SuccessorCache::default()
    }
}

impl fmt::Debug for SuccessorCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let len = self.lists.lock().map_or(0, |lists| lists.len());
        f.debug_struct("SuccessorCache")
            .field("lists", &len)
            .finish()
    }
}

impl TaskContext {
    /// The post-states of internal service `service_idx` from `base` (a
    /// [`post_base`]), enumerated by `enumerate_post_states` on the first
    /// request for the `(service_idx, caps, base)` key and shared from then
    /// on. Returns the list and whether this call was the one that
    /// enumerated it.
    ///
    /// `schema` must be the schema the context was built from.
    pub fn post_states(
        &self,
        schema: &ArtifactSchema,
        service_idx: usize,
        base: &SymState,
        caps: SuccessorCaps,
    ) -> (Arc<[SymState]>, bool) {
        let mut lists = self
            .successors
            .lists
            .lock()
            .expect("successor cache poisoned");
        let mut enumerated = false;
        let list = lists
            .entry((service_idx, caps, base.clone()))
            .or_insert_with(|| {
                enumerated = true;
                enumerate_post_states(self, schema, service_idx, base, caps).into()
            });
        (Arc::clone(list), enumerated)
    }

    /// Drops every cached post-state list (the task's explorations are
    /// done, so nothing will ask again).
    pub fn clear_post_states(&self) {
        self.successors
            .lists
            .lock()
            .expect("successor cache poisoned")
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_arith::Rational;
    use has_model::{ArtifactSystem, Condition, SetUpdate, SystemBuilder, Term};

    /// One task with two ID and two numeric variables, whose single service
    /// relates them through a relation atom and a constant.
    fn system() -> ArtifactSystem {
        let mut b = SystemBuilder::new("succ");
        b.relation("HOTELS", &["unit_price"], &[]);
        b.relation("FLIGHTS", &["price"], &[("comp_hotel", "HOTELS")]);
        let root = b.root_task("Root");
        let flight = b.id_var(root, "flight_id");
        let hotel = b.id_var(root, "hotel_id");
        let price = b.num_var(root, "price");
        let status = b.num_var(root, "status");
        let flights = b.relation_id("FLIGHTS").unwrap();
        let post = Condition::relation(
            flights,
            vec![Term::Var(flight), Term::Var(price), Term::Var(hotel)],
        )
        .and(Condition::eq_const(status, Rational::from_int(1)));
        b.internal_service(root, "choose", Condition::True, post, SetUpdate::None);
        b.build().unwrap()
    }

    const CAPS: SuccessorCaps = SuccessorCaps {
        max_successors: 512,
        max_merge_pairs: 6,
    };

    #[test]
    fn keys_separate_caps_and_clones_and_clears_start_empty() {
        let system = system();
        let ctx = TaskContext::build(&system, system.root(), &[], 1);
        let base = post_base(&ctx, &system.schema, &SymState::blank(&ctx, &system.schema));
        let (full, enumerated) = ctx.post_states(&system.schema, 0, &base, CAPS);
        assert!(enumerated && !full.is_empty());
        assert_eq!(
            &full[..],
            &enumerate_post_states(&ctx, &system.schema, 0, &base, CAPS)[..]
        );
        let (again, enumerated) = ctx.post_states(&system.schema, 0, &base, CAPS);
        assert!(!enumerated && Arc::ptr_eq(&full, &again));
        let capped = SuccessorCaps {
            max_successors: 1,
            ..CAPS
        };
        let (one, enumerated) = ctx.post_states(&system.schema, 0, &base, capped);
        assert!(enumerated && one.len() <= 1);
        assert!(ctx.clone().post_states(&system.schema, 0, &base, CAPS).1);
        ctx.clear_post_states();
        assert!(ctx.post_states(&system.schema, 0, &base, CAPS).1);
    }
}
