//! Successor enumeration for internal services, and the per-task cache that
//! shares its results between every `(T, β)` exploration of one task.
//!
//! An internal service rewrites every non-input variable of its task
//! (restriction 1 of Section 6), so its symbolic post-states depend on the
//! pre-state only through the input variables' pattern — the
//! [`post_base`]. `enumerate_post_states` takes exactly the context, the
//! schema, the service, that base and the `max_successors` cap; in
//! particular it cannot read the truth assignment `β` the Büchi product is
//! built for. That is why one list per `(service, max_successors, base)`
//! key can serve every β of the task: [`TaskContext::post_states`]
//! enumerates it at most once and hands out the shared list (DESIGN.md
//! §5.13). Each list holds its states with the task's unobservable
//! variables forgotten ([`TaskContext::unobservable`], DESIGN.md §5.14).
//!
//! Enumerating on a cache miss is the largest part of the graph build on
//! the grid workload, so the enumeration allocates only for states it
//! keeps: trial unions run in one scratch state reset with `clone_from`,
//! sets of states are [`Interner`]s, and the merge refinement skips the
//! attempts that provably add no state (DESIGN.md §5.8). It also computes
//! each merge closure once: the variable loop's states are refined finest
//! first, and a state that already lies in an earlier state's closure is
//! not refined again, since its own closure lies inside that one. Each
//! distinct refinement is checked against the post-condition once. A merge
//! closure is never truncated: `max_successors` cuts only the variable
//! loop's steps and the final list.

use crate::context::TaskContext;
use crate::state::SymState;
use has_model::{ArtifactSchema, Condition, VarId, VarSort};
use has_vass::Interner;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Normalizes every state, then sorts and deduplicates the list: the
/// canonical form of an enumeration step's state set.
pub fn dedup(mut states: Vec<SymState>) -> Vec<SymState> {
    for s in &mut states {
        s.normalize();
    }
    // Equal states are identical, so an unstable sort orders them alike.
    states.sort_unstable();
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
/// resolved optimistically. Each step of the variable loop and the final
/// list are sorted, deduplicated and truncated at `max_successors` (the
/// merge closures are never cut); then every state forgets the context's
/// [unobservable](TaskContext::unobservable) variables and each image is
/// kept at its first position (DESIGN.md §5.14), so the result is
/// duplicate-free. Also returns the number of union attempts the merge
/// refinement made.
pub(crate) fn enumerate_post_states(
    ctx: &TaskContext,
    schema: &ArtifactSchema,
    service_idx: usize,
    base: &SymState,
    max_successors: usize,
) -> (Vec<SymState>, usize) {
    let post = &schema.task(ctx.task).internal_services[service_idx].post;
    let mut scratch = base.clone();
    let mut states = rewrite_free_vars(ctx, schema, post, base, max_successors, &mut scratch);
    // Finest first: a state that another one's merge closure holds has
    // fewer classes than it, so that closure is computed first.
    states.sort_by_cached_key(|s| Reverse(s.class_count()));
    // Every distinct refinement and whether it may satisfy the
    // post-condition.
    let mut refined: Interner<SymState> = Interner::new();
    let mut satisfiable: Vec<bool> = Vec::new();
    let mut unions = 0;
    for s in &states {
        // The closure of a state in an earlier closure lies inside that
        // closure (DESIGN.md §5.8), so it adds no state.
        if refined.lookup(s).is_some() {
            continue;
        }
        for m in merge_refinements(ctx, s, &mut scratch, &mut unions) {
            let (id, newly) = refined.intern(m);
            if newly {
                satisfiable.push(refined.get(id).may_satisfy(ctx, post));
            }
        }
    }
    let mut out: Vec<SymState> = refined
        .into_items()
        .into_iter()
        .zip(satisfiable)
        .filter_map(|(s, keep)| keep.then_some(s))
        .collect();
    // Distinct normalized states: the unstable sort orders them as `dedup`.
    out.sort_unstable();
    out.truncate(max_successors);
    (forget_unobservable(ctx, out), unions)
}

/// The per-variable loop of the enumeration: rewrites every non-input
/// variable in turn from `base`, pruning on the post-condition's decided
/// atoms and truncating each step's sorted, deduplicated list at
/// `max_successors`.
fn rewrite_free_vars(
    ctx: &TaskContext,
    schema: &ArtifactSchema,
    post: &Condition,
    base: &SymState,
    max_successors: usize,
    scratch: &mut SymState,
) -> Vec<SymState> {
    let t = schema.task(ctx.task);
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
            choices_for_var(ctx, schema, s, v, scratch, &mut next);
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
        states.truncate(max_successors);
    }
    states
}

/// The enumeration as it was before merge closures were shared: every
/// state of the variable loop refined by the reference merge refinement,
/// each refinement filtered on the post-condition. The reference the
/// property tests hold [`enumerate_post_states`] to.
#[cfg(test)]
fn enumerate_post_states_reference(
    ctx: &TaskContext,
    schema: &ArtifactSchema,
    service_idx: usize,
    base: &SymState,
    max_successors: usize,
) -> Vec<SymState> {
    let post = &schema.task(ctx.task).internal_services[service_idx].post;
    let mut scratch = base.clone();
    let states = rewrite_free_vars(ctx, schema, post, base, max_successors, &mut scratch);
    let mut out = Vec::new();
    for s in &states {
        for refined in merge_refinements_reference(ctx, s) {
            if refined.may_satisfy(ctx, post) {
                out.push(refined);
            }
        }
    }
    let mut out = dedup(out);
    out.truncate(max_successors);
    forget_unobservable(ctx, out)
}

/// Forgets the context's unobservable variables in every state of `states`
/// and drops repeated images, keeping each at its first position: the list
/// becomes its quotient under forgetting, in its own order.
fn forget_unobservable(ctx: &TaskContext, states: Vec<SymState>) -> Vec<SymState> {
    if ctx.unobservable().is_empty() {
        return states;
    }
    let mut images: Interner<SymState> = Interner::new();
    for mut s in states {
        s.forget(ctx, ctx.unobservable());
        images.intern(s);
    }
    images.into_items()
}

/// Appends the candidate values of a single rewritten variable to `out`.
/// Each candidate union is tried in `scratch`, and only a consistent
/// result is cloned into `out`.
fn choices_for_var(
    ctx: &TaskContext,
    schema: &ArtifactSchema,
    state: &SymState,
    v: VarId,
    scratch: &mut SymState,
    out: &mut Vec<SymState>,
) {
    let vi = ctx.var_idx(v);
    // The candidates equal to a related expression, from the state `f` in
    // which `v` holds a fresh value.
    let mut unions_of = |f: &SymState, out: &mut Vec<SymState>| {
        for &cand in ctx.related_to(vi) {
            scratch.clone_from(f);
            if scratch.union(ctx, vi, cand).is_ok() {
                out.push(scratch.clone());
            }
        }
    };
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
                unions_of(&f, out);
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
            unions_of(&f, out);
            out.push(f);
        }
    }
}

/// The related expression pairs that are live and still distinct in
/// `state`, in universe order.
fn merge_pairs(ctx: &TaskContext, state: &SymState) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..ctx.len() {
        for &j in ctx.related_to(i) {
            if i < j && state.is_live(i) && state.is_live(j) && !state.eq(i, j) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// The merge closure of `state`: optionally merges related expression
/// pairs that are still distinct, which lets the enumeration produce
/// "coincidental" equalities that the specification's atoms can observe.
/// Each pair's round tries its union in every state the previous rounds
/// produced and adds each new normalized result. Returns the closure, in
/// the order its states were found, and adds the union attempts to
/// `unions`. The closure is every consistent `state ⊕ S` over subsets `S`
/// of [`merge_pairs`], so it holds the closure of each of its members
/// (DESIGN.md §5.8).
///
/// Two kinds of attempt are skipped because they cannot add a state
/// (DESIGN.md §5.8). A state in which the pair is already equal is its own
/// union, and it is already in the round's set. A union that fails on the
/// base state (the first of the list) fails on every other state of the
/// list, since each is the base refined by successful unions, so the
/// pair's round ends there. Attempts run in `scratch`, reset with
/// `clone_from`, and the round's set is an [`Interner`], so a state is
/// cloned only when it is new.
fn merge_refinements(
    ctx: &TaskContext,
    state: &SymState,
    scratch: &mut SymState,
    unions: &mut usize,
) -> Vec<SymState> {
    let pairs = merge_pairs(ctx, state);
    let mut first = state.clone();
    first.normalize();
    if pairs.is_empty() {
        return vec![first];
    }
    let mut round: Interner<SymState> = Interner::new();
    round.intern(first);
    for (i, j) in pairs {
        let unmerged = round.len() as u32;
        for k in 0..unmerged {
            let s = round.get(k);
            if s.eq(i, j) {
                continue;
            }
            scratch.clone_from(s);
            *unions += 1;
            if scratch.union(ctx, i, j).is_err() {
                if k == 0 {
                    // It fails on every refinement of the base too.
                    break;
                }
                continue;
            }
            scratch.normalize();
            if round.lookup(scratch).is_none() {
                round.intern(scratch.clone());
            }
        }
    }
    round.into_items()
}

/// The merge refinement as it was before the prunings, the scratch state
/// and the interned round set: the reference the property tests hold
/// [`merge_refinements`] to.
#[cfg(test)]
fn merge_refinements_reference(ctx: &TaskContext, state: &SymState) -> Vec<SymState> {
    use std::collections::HashSet;
    let pairs = merge_pairs(ctx, state);
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
    }
    out
}

/// The cache key: internal service index, `max_successors`, post base.
type Key = (usize, usize, SymState);

/// The post-state lists of one task's internal services, shared by every
/// `(T, β)` exploration of the task (see the module docs). A key maps
/// straight to its list, enumerated by the first request for the key.
///
/// Cloning yields an empty cache.
#[derive(Default)]
pub(crate) struct SuccessorCache {
    lists: RefCell<HashMap<Key, Arc<[SymState]>>>,
}

impl Clone for SuccessorCache {
    fn clone(&self) -> Self {
        SuccessorCache::default()
    }
}

impl fmt::Debug for SuccessorCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuccessorCache")
            .field("lists", &self.lists.borrow().len())
            .finish()
    }
}

impl TaskContext {
    /// The post-states of internal service `service_idx` from `base` (a
    /// [`post_base`]), enumerated by `enumerate_post_states` on the first
    /// request for the `(service_idx, max_successors, base)` key and shared
    /// from then on. Returns the list and, when this call was the one that
    /// enumerated it, the number of union attempts its merge refinement
    /// made (`None` when the list came from the cache).
    ///
    /// `schema` must be the schema the context was built from.
    pub fn post_states(
        &self,
        schema: &ArtifactSchema,
        service_idx: usize,
        base: &SymState,
        max_successors: usize,
    ) -> (Arc<[SymState]>, Option<usize>) {
        let mut lists = self.successors.lists.borrow_mut();
        let mut merge_unions = None;
        let list = lists
            .entry((service_idx, max_successors, base.clone()))
            .or_insert_with(|| {
                let (list, unions) =
                    enumerate_post_states(self, schema, service_idx, base, max_successors);
                merge_unions = Some(unions);
                list.into()
            });
        (Arc::clone(list), merge_unions)
    }

    /// Drops every cached post-state list (the task's explorations are
    /// done, so nothing will ask again).
    pub fn clear_post_states(&self) {
        self.successors.lists.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{
        apply, arb_dnf, arb_steps, random_context, random_state, random_system, rich_context,
        system, union_pair, Step,
    };
    use proptest::prelude::*;

    const CAP: usize = 512;

    #[test]
    fn keys_separate_caps_and_clones_and_clears_start_empty() {
        let system = system();
        let ctx = TaskContext::build(&system, system.root(), &[], 1);
        let base = post_base(&ctx, &system.schema, &SymState::blank(&ctx, &system.schema));
        let (full, unions) = ctx.post_states(&system.schema, 0, &base, CAP);
        assert!(!full.is_empty());
        let (listed, listed_unions) = enumerate_post_states(&ctx, &system.schema, 0, &base, CAP);
        assert_eq!(&full[..], &listed[..]);
        assert_eq!(unions, Some(listed_unions));
        let (again, unions) = ctx.post_states(&system.schema, 0, &base, CAP);
        assert!(unions.is_none() && Arc::ptr_eq(&full, &again));
        let (one, unions) = ctx.post_states(&system.schema, 0, &base, 1);
        assert!(unions.is_some() && one.len() <= 1);
        assert!(ctx
            .clone()
            .post_states(&system.schema, 0, &base, CAP)
            .1
            .is_some());
        ctx.clear_post_states();
        assert!(ctx.post_states(&system.schema, 0, &base, CAP).1.is_some());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pruned merge refinement over a reused scratch state lists
        /// exactly the states, in exactly the order, of the reference
        /// routine.
        #[test]
        fn merge_refinements_equal_the_reference(
            depth in 1usize..=2,
            steps in arb_steps(14),
            noise in arb_steps(4),
        ) {
            let system = system();
            let ctx = rich_context(&system, depth);
            let state = random_state(&ctx, &system.schema, &steps);
            // The scratch starts as an unrelated state: every attempt
            // resets it, so its contents must not leak.
            let mut scratch = random_state(&ctx, &system.schema, &noise);
            prop_assert_eq!(
                merge_refinements(&ctx, &state, &mut scratch, &mut 0),
                merge_refinements_reference(&ctx, &state)
            );
        }

        /// The premise of ending a pair's round at the base state: a union
        /// that fails on a state fails on every refinement of it by
        /// successful unions.
        #[test]
        fn a_failed_union_fails_on_every_refinement(
            depth in 1usize..=2,
            steps in arb_steps(14),
            pair in (0..64usize, 0..64usize, any::<bool>()),
            refinement in proptest::collection::vec(
                (0..64usize, 0..64usize, any::<bool>()), 1..8),
        ) {
            let system = system();
            let ctx = rich_context(&system, depth);
            let state = random_state(&ctx, &system.schema, &steps);
            let (a, b) = union_pair(&ctx, pair);
            if state.clone().union(&ctx, a, b).is_ok() {
                continue;
            }
            let mut refined = state;
            for (x, y, related) in refinement {
                apply(&ctx, &system.schema, &mut refined, &Step::Union(x, y, related));
                prop_assert!(refined.clone().union(&ctx, a, b).is_err());
                let mut normalized = refined.clone();
                normalized.normalize();
                prop_assert!(normalized.union(&ctx, a, b).is_err());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Skipping the states that lie in an earlier merge closure lists
        /// exactly the states, in exactly the order, of the reference that
        /// refines every state of the variable loop through the reference
        /// merge refinement, on random input variables, services, context
        /// conditions and pre-states, under caps that cut the variable loop
        /// and the final list.
        #[test]
        fn post_states_equal_the_reference(
            depth in 1usize..=2,
            inputs in 0u8..16,
            posts in proptest::collection::vec(arb_dnf(), 1..=2),
            extra in arb_dnf(),
            steps in arb_steps(10),
        ) {
            let system = random_system(inputs, &posts);
            let ctx = random_context(&system, depth, &extra);
            let pre = random_state(&ctx, &system.schema, &steps);
            let base = post_base(&ctx, &system.schema, &pre);
            for service_idx in 0..posts.len() {
                for max_successors in [1, 2, 3, 8, 48, 512] {
                    prop_assert_eq!(
                        enumerate_post_states(&ctx, &system.schema, service_idx, &base,
                            max_successors).0,
                        enumerate_post_states_reference(&ctx, &system.schema, service_idx,
                            &base, max_successors),
                        "service {} max_successors {}", service_idx, max_successors
                    );
                }
            }
        }
    }
}
