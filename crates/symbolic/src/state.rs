//! Symbolic states: equality types with congruence closure.
//!
//! A [`SymState`] assigns every expression of a [`TaskContext`] universe to
//! an equivalence class (or marks it dead), and records for every ID variable
//! the relation it is bound to (or `null`). It upholds the invariants of the
//! paper's T-isomorphism types (Definition 15):
//!
//! * expressions in the same class have compatible sorts;
//! * an unbound ID variable is in the class of `null`;
//! * distinct numeric constants are never identified;
//! * the key dependencies are respected: equal ID-sorted expressions have
//!   equal attribute navigations (congruence closure).

use crate::context::TaskContext;
use crate::expr::{Expr, Sort};
use has_model::{ArtifactSchema, Atom, Condition, RelationId, Term, VarId, VarSort};
use std::collections::BTreeSet;

/// Class id marking a dead expression (navigation whose anchor variable is
/// not bound to the navigation's relation).
const DEAD: u32 = u32::MAX;

/// A canonical projection of a symbolic state onto a subset of expressions:
/// the sequence of class ids renumbered in first-occurrence order (dead
/// expressions keep the `DEAD` marker). Two states have the same projection
/// key iff their restrictions to those expressions are isomorphic.
pub type ProjectionKey = Vec<u32>;

/// A symbolic state (restricted T-isomorphism type) over a task's universe.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymState {
    /// Class id per universe expression (`DEAD` for dead navigations).
    class: Vec<u32>,
    /// Binding per ID variable, parallel to the context's sorted
    /// [`TaskContext::id_vars`] sequence: `None` = null.
    ///
    /// The flat vector replaces an ordered map keyed by [`VarId`]. All
    /// states of one context share the same key sequence, so the derived
    /// `Eq`/`Ord` coincide with the map's entry-wise comparison — clones,
    /// comparisons, and hashing of states are plain `Vec` sweeps, which is
    /// what the successor enumeration's dedup loops spend their time on.
    binding: Vec<Option<RelationId>>,
}

impl SymState {
    /// The blank state of a task: every ID variable is `null`, every numeric
    /// variable equals `0`, all navigations are dead. This is the state of a
    /// freshly opened task before its input variables are written
    /// (Definition 9's initialization).
    pub fn blank(ctx: &TaskContext, schema: &ArtifactSchema) -> Self {
        let mut class = vec![DEAD; ctx.len()];
        // Class 0: null and all id variables. Class 1: zero, constants get
        // their own classes, numeric variables join zero.
        let mut next = 2u32;
        for (i, e) in ctx.exprs.iter().enumerate() {
            match e {
                Expr::Null => class[i] = 0,
                Expr::Zero => class[i] = 1,
                Expr::Const(_) => {
                    class[i] = next;
                    next += 1;
                }
                Expr::Var(v) => {
                    class[i] = match schema.variable(*v).sort {
                        VarSort::Id => 0,
                        VarSort::Numeric => 1,
                    }
                }
                Expr::Nav { .. } => class[i] = DEAD,
            }
        }
        let binding = vec![None; ctx.id_vars().len()];
        let mut s = SymState { class, binding };
        s.normalize();
        s
    }

    /// Returns `true` if the expression is live.
    pub fn is_live(&self, idx: usize) -> bool {
        self.class[idx] != DEAD
    }

    /// Returns `true` if the two expressions are live and equal.
    pub fn eq(&self, a: usize, b: usize) -> bool {
        self.class[a] != DEAD && self.class[a] == self.class[b]
    }

    /// The binding of an ID variable (`None` = null, or `v` is not an ID
    /// variable of the context).
    pub fn binding_of(&self, ctx: &TaskContext, v: VarId) -> Option<RelationId> {
        ctx.id_var_pos(v).and_then(|p| self.binding[p])
    }

    /// Returns `true` if the ID variable is null in this state.
    pub fn is_null(&self, ctx: &TaskContext, v: VarId) -> bool {
        self.class[ctx.var_idx(v)] == self.class[ctx.null_idx]
    }

    /// The dynamic sort of an expression: for ID variables the binding
    /// refines the static sort.
    fn dyn_sort(&self, ctx: &TaskContext, idx: usize) -> Sort {
        match &ctx.exprs[idx] {
            Expr::Var(v) => match ctx.id_var_pos(*v).map(|p| self.binding[p]) {
                Some(Some(rel)) => Sort::Id(rel),
                Some(None) => Sort::Null,
                None => ctx.sorts[idx],
            },
            _ => ctx.sorts[idx],
        }
    }

    /// Renumbers classes canonically (first-occurrence order over the
    /// expression universe), so structural equality of states coincides with
    /// isomorphism of the underlying equality types.
    pub fn normalize(&mut self) {
        // Class ids stay small (they grow by at most a handful per mutation
        // between normalizations), so a direct-indexed renumber table beats
        // an ordered map — `u32::MAX` marks ids not yet encountered.
        let mut max = 0u32;
        let mut any = false;
        for &c in &self.class {
            if c != DEAD {
                any = true;
                max = max.max(c);
            }
        }
        if !any {
            return;
        }
        let mut map = vec![u32::MAX; max as usize + 1];
        let mut next = 0u32;
        for c in self.class.iter_mut() {
            if *c == DEAD {
                continue;
            }
            let m = &mut map[*c as usize];
            if *m == u32::MAX {
                *m = next;
                next += 1;
            }
            *c = *m;
        }
    }

    /// Binds an ID variable to a relation, bringing its navigation
    /// expressions to life in fresh classes (one per navigation), and moving
    /// the variable itself out of the `null` class into a fresh class.
    ///
    /// Any previous binding is discarded. Congruence with existing equal
    /// variables is not re-established here (callers bind variables before
    /// asserting equalities).
    pub fn bind(&mut self, ctx: &TaskContext, v: VarId, rel: Option<RelationId>) {
        if let Some(p) = ctx.id_var_pos(v) {
            self.binding[p] = rel;
        }
        let var_idx = ctx.var_idx(v);
        let mut next = self.max_class().wrapping_add(1);
        match rel {
            None => {
                self.class[var_idx] = self.class[ctx.null_idx];
                for (nav_idx, _) in ctx.navs_of(v) {
                    self.class[nav_idx] = DEAD;
                }
            }
            Some(r) => {
                self.class[var_idx] = next;
                next += 1;
                for (nav_idx, nav_rel) in ctx.navs_of(v) {
                    if nav_rel == r {
                        self.class[nav_idx] = next;
                        next += 1;
                    } else {
                        self.class[nav_idx] = DEAD;
                    }
                }
            }
        }
    }

    /// Assigns a numeric variable to a fresh class of its own.
    pub fn fresh_numeric(&mut self, ctx: &TaskContext, v: VarId) {
        let idx = ctx.var_idx(v);
        self.class[idx] = self.max_class().wrapping_add(1);
    }

    fn max_class(&self) -> u32 {
        self.class
            .iter()
            .copied()
            .filter(|c| *c != DEAD)
            .max()
            .unwrap_or(0)
    }

    /// Merges the classes of two expressions, propagating congruence (equal
    /// ID expressions have equal attribute navigations) and refusing merges
    /// that violate sort discipline or identify distinct constants.
    ///
    /// Returns `Err(())` if the merge is inconsistent.
    // `Err(())` carries no diagnosis on purpose: callers only branch on
    // consistency, and the hot path discards the reason.
    #[allow(clippy::result_unit_err)]
    pub fn union(&mut self, ctx: &TaskContext, a: usize, b: usize) -> Result<(), ()> {
        let mut pending = vec![(a, b)];
        while let Some((x, y)) = pending.pop() {
            let (cx, cy) = (self.class[x], self.class[y]);
            if cx == DEAD || cy == DEAD {
                return Err(());
            }
            if cx == cy {
                continue;
            }
            // Sort compatibility.
            let (sx, sy) = (self.dyn_sort(ctx, x), self.dyn_sort(ctx, y));
            let compatible = match (sx, sy) {
                (Sort::Numeric, Sort::Numeric) => true,
                (Sort::Null, Sort::Null) => true,
                (Sort::Id(r1), Sort::Id(r2)) => r1 == r2,
                // A null-sorted expression can only be the constant null or
                // an unbound variable; identifying it with a bound ID
                // expression is inconsistent (the paper forces null-sorted
                // expressions to equal null).
                _ => false,
            };
            if !compatible {
                return Err(());
            }
            // Distinct constants can never be identified; nor can a non-zero
            // constant be identified with zero.
            let mut ex: Option<&Expr> = None;
            let mut ey: Option<&Expr> = None;
            for &i in ctx.const_exprs() {
                if self.class[i] == cx {
                    ex = Some(&ctx.exprs[i]);
                }
                if self.class[i] == cy {
                    ey = Some(&ctx.exprs[i]);
                }
            }
            if let (Some(e1), Some(e2)) = (ex, ey) {
                if e1 != e2 {
                    return Err(());
                }
            }
            // Merge cy into cx.
            for c in self.class.iter_mut() {
                if *c == cy {
                    *c = cx;
                }
            }
            // Congruence: children of expressions now equal must be equal.
            // Collect pairs (child_x, child_y) for representatives of the
            // merged class whose children exist in the universe.
            let members: Vec<usize> = (0..ctx.len()).filter(|i| self.class[*i] == cx).collect();
            for i in 0..members.len() {
                for j in i + 1..members.len() {
                    let (mi, mj) = (members[i], members[j]);
                    for attr in 0..ctx.max_attr() {
                        let (ci, cj) =
                            (self.child_idx(ctx, mi, attr), self.child_idx(ctx, mj, attr));
                        if let (Some(ci), Some(cj)) = (ci, cj) {
                            if self.class[ci] != DEAD
                                && self.class[cj] != DEAD
                                && self.class[ci] != self.class[cj]
                            {
                                pending.push((ci, cj));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The child expression of `idx` along attribute `attr`, taking the
    /// current binding of variables into account. Resolved through the
    /// context's precomputed child tables — no expression is materialized.
    fn child_idx(&self, ctx: &TaskContext, idx: usize, attr: usize) -> Option<usize> {
        match &ctx.exprs[idx] {
            Expr::Var(v) => {
                let rel = ctx.id_var_pos(*v).and_then(|p| self.binding[p])?;
                ctx.child_of_var(idx, rel, attr)
            }
            Expr::Nav { .. } => ctx.child_of_nav(idx, attr),
            _ => None,
        }
    }

    /// Evaluates a condition on this state, three-valued: `Some(bool)` when
    /// the abstraction determines it, `None` otherwise.
    ///
    /// Equality and relation atoms are decided by the equality type;
    /// arithmetic atoms are always undetermined (DESIGN.md §5.5).
    pub fn satisfies(&self, ctx: &TaskContext, condition: &Condition) -> Option<bool> {
        self.satisfies_with_unknowns(ctx, condition, &BTreeSet::new())
    }

    /// The optimistic reading of [`SymState::satisfies`]: an undetermined
    /// condition counts as satisfiable. The verifier searches for
    /// violations, so "possibly satisfiable" transitions must be kept
    /// (DESIGN.md §5 on the direction of this approximation).
    pub fn may_satisfy(&self, ctx: &TaskContext, condition: &Condition) -> bool {
        self.satisfies(ctx, condition).unwrap_or(true)
    }

    /// Like [`SymState::satisfies`], but atoms mentioning any variable in
    /// `pending` are treated as undetermined (`None`). Used by the
    /// successor enumeration to prune partial assignments without
    /// mis-judging atoms over variables that have not been rewritten yet.
    pub fn satisfies_with_unknowns(
        &self,
        ctx: &TaskContext,
        condition: &Condition,
        pending: &BTreeSet<VarId>,
    ) -> Option<bool> {
        match condition {
            Condition::True => Some(true),
            Condition::False => Some(false),
            Condition::Not(c) => self.satisfies_with_unknowns(ctx, c, pending).map(|b| !b),
            Condition::And(cs) | Condition::Or(cs) => {
                // A decided operand equal to the connective's absorbing
                // value (false for `And`, true for `Or`) decides it.
                let absorbing = matches!(condition, Condition::Or(_));
                let mut unknown = false;
                for c in cs {
                    match self.satisfies_with_unknowns(ctx, c, pending) {
                        Some(b) if b == absorbing => return Some(absorbing),
                        Some(_) => {}
                        None => unknown = true,
                    }
                }
                (!unknown).then_some(!absorbing)
            }
            Condition::Atom(atom) => self.satisfies_atom(ctx, atom, pending),
        }
    }

    /// Decides one atom: `None` if it mentions a `pending` variable, is
    /// arithmetic, or names a term outside the universe.
    fn satisfies_atom(
        &self,
        ctx: &TaskContext,
        atom: &Atom,
        pending: &BTreeSet<VarId>,
    ) -> Option<bool> {
        let is_pending = |t: &Term| matches!(t, Term::Var(v) if pending.contains(v));
        match atom {
            Atom::Eq(a, b) => {
                if is_pending(a) || is_pending(b) {
                    return None;
                }
                let (i, j) = (ctx.term_idx(a)?, ctx.term_idx(b)?);
                Some(self.eq(i, j))
            }
            Atom::Relation { relation, args } => {
                if args.iter().any(is_pending) {
                    return None;
                }
                let Some(Term::Var(x)) = args.first() else {
                    return Some(false);
                };
                // The atom is false if any argument is null (Section 2).
                if self.binding_of(ctx, *x) != Some(*relation) {
                    return Some(false);
                }
                let x_idx = ctx.var_idx(*x);
                for (attr_idx, term) in args.iter().enumerate().skip(1) {
                    // The navigation `x_R.attr`, from the child table: it
                    // holds every one-step navigation of the universe, so
                    // it agrees with a probe of the expression index.
                    let nav = ctx.child_of_var(x_idx, *relation, attr_idx);
                    debug_assert_eq!(
                        nav,
                        ctx.index_of(&Expr::Nav {
                            var: *x,
                            rel: *relation,
                            path: vec![attr_idx],
                        })
                    );
                    let nav = nav?;
                    let t = ctx.term_idx(term)?;
                    if matches!(term, Term::Null) {
                        return Some(false);
                    }
                    if matches!(term, Term::Var(_)) && self.class[t] == self.class[ctx.null_idx] {
                        return Some(false);
                    }
                    if !self.eq(nav, t) {
                        return Some(false);
                    }
                }
                Some(true)
            }
            // No oracle decides arithmetic (DESIGN.md §5.5).
            Atom::Arith(_) => None,
        }
    }

    /// Canonical projection key onto an arbitrary list of expressions.
    pub fn projection_key(&self, exprs: &[usize]) -> ProjectionKey {
        let max = exprs
            .iter()
            .map(|&i| self.class[i])
            .filter(|&c| c != DEAD)
            .max();
        let Some(max) = max else {
            return vec![DEAD; exprs.len()];
        };
        let mut map = vec![u32::MAX; max as usize + 1];
        let mut next = 0u32;
        exprs
            .iter()
            .map(|&i| {
                let c = self.class[i];
                if c == DEAD {
                    DEAD
                } else {
                    let m = &mut map[c as usize];
                    if *m == u32::MAX {
                        *m = next;
                        next += 1;
                    }
                    *m
                }
            })
            .collect()
    }

    /// Canonical projection key onto the expressions anchored at the given
    /// variables (the variables themselves, their navigations) plus `null`
    /// and `0`. This is the paper's projection `τ|z̄`; with
    /// `vars = x̄_in ∪ s̄^T` it is the TS-isomorphism type used to index the
    /// artifact-relation counters.
    pub fn project_vars(&self, ctx: &TaskContext, vars: &[VarId]) -> ProjectionKey {
        let exprs = Self::projection_exprs(ctx, vars);
        self.projection_key(&exprs)
    }

    /// The expression indices involved in [`SymState::project_vars`] for the
    /// given variables (stable across states, so keys are comparable).
    pub fn projection_exprs(ctx: &TaskContext, vars: &[VarId]) -> Vec<usize> {
        let mut out: Vec<usize> = vec![ctx.null_idx, ctx.zero_idx];
        for (i, e) in ctx.exprs.iter().enumerate() {
            match e {
                Expr::Var(v) | Expr::Nav { var: v, .. } if vars.contains(v) => {
                    out.push(i);
                }
                Expr::Const(_) => out.push(i),
                _ => {}
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Copies the classes and bindings of the expressions anchored at `vars`
    /// from `source` into `self`, leaving everything else untouched and then
    /// re-normalizing. Both states must share the same context. Used to
    /// preserve input variables across internal transitions.
    pub fn adopt_vars(&mut self, ctx: &TaskContext, source: &SymState, vars: &[VarId]) {
        // To keep equalities among the adopted variables exactly as in
        // `source` (and not accidentally identify them with unrelated classes
        // of `self`), shift adopted classes into a fresh range.
        let offset = self.max_class().wrapping_add(1);
        for (i, e) in ctx.exprs.iter().enumerate() {
            let var = match e {
                Expr::Var(v) | Expr::Nav { var: v, .. } => Some(*v),
                _ => None,
            };
            if let Some(v) = var {
                if vars.contains(&v) {
                    let c = source.class[i];
                    self.class[i] = if c == DEAD {
                        DEAD
                    } else if c == source.class[ctx.null_idx] {
                        // Stay identified with null.
                        self.class[ctx.null_idx]
                    } else if c == source.class[ctx.zero_idx] {
                        self.class[ctx.zero_idx]
                    } else if let Some(k) = source.constant_class_expr(ctx, c) {
                        self.class[k]
                    } else {
                        offset + c
                    };
                }
            }
        }
        for v in vars {
            if let Some(p) = ctx.id_var_pos(*v) {
                self.binding[p] = source.binding[p];
            }
        }
        self.normalize();
    }

    /// If class `c` in this state contains a constant expression (`0` or a
    /// named constant), returns that expression's index.
    fn constant_class_expr(&self, ctx: &TaskContext, c: u32) -> Option<usize> {
        ctx.const_exprs()
            .iter()
            .copied()
            .find(|&i| self.class[i] == c)
    }

    /// Forgets the variables `vars`, which nothing reads (DESIGN.md §5.14),
    /// then normalizes: a numeric variable moves to a fresh singleton class,
    /// an ID variable becomes `null` and its navigations die. Every other
    /// expression keeps its class, so the equalities, bindings and constant
    /// classes among the remaining expressions are unchanged.
    ///
    /// An ID variable `u` is kept when forgetting it would lose a fact that
    /// a later union could still propagate: some live navigation `u.p` shares
    /// its class with another expression while some other member `w` of
    /// `u`'s class has no `w.p` in the universe to carry the fact by
    /// congruence (e.g. `u = y.f` with `y.f.p` past the navigation depth).
    /// The check only gets easier as other variables are forgotten, so ID
    /// variables are retried until none changes; the result does not depend
    /// on the order of `vars`, and forgetting twice equals forgetting once.
    pub fn forget(&mut self, ctx: &TaskContext, vars: &[VarId]) {
        let mut ids: Vec<VarId> = Vec::new();
        for &v in vars {
            if ctx.id_var_pos(v).is_some() {
                ids.push(v);
            } else {
                self.fresh_numeric(ctx, v);
            }
        }
        loop {
            let before = ids.len();
            ids.retain(|&v| {
                let forgettable = self.forgettable(ctx, v);
                if forgettable {
                    self.bind(ctx, v, None);
                }
                !forgettable
            });
            if ids.len() == before {
                break;
            }
        }
        self.normalize();
    }

    /// Whether forgetting the ID variable `u` keeps every fact a later
    /// union could propagate to the remaining expressions (see
    /// [`SymState::forget`]).
    fn forgettable(&self, ctx: &TaskContext, u: VarId) -> bool {
        if self.binding_of(ctx, u).is_none() {
            return true;
        }
        let ui = ctx.var_idx(u);
        let c = self.class[ui];
        let members: Vec<usize> = (0..ctx.len())
            .filter(|&i| i != ui && self.class[i] == c)
            .collect();
        if members.is_empty() {
            // No union can reach a singleton variable's class again.
            return true;
        }
        ctx.navs_of(u).all(|(nav, _)| {
            let nc = self.class[nav];
            let shared = nc != DEAD && (0..ctx.len()).any(|i| i != nav && self.class[i] == nc);
            if !shared {
                return true;
            }
            let Expr::Nav { path, .. } = &ctx.exprs[nav] else {
                unreachable!("navs_of yields navigations")
            };
            members.iter().all(|&w| {
                path.iter()
                    .try_fold(w, |at, &attr| self.child_idx(ctx, at, attr))
                    .is_some()
            })
        })
    }
}

/// Transfers the equality/binding pattern of `src` (over `src_ctx`) onto
/// `dst` (over `dst_ctx`) along a variable correspondence `var_map`
/// (`(src_var, dst_var)` pairs): destination variables listed in the map are
/// re-bound according to the source, and every pair of destination
/// expressions whose corresponding source expressions are equal in `src` is
/// unioned in `dst`. Corresponding expressions are: mapped variables, their
/// navigations with identical relation and path, `null`, `0`, and identical
/// named constants.
///
/// This is the workhorse of the cross-task steps of the verifier: computing a
/// child's input isomorphism type from the parent's state on opening
/// (Definition 18), and writing a child's output pattern back into the parent
/// on closing.
pub fn transfer_pattern(
    src_ctx: &TaskContext,
    src: &SymState,
    dst_ctx: &TaskContext,
    dst: &mut SymState,
    var_map: &[(VarId, VarId)],
) {
    // Re-bind the destination ID variables first so their navigations are
    // live. Numeric variables have no binding; their classes are set by the
    // equality replication below (callers give them fresh classes first).
    for (sv, dv) in var_map {
        let idx = dst_ctx.var_idx(*dv);
        if dst_ctx.sorts[idx] != Sort::Numeric {
            dst.bind(dst_ctx, *dv, src.binding_of(src_ctx, *sv));
        }
    }
    // Build the correspondence dst expression -> src expression.
    let corresponding = |dst_expr: &Expr| -> Option<Expr> {
        match dst_expr {
            Expr::Null => Some(Expr::Null),
            Expr::Zero => Some(Expr::Zero),
            Expr::Const(c) => Some(Expr::Const(*c)),
            Expr::Var(v) => var_map
                .iter()
                .find(|(_, dv)| dv == v)
                .map(|(sv, _)| Expr::Var(*sv)),
            Expr::Nav { var, rel, path } => {
                var_map
                    .iter()
                    .find(|(_, dv)| dv == var)
                    .map(|(sv, _)| Expr::Nav {
                        var: *sv,
                        rel: *rel,
                        path: path.clone(),
                    })
            }
        }
    };
    let pairs: Vec<(usize, usize)> = dst_ctx
        .exprs
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let src_expr = corresponding(e)?;
            let j = src_ctx.index_of(&src_expr)?;
            Some((i, j))
        })
        .collect();
    for (di, si) in &pairs {
        for (dj, sj) in &pairs {
            let src_equal = SymState::eq(src, *si, *sj);
            let dst_equal = SymState::eq(dst, *di, *dj);
            if di < dj && src_equal && dst.is_live(*di) && dst.is_live(*dj) && !dst_equal {
                let _ = dst.union(dst_ctx, *di, *dj);
            }
        }
    }
    dst.normalize();
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_arith::Rational;
    use has_model::{SetUpdate, SystemBuilder};

    struct Fix {
        system: has_model::ArtifactSystem,
        ctx: TaskContext,
        flight: VarId,
        hotel: VarId,
        price: VarId,
        status: VarId,
        flights: RelationId,
    }

    fn fixture() -> Fix {
        let mut b = SystemBuilder::new("t");
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
        let system = b.build().unwrap();
        let root = system.root();
        let ctx = TaskContext::build(&system, root, &[], 1);
        Fix {
            system,
            ctx,
            flight,
            hotel,
            price,
            status,
            flights,
        }
    }

    #[test]
    fn blank_state_has_null_ids_and_zero_numerics() {
        let f = fixture();
        let s = SymState::blank(&f.ctx, &f.system.schema);
        assert!(s.is_null(&f.ctx, f.flight));
        assert!(s.is_null(&f.ctx, f.hotel));
        assert!(s.eq(f.ctx.var_idx(f.price), f.ctx.zero_idx));
        assert_eq!(s.binding_of(&f.ctx, f.flight), None);
        assert_eq!(
            s.satisfies(&f.ctx, &Condition::is_null(f.flight)),
            Some(true)
        );
        assert_eq!(
            s.satisfies(&f.ctx, &Condition::eq_const(f.price, Rational::ZERO)),
            Some(true)
        );
    }

    #[test]
    fn pending_variables_leave_their_atoms_undetermined() {
        let f = fixture();
        let s = SymState::blank(&f.ctx, &f.system.schema);
        let pending = BTreeSet::from([f.price]);
        let price_zero = Condition::eq_const(f.price, Rational::ZERO);
        assert_eq!(s.satisfies(&f.ctx, &price_zero), Some(true));
        assert_eq!(
            s.satisfies_with_unknowns(&f.ctx, &price_zero, &pending),
            None
        );
        // A decided false conjunct decides the `And`; a decided true
        // disjunct decides the `Or`.
        let status_one = Condition::eq_const(f.status, Rational::from_int(1));
        assert_eq!(
            s.satisfies_with_unknowns(
                &f.ctx,
                &price_zero.clone().and(status_one.clone()),
                &pending
            ),
            Some(false)
        );
        let status_zero = Condition::eq_const(f.status, Rational::ZERO);
        assert_eq!(
            s.satisfies_with_unknowns(&f.ctx, &price_zero.clone().or(status_zero), &pending),
            Some(true)
        );
        assert_eq!(
            s.satisfies_with_unknowns(&f.ctx, &price_zero.or(status_one), &pending),
            None
        );
        // Arithmetic atoms read undetermined, pending or not.
        let nonneg = Condition::arith(has_arith::LinearConstraint::ge(
            has_arith::LinExpr::var(f.status),
            has_arith::LinExpr::zero(),
        ));
        assert_eq!(s.satisfies(&f.ctx, &nonneg), None);
        assert!(s.may_satisfy(&f.ctx, &nonneg));
    }

    #[test]
    fn binding_brings_navigations_to_life() {
        let f = fixture();
        let mut s = SymState::blank(&f.ctx, &f.system.schema);
        s.bind(&f.ctx, f.flight, Some(f.flights));
        assert!(!s.is_null(&f.ctx, f.flight));
        assert_eq!(s.binding_of(&f.ctx, f.flight), Some(f.flights));
        let nav_price = f
            .ctx
            .index_of(&Expr::Nav {
                var: f.flight,
                rel: f.flights,
                path: vec![1],
            })
            .unwrap();
        assert!(s.is_live(nav_price));
        // Unbinding kills them again and re-identifies with null.
        s.bind(&f.ctx, f.flight, None);
        assert!(!s.is_live(nav_price));
        assert!(s.is_null(&f.ctx, f.flight));
    }

    #[test]
    fn relation_atom_requires_binding_and_attribute_equalities() {
        let f = fixture();
        let mut s = SymState::blank(&f.ctx, &f.system.schema);
        let atom = Condition::relation(
            f.flights,
            vec![Term::Var(f.flight), Term::Var(f.price), Term::Var(f.hotel)],
        );
        assert_eq!(s.satisfies(&f.ctx, &atom), Some(false));
        // Bind flight and hotel, then align the attribute navigations.
        s.bind(&f.ctx, f.flight, Some(f.flights));
        let hotels = f.system.schema.database.relation_by_name("HOTELS").unwrap();
        s.bind(&f.ctx, f.hotel, Some(hotels));
        let nav_price = f
            .ctx
            .index_of(&Expr::Nav {
                var: f.flight,
                rel: f.flights,
                path: vec![1],
            })
            .unwrap();
        let nav_hotel = f
            .ctx
            .index_of(&Expr::Nav {
                var: f.flight,
                rel: f.flights,
                path: vec![2],
            })
            .unwrap();
        s.union(&f.ctx, nav_price, f.ctx.var_idx(f.price)).unwrap();
        s.union(&f.ctx, nav_hotel, f.ctx.var_idx(f.hotel)).unwrap();
        assert_eq!(s.satisfies(&f.ctx, &atom), Some(true));
    }

    #[test]
    fn unions_reject_sort_violations_and_constant_clashes() {
        let f = fixture();
        let mut s = SymState::blank(&f.ctx, &f.system.schema);
        // numeric with null: reject.
        assert!(s
            .union(&f.ctx, f.ctx.var_idx(f.price), f.ctx.null_idx)
            .is_err());
        // distinct constants: reject (1 vs 0).
        let one = f.ctx.index_of(&Expr::Const(Rational::from_int(1))).unwrap();
        assert!(s.union(&f.ctx, one, f.ctx.zero_idx).is_err());
        // numeric variable with the constant 1: fine once the variable has
        // been given a fresh value (in the blank state it is still 0).
        s.fresh_numeric(&f.ctx, f.status);
        assert!(s.union(&f.ctx, f.ctx.var_idx(f.status), one).is_ok());
        assert_eq!(
            s.satisfies(
                &f.ctx,
                &Condition::eq_const(f.status, Rational::from_int(1))
            ),
            Some(true)
        );
    }

    #[test]
    fn congruence_propagates_along_navigations() {
        let f = fixture();
        let deep_ctx = TaskContext::build(&f.system, f.system.root(), &[], 2);
        let mut s = SymState::blank(&deep_ctx, &f.system.schema);
        // Bind hotel and flight; make flight's comp_hotel equal to hotel.
        let hotels = f.system.schema.database.relation_by_name("HOTELS").unwrap();
        s.bind(&deep_ctx, f.flight, Some(f.flights));
        s.bind(&deep_ctx, f.hotel, Some(hotels));
        let nav_comp = deep_ctx
            .index_of(&Expr::Nav {
                var: f.flight,
                rel: f.flights,
                path: vec![2],
            })
            .unwrap();
        s.union(&deep_ctx, nav_comp, deep_ctx.var_idx(f.hotel))
            .unwrap();
        // Congruence: flight@FLIGHTS.comp_hotel.unit_price ~ hotel@HOTELS.unit_price.
        let deep_nav = deep_ctx
            .index_of(&Expr::Nav {
                var: f.flight,
                rel: f.flights,
                path: vec![2, 1],
            })
            .unwrap();
        let hotel_price = deep_ctx
            .index_of(&Expr::Nav {
                var: f.hotel,
                rel: hotels,
                path: vec![1],
            })
            .unwrap();
        assert!(s.eq(deep_nav, hotel_price));
    }

    #[test]
    fn projection_keys_are_canonical() {
        let f = fixture();
        let mut a = SymState::blank(&f.ctx, &f.system.schema);
        let mut b = SymState::blank(&f.ctx, &f.system.schema);
        a.fresh_numeric(&f.ctx, f.price);
        b.fresh_numeric(&f.ctx, f.price);
        a.normalize();
        b.normalize();
        assert_eq!(
            a.project_vars(&f.ctx, &[f.price, f.status]),
            b.project_vars(&f.ctx, &[f.price, f.status])
        );
        // Making price equal to status in `a` changes the projection.
        a.union(&f.ctx, f.ctx.var_idx(f.price), f.ctx.var_idx(f.status))
            .unwrap();
        assert_ne!(
            a.project_vars(&f.ctx, &[f.price, f.status]),
            b.project_vars(&f.ctx, &[f.price, f.status])
        );
    }

    #[test]
    fn adopt_vars_preserves_source_pattern() {
        let f = fixture();
        let mut source = SymState::blank(&f.ctx, &f.system.schema);
        source.bind(&f.ctx, f.flight, Some(f.flights));
        source.fresh_numeric(&f.ctx, f.price);
        source.normalize();
        let mut target = SymState::blank(&f.ctx, &f.system.schema);
        target.adopt_vars(&f.ctx, &source, &[f.flight, f.price]);
        assert_eq!(target.binding_of(&f.ctx, f.flight), Some(f.flights));
        assert!(!target.is_null(&f.ctx, f.flight));
        // price is in its own class, distinct from zero.
        assert!(!target.eq(f.ctx.var_idx(f.price), f.ctx.zero_idx));
        // hotel untouched: still null.
        assert!(target.is_null(&f.ctx, f.hotel));
    }

    /// Every pair of expressions not anchored at a forgotten variable keeps
    /// its equality and liveness, and every remaining binding is unchanged.
    fn assert_rest_unchanged(
        ctx: &TaskContext,
        before: &SymState,
        after: &SymState,
        gone: &[VarId],
    ) {
        let kept: Vec<usize> = (0..ctx.len())
            .filter(|&i| match &ctx.exprs[i] {
                Expr::Var(v) | Expr::Nav { var: v, .. } => !gone.contains(v),
                _ => true,
            })
            .collect();
        for &i in &kept {
            assert_eq!(before.is_live(i), after.is_live(i), "{:?}", ctx.exprs[i]);
            for &j in &kept {
                assert_eq!(
                    before.eq(i, j),
                    after.eq(i, j),
                    "{:?} vs {:?}",
                    ctx.exprs[i],
                    ctx.exprs[j]
                );
            }
        }
        for &v in ctx.id_vars() {
            if !gone.contains(&v) {
                assert_eq!(before.binding_of(ctx, v), after.binding_of(ctx, v));
            }
        }
    }

    #[test]
    fn forget_keeps_the_rest_and_is_normalized_and_idempotent() {
        let f = fixture();
        let ctx = &f.ctx;
        let hotels = f.system.schema.database.relation_by_name("HOTELS").unwrap();
        let nav = |var, rel, attr| {
            ctx.index_of(&Expr::Nav {
                var,
                rel,
                path: vec![attr],
            })
            .unwrap()
        };
        // flight.comp_hotel = hotel, price = flight.price, status = 1.
        let mut s = SymState::blank(ctx, &f.system.schema);
        s.bind(ctx, f.flight, Some(f.flights));
        s.bind(ctx, f.hotel, Some(hotels));
        s.union(ctx, nav(f.flight, f.flights, 2), ctx.var_idx(f.hotel))
            .unwrap();
        s.fresh_numeric(ctx, f.price);
        s.union(ctx, ctx.var_idx(f.price), nav(f.flight, f.flights, 1))
            .unwrap();
        s.fresh_numeric(ctx, f.status);
        let one = ctx.index_of(&Expr::Const(Rational::from_int(1))).unwrap();
        s.union(ctx, ctx.var_idx(f.status), one).unwrap();
        s.normalize();

        let gone = [f.price, f.hotel];
        let mut t = s.clone();
        t.forget(ctx, &gone);
        assert_rest_unchanged(ctx, &s, &t, &gone);
        // The numeric variable sits alone, the ID variable is null and its
        // navigation is dead.
        let price = ctx.var_idx(f.price);
        assert!((0..ctx.len()).all(|i| i == price || !t.eq(i, price)));
        assert!(t.is_null(ctx, f.hotel));
        assert_eq!(t.binding_of(ctx, f.hotel), None);
        assert!(!t.is_live(nav(f.hotel, hotels, 1)));
        // Constant classes: status still equals 1, and 1 is not 0.
        assert!(t.eq(ctx.var_idx(f.status), one));
        assert!(!t.eq(one, ctx.zero_idx));
        // Normalized, idempotent, and order-free.
        let mut normalized = t.clone();
        normalized.normalize();
        assert_eq!(normalized, t);
        let mut twice = t.clone();
        twice.forget(ctx, &gone);
        assert_eq!(twice, t);
        let mut reversed = s.clone();
        reversed.forget(ctx, &[f.hotel, f.price]);
        assert_eq!(reversed, t);
    }

    /// An ID variable equal to a navigation is kept while one of its own
    /// navigations holds a fact that the navigation's subtree cannot carry:
    /// at depth 1, `hotel = flight.comp_hotel` with `hotel.unit_price =
    /// price` has no `flight.comp_hotel.unit_price` to hold the equality.
    /// At depth 2 congruence already put it there, so `hotel` goes.
    #[test]
    fn forget_keeps_an_id_variable_whose_navigation_facts_have_no_other_home() {
        let f = fixture();
        let hotels = f.system.schema.database.relation_by_name("HOTELS").unwrap();
        for depth in [1, 2] {
            let ctx = TaskContext::build(&f.system, f.system.root(), &[], depth);
            let nav = |var, rel, path: Vec<usize>| ctx.index_of(&Expr::Nav { var, rel, path });
            let mut s = SymState::blank(&ctx, &f.system.schema);
            s.bind(&ctx, f.flight, Some(f.flights));
            s.bind(&ctx, f.hotel, Some(hotels));
            let comp = nav(f.flight, f.flights, vec![2]).unwrap();
            s.union(&ctx, comp, ctx.var_idx(f.hotel)).unwrap();
            s.fresh_numeric(&ctx, f.price);
            let unit_price = nav(f.hotel, hotels, vec![1]).unwrap();
            s.union(&ctx, unit_price, ctx.var_idx(f.price)).unwrap();
            s.normalize();
            let mut t = s.clone();
            t.forget(&ctx, &[f.hotel]);
            match nav(f.flight, f.flights, vec![2, 1]) {
                None => {
                    assert_eq!(depth, 1);
                    assert_eq!(t, s, "kept at depth 1");
                }
                Some(deep) => {
                    assert_eq!(depth, 2);
                    assert!(t.is_null(&ctx, f.hotel));
                    assert!(t.eq(deep, ctx.var_idx(f.price)));
                    assert_rest_unchanged(&ctx, &s, &t, &[f.hotel]);
                }
            }
        }
    }
}
