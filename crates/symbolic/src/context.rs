//! Per-task symbolic context: the expression universe and atom basis.
//!
//! The paper's T-isomorphism types range over all navigation expressions up
//! to the depth `h(T)`; a practical verifier only needs the expressions the
//! specification and the property can *observe* — the variables themselves,
//! the constants appearing in conditions, and, for every ID variable `x` and
//! every relation `R` for which some condition contains an atom `R(x, …)`,
//! the navigations `x_R.a` (extended further along foreign keys up to a
//! configurable depth). The [`TaskContext`] computes this universe once per
//! task and provides the index structures the symbolic state operates on.

use crate::expr::{Expr, Sort};
use crate::successor::SuccessorCache;
use has_arith::Rational;
use has_model::{
    ArtifactSystem, Atom, AttrKind, Condition, RelationId, TaskId, Term, VarId, VarSort,
};
use std::collections::{BTreeMap, BTreeSet};

/// The symbolic context of a task: expression universe, sorts, and the atom
/// basis used to bound successor enumeration.
#[derive(Clone, Debug)]
pub struct TaskContext {
    /// The task this context describes.
    pub task: TaskId,
    /// The expression universe `E⁺_T` (index = expression id), sorted and
    /// duplicate-free: the only expression index ([`TaskContext::index_of`]
    /// binary-searches it).
    pub exprs: Vec<Expr>,
    /// Static sort per expression (for ID variables this is refined
    /// dynamically by the state's binding).
    pub sorts: Vec<Sort>,
    /// Index of [`Expr::Null`].
    pub null_idx: usize,
    /// Index of [`Expr::Zero`].
    pub zero_idx: usize,
    /// The task's ID variables, with the candidate relations each may be
    /// bound to (relations appearing with the variable in key position of a
    /// relation atom).
    pub id_var_bindings: BTreeMap<VarId, Vec<RelationId>>,
    /// For every expression, the expressions related to it by some atom of
    /// the basis (used to bound the classes considered when enumerating a
    /// freshly written variable's value).
    pub related: Vec<BTreeSet<usize>>,
    /// The ID variables in ascending order — the fixed key sequence of every
    /// state's flat binding vector.
    id_vars: Vec<VarId>,
    /// One past the largest attribute index appearing in any navigation.
    max_attr: usize,
    /// Indices of constant expressions (`0` and named constants), ascending.
    const_idxs: Vec<usize>,
    /// Child table for navigation expressions: `nav_child[i][attr]` is the
    /// index of the expression extending `exprs[i]` by `attr`, if present.
    /// Empty for non-navigation expressions.
    nav_child: Vec<Vec<Option<usize>>>,
    /// Child tables for ID-variable expressions, one `(rel, children)` entry
    /// per candidate binding, sorted by relation. Empty for other
    /// expressions.
    var_child: Vec<Vec<(RelationId, Vec<Option<usize>>)>>,
    /// The expression of each variable of the task, indexed by [`VarId`]
    /// (`None` for variables of other tasks).
    var_expr: Vec<Option<usize>>,
    /// The task's variables that nothing reads, in ascending order: what
    /// the post-state lists and the verifier's returns forget
    /// ([`SymState::forget`](crate::SymState::forget)). Empty unless set
    /// with [`TaskContext::with_unobservable`].
    unobservable: Vec<VarId>,
    /// The internal services' post-state lists, shared by every `(T, β)`
    /// exploration of the task ([`TaskContext::post_states`]).
    pub(crate) successors: SuccessorCache,
}

impl TaskContext {
    /// Builds the context of a task from the artifact system and any extra
    /// conditions (property propositions attached to the task, and — for the
    /// root task — the global pre-condition).
    ///
    /// `nav_depth` bounds foreign-key navigation beyond the attributes
    /// directly observable by relation atoms (depth 1 is always included).
    pub fn build(
        system: &ArtifactSystem,
        task: TaskId,
        extra_conditions: &[Condition],
        nav_depth: usize,
    ) -> Self {
        Self::build_with_bindings(system, task, extra_conditions, nav_depth, &BTreeMap::new())
    }

    /// Like [`TaskContext::build`], but seeds additional candidate bindings
    /// for the task's variables. The verifier uses this to propagate bindings
    /// across task boundaries (a variable passed to a child that navigates it
    /// must be navigable in the parent too, otherwise facts established by
    /// the child would be lost when they flow back through the parent).
    pub fn build_with_bindings(
        system: &ArtifactSystem,
        task: TaskId,
        extra_conditions: &[Condition],
        nav_depth: usize,
        seed_bindings: &BTreeMap<VarId, Vec<RelationId>>,
    ) -> Self {
        let schema = &system.schema;
        let t = schema.task(task);

        // Gather all conditions observable from this task's perspective.
        let mut conditions: Vec<&Condition> = Vec::new();
        for s in &t.internal_services {
            conditions.push(&s.pre);
            conditions.push(&s.post);
        }
        conditions.push(&t.closing.pre);
        for &c in &t.children {
            conditions.push(&schema.task(c).opening.pre);
        }
        if task == schema.root {
            conditions.push(&system.precondition);
        }
        for c in extra_conditions {
            conditions.push(c);
        }

        // Candidate bindings: relations appearing with an ID variable of this
        // task in the key position of a relation atom.
        let mut id_var_bindings: BTreeMap<VarId, Vec<RelationId>> = BTreeMap::new();
        for &v in &t.variables {
            if schema.variable(v).sort == VarSort::Id {
                let mut seeded = Vec::new();
                if let Some(extra) = seed_bindings.get(&v) {
                    seeded.extend(extra.iter().copied());
                }
                id_var_bindings.insert(v, seeded);
            }
        }
        let mut constants: BTreeSet<Rational> = BTreeSet::new();
        for cond in &conditions {
            for atom in cond.atoms() {
                match atom {
                    Atom::Relation { relation, args } => {
                        if let Some(Term::Var(x)) = args.first() {
                            if let Some(list) = id_var_bindings.get_mut(x) {
                                if !list.contains(&relation) {
                                    list.push(relation);
                                }
                            }
                        }
                        // A variable in a foreign-key position holds an id of
                        // the referenced relation: record it as a candidate
                        // binding so conditions elsewhere can navigate it.
                        let attrs = &schema.database.relation(relation).attributes;
                        for (i, term) in args.iter().enumerate().skip(1) {
                            if let (Some(AttrKind::ForeignKey(target)), Term::Var(z)) =
                                (attrs.get(i).map(|a| a.kind), term)
                            {
                                if let Some(list) = id_var_bindings.get_mut(z) {
                                    if !list.contains(&target) {
                                        list.push(target);
                                    }
                                }
                            }
                        }
                        for term in &args {
                            if let Term::Const(c) = term {
                                if !c.is_zero() {
                                    constants.insert(*c);
                                }
                            }
                        }
                    }
                    Atom::Eq(a, b) => {
                        for term in [a, b] {
                            if let Term::Const(c) = term {
                                if !c.is_zero() {
                                    constants.insert(c);
                                }
                            }
                        }
                    }
                    Atom::Arith(_) => {}
                }
            }
        }

        // Assemble the universe.
        let mut exprs: Vec<Expr> = vec![Expr::Null, Expr::Zero];
        for c in &constants {
            exprs.push(Expr::Const(*c));
        }
        for &v in &t.variables {
            exprs.push(Expr::Var(v));
        }
        // Navigations: one step per attribute for each candidate binding,
        // extended along foreign keys up to `nav_depth`.
        for (&v, rels) in &id_var_bindings {
            for &rel in rels {
                let mut frontier: Vec<(RelationId, Vec<usize>)> = vec![(rel, Vec::new())];
                for depth in 0..nav_depth.max(1) {
                    let mut next_frontier = Vec::new();
                    for (current, path) in &frontier {
                        for (idx, attr) in schema
                            .database
                            .relation(*current)
                            .attributes
                            .iter()
                            .enumerate()
                        {
                            if matches!(attr.kind, AttrKind::Key) {
                                continue;
                            }
                            let mut p = path.clone();
                            p.push(idx);
                            exprs.push(Expr::Nav {
                                var: v,
                                rel,
                                path: p.clone(),
                            });
                            if let AttrKind::ForeignKey(target) = attr.kind {
                                if depth + 1 < nav_depth {
                                    next_frontier.push((target, p));
                                }
                            }
                        }
                    }
                    frontier = next_frontier;
                    if frontier.is_empty() {
                        break;
                    }
                }
            }
        }
        exprs.sort();
        exprs.dedup();

        let index_of = |e: &Expr| exprs.binary_search(e).ok();
        let sorts: Vec<Sort> = exprs.iter().map(|e| e.sort(schema)).collect();
        let null_idx = index_of(&Expr::Null).expect("null is in every universe");
        let zero_idx = index_of(&Expr::Zero).expect("0 is in every universe");

        // Atom basis → relatedness between expressions.
        let mut related: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); exprs.len()];
        let relate = |a: usize, b: usize, related: &mut Vec<BTreeSet<usize>>| {
            related[a].insert(b);
            related[b].insert(a);
        };
        let term_idx = |term: &Term| -> Option<usize> {
            match term {
                Term::Var(v) => index_of(&Expr::Var(*v)),
                Term::Null => Some(null_idx),
                Term::Const(c) if c.is_zero() => Some(zero_idx),
                Term::Const(c) => index_of(&Expr::Const(*c)),
            }
        };
        for cond in &conditions {
            for atom in cond.atoms() {
                match atom {
                    Atom::Eq(a, b) => {
                        if let (Some(i), Some(j)) = (term_idx(&a), term_idx(&b)) {
                            relate(i, j, &mut related);
                        }
                    }
                    Atom::Relation { relation, args } => {
                        let Some(Term::Var(x)) = args.first() else {
                            continue;
                        };
                        for (attr_idx, term) in args.iter().enumerate().skip(1) {
                            let nav = Expr::Nav {
                                var: *x,
                                rel: relation,
                                path: vec![attr_idx],
                            };
                            if let (Some(i), Some(j)) = (index_of(&nav), term_idx(term)) {
                                relate(i, j, &mut related);
                            }
                        }
                    }
                    Atom::Arith(c) => {
                        // Numeric variables compared by arithmetic are
                        // related to each other and to the constants.
                        let vars: Vec<usize> = c
                            .variables()
                            .filter_map(|v| index_of(&Expr::Var(*v)))
                            .collect();
                        for i in 0..vars.len() {
                            for j in i + 1..vars.len() {
                                relate(vars[i], vars[j], &mut related);
                            }
                            relate(vars[i], zero_idx, &mut related);
                        }
                    }
                }
            }
        }

        // Precomputed lookup tables for the hot paths of the congruence
        // closure: attribute children per expression and the constant
        // expression indices, so `union` never re-derives them by probing
        // the expression index with freshly allocated keys.
        let id_vars: Vec<VarId> = id_var_bindings.keys().copied().collect();
        let max_attr = exprs
            .iter()
            .filter_map(|e| match e {
                Expr::Nav { path, .. } => path.iter().max().copied(),
                _ => None,
            })
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let const_idxs: Vec<usize> = exprs
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Expr::Const(_) | Expr::Zero))
            .map(|(i, _)| i)
            .collect();
        let mut nav_child: Vec<Vec<Option<usize>>> = vec![Vec::new(); exprs.len()];
        let mut var_child: Vec<Vec<(RelationId, Vec<Option<usize>>)>> =
            vec![Vec::new(); exprs.len()];
        for (i, e) in exprs.iter().enumerate() {
            match e {
                Expr::Nav { var, rel, path } => {
                    nav_child[i] = (0..max_attr)
                        .map(|attr| {
                            let mut p = path.clone();
                            p.push(attr);
                            index_of(&Expr::Nav {
                                var: *var,
                                rel: *rel,
                                path: p,
                            })
                        })
                        .collect();
                }
                Expr::Var(v) => {
                    if let Some(rels) = id_var_bindings.get(v) {
                        let mut per: Vec<(RelationId, Vec<Option<usize>>)> = rels
                            .iter()
                            .map(|&rel| {
                                let children = (0..max_attr)
                                    .map(|attr| {
                                        index_of(&Expr::Nav {
                                            var: *v,
                                            rel,
                                            path: vec![attr],
                                        })
                                    })
                                    .collect();
                                (rel, children)
                            })
                            .collect();
                        per.sort_by_key(|(rel, _)| *rel);
                        var_child[i] = per;
                    }
                }
                _ => {}
            }
        }

        let mut var_expr: Vec<Option<usize>> = Vec::new();
        for (i, e) in exprs.iter().enumerate() {
            if let Expr::Var(v) = e {
                if var_expr.len() <= v.0 {
                    var_expr.resize(v.0 + 1, None);
                }
                var_expr[v.0] = Some(i);
            }
        }

        TaskContext {
            task,
            exprs,
            sorts,
            null_idx,
            zero_idx,
            id_var_bindings,
            related,
            id_vars,
            max_attr,
            const_idxs,
            nav_child,
            var_child,
            var_expr,
            unobservable: Vec::new(),
            successors: SuccessorCache::default(),
        }
    }

    /// The context with `vars` — variables of the task that nothing reads
    /// (`has_analysis::unobservable_vars`) — as the variables its post-state
    /// lists forget (DESIGN.md §5.14). Set once, before any list is cached.
    pub fn with_unobservable(mut self, mut vars: Vec<VarId>) -> Self {
        vars.sort();
        vars.dedup();
        self.unobservable = vars;
        self
    }

    /// The variables the task's symbolic states forget after every
    /// internal step and every child return, in ascending order.
    pub fn unobservable(&self) -> &[VarId] {
        &self.unobservable
    }

    /// Number of expressions in the universe.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Returns `true` if the universe is empty (never the case in practice —
    /// `null` and `0` are always present).
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }

    /// The index of an expression, if it belongs to the universe.
    pub fn index_of(&self, e: &Expr) -> Option<usize> {
        self.exprs.binary_search(e).ok()
    }

    /// The index of a variable's expression.
    ///
    /// # Panics
    /// Panics if the variable is not part of this task's universe.
    pub fn var_idx(&self, v: VarId) -> usize {
        self.var_expr_idx(v)
            .expect("variable not in this task's universe")
    }

    /// The index of a variable's expression, if the variable belongs to the
    /// task.
    fn var_expr_idx(&self, v: VarId) -> Option<usize> {
        self.var_expr.get(v.0).copied().flatten()
    }

    /// The index of a term of a condition, if representable.
    pub fn term_idx(&self, term: &Term) -> Option<usize> {
        match term {
            Term::Var(v) => self.var_expr_idx(*v),
            Term::Null => Some(self.null_idx),
            Term::Const(c) if c.is_zero() => Some(self.zero_idx),
            // The universe is sorted, so its constants are in value order.
            Term::Const(c) => {
                let key = Expr::Const(*c);
                self.const_idxs
                    .binary_search_by(|&i| self.exprs[i].cmp(&key))
                    .ok()
                    .map(|pos| self.const_idxs[pos])
            }
        }
    }

    /// The navigation expressions anchored at a variable, together with the
    /// relation they assume the variable is bound to.
    pub fn navs_of(&self, v: VarId) -> impl Iterator<Item = (usize, RelationId)> + '_ {
        self.exprs
            .iter()
            .enumerate()
            .filter_map(move |(i, e)| match e {
                Expr::Nav { var, rel, .. } if *var == v => Some((i, *rel)),
                _ => None,
            })
    }

    /// The task's ID variables in ascending order: the fixed key sequence
    /// that every state's flat binding vector is parallel to.
    pub fn id_vars(&self) -> &[VarId] {
        &self.id_vars
    }

    /// The position of an ID variable in [`TaskContext::id_vars`] (and hence
    /// in every state's binding vector), if it is one.
    pub fn id_var_pos(&self, v: VarId) -> Option<usize> {
        self.id_vars.binary_search(&v).ok()
    }

    /// One past the largest attribute index appearing in any navigation of
    /// the universe.
    pub fn max_attr(&self) -> usize {
        self.max_attr
    }

    /// Indices of the constant expressions (`0` and named constants), in
    /// ascending order.
    pub fn const_exprs(&self) -> &[usize] {
        &self.const_idxs
    }

    /// The child of a navigation expression along `attr`, from the
    /// precomputed table (`None` for non-navigation expressions or absent
    /// children).
    pub fn child_of_nav(&self, idx: usize, attr: usize) -> Option<usize> {
        self.nav_child[idx].get(attr).copied().flatten()
    }

    /// The child of an ID-variable expression along `attr` under binding
    /// `rel`, from the precomputed table.
    pub fn child_of_var(&self, idx: usize, rel: RelationId, attr: usize) -> Option<usize> {
        let per = &self.var_child[idx];
        let entry = per.binary_search_by_key(&rel, |(r, _)| *r).ok()?;
        per[entry].1.get(attr).copied().flatten()
    }

    /// The candidate relations an ID variable can be bound to.
    pub fn bindings_for(&self, v: VarId) -> &[RelationId] {
        self.id_var_bindings
            .get(&v)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Expressions related to the given one through the atom basis.
    pub fn related_to(&self, idx: usize) -> &BTreeSet<usize> {
        &self.related[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_model::{SetUpdate, SystemBuilder};

    fn travel_like() -> (ArtifactSystem, TaskId) {
        let mut b = SystemBuilder::new("t");
        b.relation("HOTELS", &["unit_price"], &[]);
        b.relation("FLIGHTS", &["price"], &[("comp_hotel", "HOTELS")]);
        let root = b.root_task("Root");
        let flight = b.id_var(root, "flight_id");
        let hotel = b.id_var(root, "hotel_id");
        let price = b.num_var(root, "price");
        let status = b.num_var(root, "status");
        let flights = b.relation_id("FLIGHTS").unwrap();
        // post: FLIGHTS(flight, price, hotel) ∧ status = 1
        let post = Condition::relation(
            flights,
            vec![Term::Var(flight), Term::Var(price), Term::Var(hotel)],
        )
        .and(Condition::eq_const(status, Rational::from_int(1)));
        b.internal_service(root, "choose", Condition::True, post, SetUpdate::None);
        let sys = b.build().unwrap();
        let root = sys.root();
        (sys, root)
    }

    #[test]
    fn universe_contains_expected_expressions() {
        let (sys, root) = travel_like();
        let ctx = TaskContext::build(&sys, root, &[], 1);
        let schema = &sys.schema;
        let flight = schema.var_by_name(root, "flight_id").unwrap();
        let flights = schema.database.relation_by_name("FLIGHTS").unwrap();
        // Universe has null, 0, constant 1, 4 variables, 2 navigations from
        // flight (price, comp_hotel).
        assert!(ctx.index_of(&Expr::Null).is_some());
        assert!(ctx.index_of(&Expr::Const(Rational::from_int(1))).is_some());
        assert!(ctx
            .index_of(&Expr::Nav {
                var: flight,
                rel: flights,
                path: vec![1]
            })
            .is_some());
        assert!(ctx
            .index_of(&Expr::Nav {
                var: flight,
                rel: flights,
                path: vec![2]
            })
            .is_some());
        assert_eq!(ctx.bindings_for(flight), &[flights]);
        // hotel_id appears in a foreign-key position referencing HOTELS, so
        // it picks up HOTELS as a candidate binding (and one navigation).
        let hotel = schema.var_by_name(root, "hotel_id").unwrap();
        let hotels = schema.database.relation_by_name("HOTELS").unwrap();
        assert_eq!(ctx.bindings_for(hotel), &[hotels]);
        assert_eq!(ctx.len(), 10);
        assert!(!ctx.is_empty());
    }

    #[test]
    fn deeper_navigation_depth_adds_fk_chains() {
        let (sys, root) = travel_like();
        let shallow = TaskContext::build(&sys, root, &[], 1);
        let deep = TaskContext::build(&sys, root, &[], 2);
        assert!(deep.len() > shallow.len());
        let schema = &sys.schema;
        let flight = schema.var_by_name(root, "flight_id").unwrap();
        let flights = schema.database.relation_by_name("FLIGHTS").unwrap();
        // flight@FLIGHTS.comp_hotel.unit_price exists at depth 2.
        assert!(deep
            .index_of(&Expr::Nav {
                var: flight,
                rel: flights,
                path: vec![2, 1]
            })
            .is_some());
    }

    #[test]
    fn atom_basis_relates_condition_expressions() {
        let (sys, root) = travel_like();
        let ctx = TaskContext::build(&sys, root, &[], 1);
        let schema = &sys.schema;
        let price = schema.var_by_name(root, "price").unwrap();
        let flight = schema.var_by_name(root, "flight_id").unwrap();
        let flights = schema.database.relation_by_name("FLIGHTS").unwrap();
        let price_idx = ctx.var_idx(price);
        let nav_price = ctx
            .index_of(&Expr::Nav {
                var: flight,
                rel: flights,
                path: vec![1],
            })
            .unwrap();
        assert!(ctx.related_to(price_idx).contains(&nav_price));
        // The status variable is related to the constant 1.
        let status = schema.var_by_name(root, "status").unwrap();
        let one = ctx.index_of(&Expr::Const(Rational::from_int(1))).unwrap();
        assert!(ctx.related_to(ctx.var_idx(status)).contains(&one));
    }

    #[test]
    fn property_conditions_extend_the_universe() {
        let (sys, root) = travel_like();
        let schema = &sys.schema;
        let status = schema.var_by_name(root, "status").unwrap();
        let extra = Condition::eq_const(status, Rational::from_int(42));
        let ctx = TaskContext::build(&sys, root, &[extra], 1);
        assert!(ctx.index_of(&Expr::Const(Rational::from_int(42))).is_some());
    }
}
