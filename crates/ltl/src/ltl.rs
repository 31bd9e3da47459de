//! Propositional linear-time temporal logic.
//!
//! Formulas are parameterized by the proposition type `P`; the HLTL-FO layer
//! instantiates `P` with indices into a table of interpreted propositions
//! (conditions, services, child sub-formulas), and tests instantiate it with
//! small integers or strings.
//!
//! Two trace semantics are provided, matching Appendix B.2 of the paper:
//!
//! * **finite traces** (used for returning local runs): `X φ` requires a next
//!   position to exist;
//! * **infinite ultimately-periodic traces** `u · v^ω` (every lasso produced
//!   by the verifier has this shape): evaluated by fixpoint iteration over
//!   the finitely many (position, subformula) pairs.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;

/// A propositional LTL formula over propositions of type `P`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ltl<P> {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// An atomic proposition.
    Prop(P),
    /// Negation.
    Not(Box<Ltl<P>>),
    /// Conjunction.
    And(Box<Ltl<P>>, Box<Ltl<P>>),
    /// Disjunction.
    Or(Box<Ltl<P>>, Box<Ltl<P>>),
    /// (Strong) next: requires a next position to exist on finite traces.
    Next(Box<Ltl<P>>),
    /// Weak next: like [`Ltl::Next`] on infinite traces, but true at the last
    /// position of a finite trace. Needed so that negation normal form
    /// preserves the finite-trace semantics (`¬X φ ≡ WX ¬φ`).
    WeakNext(Box<Ltl<P>>),
    /// Until.
    Until(Box<Ltl<P>>, Box<Ltl<P>>),
    /// Release (the dual of until).
    Release(Box<Ltl<P>>, Box<Ltl<P>>),
}

impl<P: Clone + Eq + Hash + Ord> Ltl<P> {
    /// Atomic proposition.
    pub fn prop(p: P) -> Self {
        Ltl::Prop(p)
    }

    /// Negation.
    // Kept as an inherent method (not `std::ops::Not`): the whole combinator
    // API is method-chained (`f.not().until(g)`), and `!f` would read wrong.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        match self {
            Ltl::True => Ltl::False,
            Ltl::False => Ltl::True,
            Ltl::Not(inner) => *inner,
            other => Ltl::Not(Box::new(other)),
        }
    }

    /// Conjunction.
    pub fn and(self, other: Self) -> Self {
        match (self, other) {
            (Ltl::True, x) | (x, Ltl::True) => x,
            (Ltl::False, _) | (_, Ltl::False) => Ltl::False,
            (a, b) => Ltl::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction.
    pub fn or(self, other: Self) -> Self {
        match (self, other) {
            (Ltl::False, x) | (x, Ltl::False) => x,
            (Ltl::True, _) | (_, Ltl::True) => Ltl::True,
            (a, b) => Ltl::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Implication `self → other`.
    pub fn implies(self, other: Self) -> Self {
        self.not().or(other)
    }

    /// (Strong) next.
    pub fn next(self) -> Self {
        Ltl::Next(Box::new(self))
    }

    /// Weak next (true at the last position of a finite trace).
    pub fn weak_next(self) -> Self {
        Ltl::WeakNext(Box::new(self))
    }

    /// Until.
    pub fn until(self, other: Self) -> Self {
        Ltl::Until(Box::new(self), Box::new(other))
    }

    /// Release.
    pub fn release(self, other: Self) -> Self {
        Ltl::Release(Box::new(self), Box::new(other))
    }

    /// Eventually: `F φ ≡ true U φ`.
    pub fn eventually(self) -> Self {
        Ltl::Until(Box::new(Ltl::True), Box::new(self))
    }

    /// Always: `G φ ≡ false R φ`.
    pub fn globally(self) -> Self {
        Ltl::Release(Box::new(Ltl::False), Box::new(self))
    }

    /// Negation normal form: negations pushed down to propositions, using the
    /// U/R duality. The result contains `Not` only directly above `Prop`.
    pub fn nnf(&self) -> Self {
        match self {
            Ltl::True | Ltl::False | Ltl::Prop(_) => self.clone(),
            Ltl::And(a, b) => Ltl::And(Box::new(a.nnf()), Box::new(b.nnf())),
            Ltl::Or(a, b) => Ltl::Or(Box::new(a.nnf()), Box::new(b.nnf())),
            Ltl::Next(a) => Ltl::Next(Box::new(a.nnf())),
            Ltl::WeakNext(a) => Ltl::WeakNext(Box::new(a.nnf())),
            Ltl::Until(a, b) => Ltl::Until(Box::new(a.nnf()), Box::new(b.nnf())),
            Ltl::Release(a, b) => Ltl::Release(Box::new(a.nnf()), Box::new(b.nnf())),
            Ltl::Not(inner) => match &**inner {
                Ltl::True => Ltl::False,
                Ltl::False => Ltl::True,
                Ltl::Prop(_) => self.clone(),
                Ltl::Not(x) => x.nnf(),
                Ltl::And(a, b) => Ltl::Or(
                    Box::new(Ltl::Not(a.clone()).nnf()),
                    Box::new(Ltl::Not(b.clone()).nnf()),
                ),
                Ltl::Or(a, b) => Ltl::And(
                    Box::new(Ltl::Not(a.clone()).nnf()),
                    Box::new(Ltl::Not(b.clone()).nnf()),
                ),
                Ltl::Next(a) => Ltl::WeakNext(Box::new(Ltl::Not(a.clone()).nnf())),
                Ltl::WeakNext(a) => Ltl::Next(Box::new(Ltl::Not(a.clone()).nnf())),
                Ltl::Until(a, b) => Ltl::Release(
                    Box::new(Ltl::Not(a.clone()).nnf()),
                    Box::new(Ltl::Not(b.clone()).nnf()),
                ),
                Ltl::Release(a, b) => Ltl::Until(
                    Box::new(Ltl::Not(a.clone()).nnf()),
                    Box::new(Ltl::Not(b.clone()).nnf()),
                ),
            },
        }
    }

    /// The set of propositions occurring in the formula.
    pub fn propositions(&self) -> BTreeSet<P> {
        let mut out = BTreeSet::new();
        self.collect_props(&mut out);
        out
    }

    fn collect_props(&self, out: &mut BTreeSet<P>) {
        match self {
            Ltl::True | Ltl::False => {}
            Ltl::Prop(p) => {
                out.insert(p.clone());
            }
            Ltl::Not(a) | Ltl::Next(a) | Ltl::WeakNext(a) => a.collect_props(out),
            Ltl::And(a, b) | Ltl::Or(a, b) | Ltl::Until(a, b) | Ltl::Release(a, b) => {
                a.collect_props(out);
                b.collect_props(out);
            }
        }
    }

    /// Size of the formula (number of syntax-tree nodes).
    pub fn size(&self) -> usize {
        match self {
            Ltl::True | Ltl::False | Ltl::Prop(_) => 1,
            Ltl::Not(a) | Ltl::Next(a) | Ltl::WeakNext(a) => 1 + a.size(),
            Ltl::And(a, b) | Ltl::Or(a, b) | Ltl::Until(a, b) | Ltl::Release(a, b) => {
                1 + a.size() + b.size()
            }
        }
    }

    /// Rewrites propositions through `f`.
    pub fn map_props<Q: Clone + Eq + Hash + Ord, F>(&self, f: &F) -> Ltl<Q>
    where
        F: Fn(&P) -> Q,
    {
        match self {
            Ltl::True => Ltl::True,
            Ltl::False => Ltl::False,
            Ltl::Prop(p) => Ltl::Prop(f(p)),
            Ltl::Not(a) => Ltl::Not(Box::new(a.map_props(f))),
            Ltl::Next(a) => Ltl::Next(Box::new(a.map_props(f))),
            Ltl::WeakNext(a) => Ltl::WeakNext(Box::new(a.map_props(f))),
            Ltl::And(a, b) => Ltl::And(Box::new(a.map_props(f)), Box::new(b.map_props(f))),
            Ltl::Or(a, b) => Ltl::Or(Box::new(a.map_props(f)), Box::new(b.map_props(f))),
            Ltl::Until(a, b) => Ltl::Until(Box::new(a.map_props(f)), Box::new(b.map_props(f))),
            Ltl::Release(a, b) => Ltl::Release(Box::new(a.map_props(f)), Box::new(b.map_props(f))),
        }
    }

    /// Evaluates the formula on a **finite trace**, each position giving the
    /// set of true propositions via `holds(position, prop)`.
    ///
    /// The semantics is the finite-word semantics of Appendix B.2:
    /// `X φ` holds at `j` iff `j+1 < len` and `φ` holds at `j+1`;
    /// `φ U ψ` requires `ψ` to hold at some position `≤ len-1`.
    pub fn eval_finite<F>(&self, len: usize, holds: &F) -> bool
    where
        F: Fn(usize, &P) -> bool,
    {
        assert!(len > 0, "finite traces must be non-empty");
        self.eval_finite_at(0, len, holds)
    }

    fn eval_finite_at<F>(&self, j: usize, len: usize, holds: &F) -> bool
    where
        F: Fn(usize, &P) -> bool,
    {
        match self {
            Ltl::True => true,
            Ltl::False => false,
            Ltl::Prop(p) => holds(j, p),
            Ltl::Not(a) => !a.eval_finite_at(j, len, holds),
            Ltl::And(a, b) => a.eval_finite_at(j, len, holds) && b.eval_finite_at(j, len, holds),
            Ltl::Or(a, b) => a.eval_finite_at(j, len, holds) || b.eval_finite_at(j, len, holds),
            Ltl::Next(a) => j + 1 < len && a.eval_finite_at(j + 1, len, holds),
            Ltl::WeakNext(a) => j + 1 >= len || a.eval_finite_at(j + 1, len, holds),
            Ltl::Until(a, b) => (j..len).any(|k| {
                b.eval_finite_at(k, len, holds) && (j..k).all(|l| a.eval_finite_at(l, len, holds))
            }),
            Ltl::Release(a, b) => (j..len).all(|k| {
                b.eval_finite_at(k, len, holds) || (j..k).any(|l| a.eval_finite_at(l, len, holds))
            }),
        }
    }

    /// Evaluates the formula on the **infinite ultimately-periodic trace**
    /// `t₀ … t_{loop_start-1} (t_{loop_start} … t_{len-1})^ω`.
    ///
    /// `holds(position, prop)` is consulted only for positions `< len`.
    /// Until/Release are computed by fixpoint iteration over the `len`
    /// distinct positions of the lasso.
    // The `sat` truth table is double-indexed (row i written from rows
    // ia/ib at shifted positions), which iterators cannot express cleanly.
    #[allow(clippy::needless_range_loop)]
    pub fn eval_lasso<F>(&self, len: usize, loop_start: usize, holds: &F) -> bool
    where
        F: Fn(usize, &P) -> bool,
    {
        assert!(len > 0 && loop_start < len, "invalid lasso shape");
        // Collect all subformulas, children before parents.
        let mut subs: Vec<&Ltl<P>> = Vec::new();
        fn collect<'a, P>(f: &'a Ltl<P>, out: &mut Vec<&'a Ltl<P>>) {
            match f {
                Ltl::True | Ltl::False | Ltl::Prop(_) => {}
                Ltl::Not(a) | Ltl::Next(a) | Ltl::WeakNext(a) => collect(a, out),
                Ltl::And(a, b) | Ltl::Or(a, b) | Ltl::Until(a, b) | Ltl::Release(a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
            }
            out.push(f);
        }
        collect(self, &mut subs);

        let succ = |j: usize| if j + 1 < len { j + 1 } else { loop_start };

        // Truth table: sat[formula index][position]. Computed in dependency
        // order; Until/Release need a fixpoint because the lasso loops.
        let mut sat: Vec<Vec<bool>> = vec![vec![false; len]; subs.len()];
        let index_of = |f: &Ltl<P>, subs: &[&Ltl<P>], upto: usize| -> usize {
            subs[..upto]
                .iter()
                .position(|g| *g == f)
                .expect("subformula appears before its parent")
        };
        for (i, f) in subs.iter().enumerate() {
            match f {
                Ltl::True => {
                    for j in 0..len {
                        sat[i][j] = true;
                    }
                }
                Ltl::False => {}
                Ltl::Prop(p) => {
                    for j in 0..len {
                        sat[i][j] = holds(j, p);
                    }
                }
                Ltl::Not(a) => {
                    let ia = index_of(a, &subs, i);
                    for j in 0..len {
                        sat[i][j] = !sat[ia][j];
                    }
                }
                Ltl::And(a, b) => {
                    let (ia, ib) = (index_of(a, &subs, i), index_of(b, &subs, i));
                    for j in 0..len {
                        sat[i][j] = sat[ia][j] && sat[ib][j];
                    }
                }
                Ltl::Or(a, b) => {
                    let (ia, ib) = (index_of(a, &subs, i), index_of(b, &subs, i));
                    for j in 0..len {
                        sat[i][j] = sat[ia][j] || sat[ib][j];
                    }
                }
                Ltl::Next(a) | Ltl::WeakNext(a) => {
                    let ia = index_of(a, &subs, i);
                    for j in 0..len {
                        sat[i][j] = sat[ia][succ(j)];
                    }
                }
                Ltl::Until(a, b) => {
                    let (ia, ib) = (index_of(a, &subs, i), index_of(b, &subs, i));
                    // Least fixpoint of  U = b ∨ (a ∧ X U).
                    for _ in 0..=len {
                        for j in (0..len).rev() {
                            sat[i][j] = sat[ib][j] || (sat[ia][j] && sat[i][succ(j)]);
                        }
                    }
                }
                Ltl::Release(a, b) => {
                    let (ia, ib) = (index_of(a, &subs, i), index_of(b, &subs, i));
                    // Greatest fixpoint of  R = b ∧ (a ∨ X R).
                    for j in 0..len {
                        sat[i][j] = true;
                    }
                    for _ in 0..=len {
                        for j in (0..len).rev() {
                            sat[i][j] = sat[ib][j] && (sat[ia][j] || sat[i][succ(j)]);
                        }
                    }
                }
            }
        }
        sat[subs.len() - 1][0]
    }
}

impl<P: fmt::Display> fmt::Display for Ltl<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ltl::True => write!(f, "true"),
            Ltl::False => write!(f, "false"),
            Ltl::Prop(p) => write!(f, "{p}"),
            Ltl::Not(a) => write!(f, "!({a})"),
            Ltl::And(a, b) => write!(f, "({a} & {b})"),
            Ltl::Or(a, b) => write!(f, "({a} | {b})"),
            Ltl::Next(a) => write!(f, "X({a})"),
            Ltl::WeakNext(a) => write!(f, "WX({a})"),
            Ltl::Until(a, b) => write!(f, "({a} U {b})"),
            Ltl::Release(a, b) => write!(f, "({a} R {b})"),
        }
    }
}

impl<P: fmt::Debug> fmt::Debug for Ltl<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ltl::True => write!(f, "true"),
            Ltl::False => write!(f, "false"),
            Ltl::Prop(p) => write!(f, "{p:?}"),
            Ltl::Not(a) => write!(f, "!({a:?})"),
            Ltl::And(a, b) => write!(f, "({a:?} & {b:?})"),
            Ltl::Or(a, b) => write!(f, "({a:?} | {b:?})"),
            Ltl::Next(a) => write!(f, "X({a:?})"),
            Ltl::WeakNext(a) => write!(f, "WX({a:?})"),
            Ltl::Until(a, b) => write!(f, "({a:?} U {b:?})"),
            Ltl::Release(a, b) => write!(f, "({a:?} R {b:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type L = Ltl<char>;

    fn p(c: char) -> L {
        Ltl::prop(c)
    }

    /// Helper: trace as a slice of strings of true propositions.
    fn trace_holds<'a>(trace: &'a [&'a str]) -> impl Fn(usize, &char) -> bool + 'a {
        move |j, c| trace[j].contains(*c)
    }

    #[test]
    fn nnf_pushes_negations_to_propositions() {
        let f = p('a').until(p('b')).not();
        let nnf = f.nnf();
        // ¬(a U b) = ¬a R ¬b
        assert_eq!(nnf, p('a').not().release(p('b').not()));
        // ¬X becomes a weak next so that finite-trace semantics is preserved.
        let g = p('a').and(p('b').next()).not().nnf();
        assert_eq!(g, p('a').not().or(p('b').not().weak_next()));
    }

    #[test]
    fn nnf_preserves_finite_semantics() {
        let f = p('a').until(p('b')).not().or(p('c').globally().not());
        let trace = ["a", "ab", "c"];
        assert_eq!(
            f.eval_finite(3, &trace_holds(&trace)),
            f.nnf().eval_finite(3, &trace_holds(&trace))
        );
    }

    #[test]
    fn finite_semantics_basic_operators() {
        let trace = ["a", "b", "c"];
        let h = trace_holds(&trace);
        assert!(p('a').eval_finite(3, &h));
        assert!(!p('b').eval_finite(3, &h));
        assert!(p('b').next().eval_finite(3, &h));
        assert!(p('a').until(p('b')).eval_finite(3, &h));
        assert!(!p('a').until(p('c')).eval_finite(3, &h));
        assert!(!p('a').until(p('d')).eval_finite(3, &h));
        assert!(p('c').eventually().eval_finite(3, &h));
        assert!(!p('a').globally().eval_finite(3, &h));
        assert!(Ltl::<char>::True.globally().eval_finite(3, &h));
    }

    #[test]
    fn finite_next_fails_at_last_position() {
        let trace = ["a"];
        let h = trace_holds(&trace);
        assert!(!p('a').next().eval_finite(1, &h));
        assert!(!Ltl::<char>::True.next().eval_finite(1, &h));
        // but "not X true" holds at the last position
        assert!(Ltl::<char>::True.next().not().eval_finite(1, &h));
    }

    #[test]
    fn lasso_semantics_globally_and_eventually() {
        // trace: a, then (b)^ω
        let trace = ["a", "b"];
        let h = trace_holds(&trace);
        assert!(p('b').eventually().eval_lasso(2, 1, &h));
        assert!(!p('a').globally().eval_lasso(2, 1, &h));
        assert!(p('b').globally().eventually().eval_lasso(2, 1, &h)); // FG b
        assert!(p('b').eventually().globally().eval_lasso(2, 1, &h)); // GF b
        assert!(!p('a').eventually().globally().eval_lasso(2, 1, &h)); // GF a fails
    }

    #[test]
    fn lasso_until_requires_goal_inside_loop() {
        // (a)(a)^ω : a U b must fail, a U a holds.
        let trace = ["a", "a"];
        let h = trace_holds(&trace);
        assert!(!p('a').until(p('b')).eval_lasso(2, 1, &h));
        assert!(p('a').until(p('a')).eval_lasso(2, 1, &h));
        // G a holds on the lasso even though it fails on the finite prefix
        // read with finite semantics of length 2? (it holds there too), but
        // F G b must fail.
        assert!(p('a').globally().eval_lasso(2, 1, &h));
        assert!(!p('b').globally().eventually().eval_lasso(2, 1, &h));
    }

    #[test]
    fn lasso_release_greatest_fixpoint() {
        // (b)^ω satisfies a R b (b always holds).
        let trace = ["b"];
        let h = trace_holds(&trace);
        assert!(p('a').release(p('b')).eval_lasso(1, 0, &h));
        // (ab)(b)^ω satisfies a R b as well; ('a' releases at position 0).
        let trace2 = ["ab", ""];
        let h2 = trace_holds(&trace2);
        assert!(p('a').release(p('b')).eval_lasso(2, 1, &h2));
        // ("")^ω does not.
        let trace3 = [""];
        let h3 = trace_holds(&trace3);
        assert!(!p('a').release(p('b')).eval_lasso(1, 0, &h3));
    }

    #[test]
    fn propositions_and_size() {
        let f = p('a').until(p('b')).and(p('c').next());
        assert_eq!(f.propositions().len(), 3);
        assert_eq!(f.size(), 6);
        let mapped = f.map_props(&|c| (*c as u8) as usize);
        assert_eq!(mapped.propositions().len(), 3);
    }

    #[test]
    fn smart_constructors_simplify_units() {
        assert_eq!(Ltl::<char>::True.and(p('a')), p('a'));
        assert_eq!(Ltl::<char>::False.or(p('a')), p('a'));
        assert_eq!(Ltl::<char>::False.and(p('a')), Ltl::False);
        assert_eq!(p('a').not().not(), p('a'));
    }
}
