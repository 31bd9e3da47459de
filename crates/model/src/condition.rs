//! Quantifier-free conditions over artifact variables (Section 2).
//!
//! A condition is a boolean combination of three kinds of atoms:
//!
//! * **equalities** between terms (ID variables, the special constant
//!   `null`, numeric variables, numeric constants);
//! * **relation atoms** `R(x, y₁..yₘ, z₁..zₙ)` binding artifact variables to
//!   a database tuple (`x` and the `zᵢ` are ID variables, the `yᵢ` numeric);
//!   per the paper, a relation atom with any `null` argument is false;
//! * **arithmetic atoms**: linear constraints over numeric variables (the
//!   paper's polynomial inequalities restricted to the linear fragment —
//!   see the `has-arith` crate documentation).
//!
//! Existential quantification is not part of the syntax; as the paper notes,
//! `∃FO` conditions are simulated by adding artifact variables.

use crate::ids::{RelationId, VarId};
use has_arith::{LinearConstraint, Rational};
use std::collections::BTreeSet;

/// A term usable in equality atoms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An artifact variable (ID or numeric).
    Var(VarId),
    /// The special constant `null` (only comparable with ID variables).
    Null,
    /// A numeric constant (only comparable with numeric variables).
    Const(Rational),
}

/// An atomic condition.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Atom {
    /// Equality of two terms.
    Eq(Term, Term),
    /// A relation atom `R(args...)`; `args.len()` must equal the arity of
    /// `relation`, and argument sorts must match attribute kinds.
    Relation {
        /// The database relation.
        relation: RelationId,
        /// One term per attribute, in schema attribute order (key first).
        args: Vec<Term>,
    },
    /// A linear arithmetic constraint over numeric variables.
    Arith(LinearConstraint<VarId>),
}

/// A quantifier-free condition: a boolean combination of atoms.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Condition {
    /// The always-true condition.
    True,
    /// The always-false condition.
    False,
    /// An atomic condition.
    Atom(Atom),
    /// Negation.
    Not(Box<Condition>),
    /// Conjunction (empty conjunction is true).
    And(Vec<Condition>),
    /// Disjunction (empty disjunction is false).
    Or(Vec<Condition>),
}

impl Condition {
    /// Convenience: equality of two variables.
    pub fn var_eq(a: VarId, b: VarId) -> Condition {
        Condition::Atom(Atom::Eq(Term::Var(a), Term::Var(b)))
    }

    /// Convenience: `x = null`.
    pub fn is_null(v: VarId) -> Condition {
        Condition::Atom(Atom::Eq(Term::Var(v), Term::Null))
    }

    /// Convenience: `x ≠ null`.
    pub fn not_null(v: VarId) -> Condition {
        Condition::Not(Box::new(Condition::is_null(v)))
    }

    /// Convenience: `x = c` for a numeric constant.
    pub fn eq_const(v: VarId, c: Rational) -> Condition {
        Condition::Atom(Atom::Eq(Term::Var(v), Term::Const(c)))
    }

    /// Convenience: a relation atom.
    pub fn relation(relation: RelationId, args: Vec<Term>) -> Condition {
        Condition::Atom(Atom::Relation { relation, args })
    }

    /// Convenience: an arithmetic atom.
    pub fn arith(c: LinearConstraint<VarId>) -> Condition {
        Condition::Atom(Atom::Arith(c))
    }

    /// Conjunction of two conditions, flattening nested conjunctions and
    /// dropping `True` units.
    pub fn and(self, other: Condition) -> Condition {
        match (self, other) {
            (Condition::True, c) | (c, Condition::True) => c,
            (Condition::False, _) | (_, Condition::False) => Condition::False,
            (Condition::And(mut a), Condition::And(b)) => {
                a.extend(b);
                Condition::And(a)
            }
            (Condition::And(mut a), c) => {
                a.push(c);
                Condition::And(a)
            }
            (c, Condition::And(mut b)) => {
                b.insert(0, c);
                Condition::And(b)
            }
            (a, b) => Condition::And(vec![a, b]),
        }
    }

    /// Disjunction of two conditions, flattening nested disjunctions and
    /// dropping `False` units.
    pub fn or(self, other: Condition) -> Condition {
        match (self, other) {
            (Condition::False, c) | (c, Condition::False) => c,
            (Condition::True, _) | (_, Condition::True) => Condition::True,
            (Condition::Or(mut a), Condition::Or(b)) => {
                a.extend(b);
                Condition::Or(a)
            }
            (Condition::Or(mut a), c) => {
                a.push(c);
                Condition::Or(a)
            }
            (c, Condition::Or(mut b)) => {
                b.insert(0, c);
                Condition::Or(b)
            }
            (a, b) => Condition::Or(vec![a, b]),
        }
    }

    /// Negation.
    pub fn negate(self) -> Condition {
        match self {
            Condition::True => Condition::False,
            Condition::False => Condition::True,
            Condition::Not(c) => *c,
            c => Condition::Not(Box::new(c)),
        }
    }

    /// Logical implication `self → other`.
    pub fn implies(self, other: Condition) -> Condition {
        self.negate().or(other)
    }

    /// Conjunction of an iterator of conditions.
    pub fn all<I: IntoIterator<Item = Condition>>(conds: I) -> Condition {
        conds.into_iter().fold(Condition::True, |acc, c| acc.and(c))
    }

    /// Disjunction of an iterator of conditions.
    pub fn any<I: IntoIterator<Item = Condition>>(conds: I) -> Condition {
        conds.into_iter().fold(Condition::False, |acc, c| acc.or(c))
    }

    /// The set of variables mentioned by the condition.
    pub fn variables(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Condition::True | Condition::False => {}
            Condition::Atom(a) => match a {
                Atom::Eq(s, t) => {
                    for term in [s, t] {
                        if let Term::Var(v) = term {
                            out.insert(*v);
                        }
                    }
                }
                Atom::Relation { args, .. } => {
                    for term in args {
                        if let Term::Var(v) = term {
                            out.insert(*v);
                        }
                    }
                }
                Atom::Arith(c) => {
                    out.extend(c.variables().copied());
                }
            },
            Condition::Not(c) => c.collect_variables(out),
            Condition::And(cs) | Condition::Or(cs) => {
                for c in cs {
                    c.collect_variables(out);
                }
            }
        }
    }

    /// The set of relations mentioned by the condition.
    pub fn relations(&self) -> BTreeSet<RelationId> {
        let mut out = BTreeSet::new();
        self.collect_relations(&mut out);
        out
    }

    fn collect_relations(&self, out: &mut BTreeSet<RelationId>) {
        match self {
            Condition::True | Condition::False => {}
            Condition::Atom(Atom::Relation { relation, .. }) => {
                out.insert(*relation);
            }
            Condition::Atom(_) => {}
            Condition::Not(c) => c.collect_relations(out),
            Condition::And(cs) | Condition::Or(cs) => {
                for c in cs {
                    c.collect_relations(out);
                }
            }
        }
    }

    /// The arithmetic atoms (linear constraints) appearing in the condition.
    pub fn arithmetic_atoms(&self) -> Vec<LinearConstraint<VarId>> {
        let mut out = Vec::new();
        self.collect_arith(&mut out);
        out
    }

    fn collect_arith(&self, out: &mut Vec<LinearConstraint<VarId>>) {
        match self {
            Condition::True | Condition::False => {}
            Condition::Atom(Atom::Arith(c)) => out.push(c.clone()),
            Condition::Atom(_) => {}
            Condition::Not(c) => c.collect_arith(out),
            Condition::And(cs) | Condition::Or(cs) => {
                for c in cs {
                    c.collect_arith(out);
                }
            }
        }
    }

    /// Evaluates the condition given truth values for its atoms.
    ///
    /// `eval_atom` returns the truth of an atom; the boolean structure is
    /// evaluated on top. This single entry point is shared by the concrete
    /// evaluator (`has-data`), the symbolic evaluator (`has-symbolic`) and
    /// the simulator, which supply different atom oracles.
    pub fn eval_with<F>(&self, eval_atom: &mut F) -> bool
    where
        F: FnMut(&Atom) -> bool,
    {
        match self {
            Condition::True => true,
            Condition::False => false,
            Condition::Atom(a) => eval_atom(a),
            Condition::Not(c) => !c.eval_with(eval_atom),
            Condition::And(cs) => cs.iter().all(|c| c.eval_with(eval_atom)),
            Condition::Or(cs) => cs.iter().any(|c| c.eval_with(eval_atom)),
        }
    }

    /// Collects all atoms of the condition.
    pub fn atoms(&self) -> Vec<Atom> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut Vec<Atom>) {
        match self {
            Condition::True | Condition::False => {}
            Condition::Atom(a) => out.push(a.clone()),
            Condition::Not(c) => c.collect_atoms(out),
            Condition::And(cs) | Condition::Or(cs) => {
                for c in cs {
                    c.collect_atoms(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_arith::LinExpr;

    fn v(i: usize) -> VarId {
        VarId(i)
    }

    #[test]
    fn and_or_flatten_and_absorb_units() {
        let a = Condition::var_eq(v(0), v(1));
        let b = Condition::is_null(v(2));
        assert_eq!(Condition::True.and(a.clone()), a);
        assert_eq!(Condition::False.and(a.clone()), Condition::False);
        assert_eq!(Condition::False.or(b.clone()), b);
        assert_eq!(Condition::True.or(b.clone()), Condition::True);
        let nested = a.clone().and(b.clone()).and(Condition::var_eq(v(3), v(4)));
        match nested {
            Condition::And(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn double_negation_cancels() {
        let a = Condition::is_null(v(0));
        assert_eq!(a.clone().negate().negate(), a);
        assert_eq!(Condition::True.negate(), Condition::False);
    }

    #[test]
    fn variable_collection_covers_all_atom_kinds() {
        let cond = Condition::var_eq(v(0), v(1))
            .and(Condition::relation(
                RelationId(0),
                vec![Term::Var(v(2)), Term::Const(Rational::ONE), Term::Var(v(3))],
            ))
            .and(Condition::arith(LinearConstraint::le(
                LinExpr::var(v(4)),
                LinExpr::constant(Rational::from_int(7)),
            )));
        let vars = cond.variables();
        assert_eq!(vars.len(), 5);
        assert!(vars.contains(&v(4)));
        assert_eq!(cond.relations().len(), 1);
        assert_eq!(cond.arithmetic_atoms().len(), 1);
        assert_eq!(cond.atoms().len(), 3);
    }

    #[test]
    fn eval_with_respects_boolean_structure() {
        let a = Condition::is_null(v(0));
        let b = Condition::is_null(v(1));
        let cond = a.clone().and(b.clone().negate()).or(Condition::False);
        // atom truth: v0 is null -> true, v1 is null -> false
        let result = cond.eval_with(&mut |atom: &Atom| match atom {
            Atom::Eq(Term::Var(VarId(0)), Term::Null) => true,
            Atom::Eq(Term::Var(VarId(1)), Term::Null) => false,
            _ => unreachable!(),
        });
        assert!(result);
    }

    #[test]
    fn implication_and_bulk_combinators() {
        let p = Condition::is_null(v(0));
        let q = Condition::is_null(v(1));
        let imp = p.clone().implies(q.clone());
        // p false makes the implication true regardless of q.
        assert!(imp.eval_with(&mut |_| false));
        assert_eq!(Condition::all(std::iter::empty()), Condition::True);
        assert_eq!(Condition::any(std::iter::empty()), Condition::False);
    }
}
