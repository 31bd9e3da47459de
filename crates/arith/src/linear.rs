//! Linear expressions and constraints over an arbitrary variable type.
//!
//! A [`LinExpr`] is an affine combination `Σ cᵢ·xᵢ + c₀` of variables with
//! rational coefficients; a [`LinearConstraint`] compares such an expression
//! to zero with one of the relational operators of [`RelOp`]. Conditions in
//! HAS specifications use these as their arithmetic atoms (the paper's
//! polynomial inequalities, restricted to the linear case — see the crate
//! documentation for why this substitution is faithful).

use crate::rational::Rational;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::ops::{Add, Mul, Neg, Sub};

/// Relational operators usable in arithmetic atoms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RelOp {
    /// `< 0`
    Lt,
    /// `≤ 0`
    Le,
    /// `= 0`
    Eq,
    /// `≠ 0`
    Ne,
    /// `> 0`
    Gt,
    /// `≥ 0`
    Ge,
}

impl RelOp {
    /// The operator obtained by logical negation (`¬(e < 0)` is `e ≥ 0`, …).
    pub fn negate(self) -> RelOp {
        match self {
            RelOp::Lt => RelOp::Ge,
            RelOp::Le => RelOp::Gt,
            RelOp::Eq => RelOp::Ne,
            RelOp::Ne => RelOp::Eq,
            RelOp::Gt => RelOp::Le,
            RelOp::Ge => RelOp::Lt,
        }
    }

    /// The operator with its arguments flipped (`e < 0` becomes `-e > 0`).
    pub fn flip(self) -> RelOp {
        match self {
            RelOp::Lt => RelOp::Gt,
            RelOp::Le => RelOp::Ge,
            RelOp::Gt => RelOp::Lt,
            RelOp::Ge => RelOp::Le,
            RelOp::Eq => RelOp::Eq,
            RelOp::Ne => RelOp::Ne,
        }
    }

    /// Evaluates the operator against a concrete value compared to zero.
    pub fn holds(self, value: Rational) -> bool {
        match self {
            RelOp::Lt => value.is_negative(),
            RelOp::Le => !value.is_positive(),
            RelOp::Eq => value.is_zero(),
            RelOp::Ne => !value.is_zero(),
            RelOp::Gt => value.is_positive(),
            RelOp::Ge => !value.is_negative(),
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RelOp::Lt => "<",
            RelOp::Le => "<=",
            RelOp::Eq => "=",
            RelOp::Ne => "!=",
            RelOp::Gt => ">",
            RelOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A linear (affine) expression `Σ cᵢ·xᵢ + constant` with rational
/// coefficients over variables of type `V`.
///
/// Zero coefficients are never stored, so structural equality coincides with
/// mathematical equality of affine functions.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinExpr<V: Ord> {
    coeffs: BTreeMap<V, Rational>,
    constant: Rational,
}

impl<V: Ord + Clone> Default for LinExpr<V> {
    fn default() -> Self {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: Rational::ZERO,
        }
    }
}

impl<V: Ord + Clone> LinExpr<V> {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(c: Rational) -> Self {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single variable with coefficient 1.
    pub fn var(v: V) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, Rational::ONE);
        LinExpr {
            coeffs,
            constant: Rational::ZERO,
        }
    }

    /// The expression `c · v`.
    pub fn term(c: Rational, v: V) -> Self {
        let mut e = Self::zero();
        e.add_term(c, v);
        e
    }

    /// Adds `c · v` to the expression in place.
    pub fn add_term(&mut self, c: Rational, v: V) {
        if c.is_zero() {
            return;
        }
        let entry = self.coeffs.entry(v).or_insert(Rational::ZERO);
        *entry += c;
        if entry.is_zero() {
            // Re-borrow immutably to find the key to remove; avoid clone of V
            // by collecting zero-coefficient keys lazily (only one possible).
            let key = self
                .coeffs
                .iter()
                .find(|(_, c)| c.is_zero())
                .map(|(k, _)| k.clone());
            if let Some(k) = key {
                self.coeffs.remove(&k);
            }
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> Rational {
        self.constant
    }

    /// Coefficient of a variable (zero if absent).
    pub fn coeff(&self, v: &V) -> Rational {
        self.coeffs.get(v).copied().unwrap_or(Rational::ZERO)
    }

    /// Iterator over `(variable, coefficient)` pairs with non-zero
    /// coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (&V, &Rational)> {
        self.coeffs.iter()
    }

    /// The set of variables with non-zero coefficients.
    pub fn variables(&self) -> impl Iterator<Item = &V> {
        self.coeffs.keys()
    }

    /// Returns `true` if the expression mentions no variable.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Returns `true` if the expression is syntactically zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty() && self.constant.is_zero()
    }

    /// Multiplies the expression by a rational scalar.
    pub fn scale(&self, c: Rational) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .map(|(v, k)| (v.clone(), *k * c))
                .collect(),
            constant: self.constant * c,
        }
    }

    /// Evaluates the expression under a valuation of its variables.
    ///
    /// Returns `None` if some variable is not assigned by `valuation`.
    pub fn eval<F>(&self, mut valuation: F) -> Option<Rational>
    where
        F: FnMut(&V) -> Option<Rational>,
    {
        let mut acc = self.constant;
        for (v, c) in &self.coeffs {
            acc += *c * valuation(v)?;
        }
        Some(acc)
    }

    /// Substitutes variable `v` by the expression `e` (used when eliminating
    /// equalities in Fourier–Motzkin).
    pub fn substitute(&self, v: &V, e: &LinExpr<V>) -> Self {
        let c = self.coeff(v);
        if c.is_zero() {
            return self.clone();
        }
        let mut out = self.clone();
        out.coeffs.remove(v);
        out + e.scale(c)
    }

    /// Renames every variable through `f`, combining coefficients when two
    /// variables map to the same target.
    pub fn rename<W: Ord + Clone, F>(&self, mut f: F) -> LinExpr<W>
    where
        F: FnMut(&V) -> W,
    {
        let mut out = LinExpr::constant(self.constant);
        for (v, c) in &self.coeffs {
            out.add_term(*c, f(v));
        }
        out
    }

    /// Normalizes the expression so that the leading (smallest-variable)
    /// coefficient is ±1, or the constant is in {−1, 0, 1} for constant
    /// expressions. Two expressions defining the same hyperplane (up to a
    /// positive scalar) normalize to the same representative; this keeps the
    /// polynomial sets of the cell decomposition small.
    pub fn normalized(&self) -> Self {
        let scale = if let Some((_, c)) = self.coeffs.iter().next() {
            c.abs()
        } else if !self.constant.is_zero() {
            self.constant.abs()
        } else {
            return self.clone();
        };
        self.scale(scale.recip())
    }
}

impl<V: Ord + Clone> Add for LinExpr<V> {
    type Output = LinExpr<V>;
    fn add(self, rhs: LinExpr<V>) -> LinExpr<V> {
        let mut out = self;
        for (v, c) in rhs.coeffs {
            out.add_term(c, v);
        }
        out.constant += rhs.constant;
        out
    }
}

impl<V: Ord + Clone> Sub for LinExpr<V> {
    type Output = LinExpr<V>;
    // Subtraction genuinely is addition of the negation here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: LinExpr<V>) -> LinExpr<V> {
        self + rhs.neg()
    }
}

impl<V: Ord + Clone> Neg for LinExpr<V> {
    type Output = LinExpr<V>;
    fn neg(self) -> LinExpr<V> {
        self.scale(-Rational::ONE)
    }
}

impl<V: Ord + Clone> Mul<Rational> for LinExpr<V> {
    type Output = LinExpr<V>;
    fn mul(self, rhs: Rational) -> LinExpr<V> {
        self.scale(rhs)
    }
}

impl<V: Ord + fmt::Display> fmt::Display for LinExpr<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.coeffs {
            if first {
                write!(f, "{c}*{v}")?;
                first = false;
            } else if c.is_negative() {
                write!(f, " - {}*{v}", c.abs())?;
            } else {
                write!(f, " + {c}*{v}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if !self.constant.is_zero() {
            if self.constant.is_negative() {
                write!(f, " - {}", self.constant.abs())?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

impl<V: Ord + fmt::Debug> fmt::Debug for LinExpr<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LinExpr({:?} + {:?})", self.coeffs, self.constant)
    }
}

/// A linear constraint `expr op 0`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinearConstraint<V: Ord> {
    /// Left-hand side compared against zero.
    pub expr: LinExpr<V>,
    /// Relational operator.
    pub op: RelOp,
}

impl<V: Ord + Clone> LinearConstraint<V> {
    /// Creates a constraint `expr op 0`.
    pub fn new(expr: LinExpr<V>, op: RelOp) -> Self {
        LinearConstraint { expr, op }
    }

    /// Creates a constraint `lhs op rhs`.
    pub fn compare(lhs: LinExpr<V>, op: RelOp, rhs: LinExpr<V>) -> Self {
        LinearConstraint {
            expr: lhs - rhs,
            op,
        }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: LinExpr<V>, rhs: LinExpr<V>) -> Self {
        Self::compare(lhs, RelOp::Eq, rhs)
    }

    /// `lhs ≤ rhs`.
    pub fn le(lhs: LinExpr<V>, rhs: LinExpr<V>) -> Self {
        Self::compare(lhs, RelOp::Le, rhs)
    }

    /// `lhs < rhs`.
    pub fn lt(lhs: LinExpr<V>, rhs: LinExpr<V>) -> Self {
        Self::compare(lhs, RelOp::Lt, rhs)
    }

    /// `lhs ≥ rhs`.
    pub fn ge(lhs: LinExpr<V>, rhs: LinExpr<V>) -> Self {
        Self::compare(lhs, RelOp::Ge, rhs)
    }

    /// `lhs > rhs`.
    pub fn gt(lhs: LinExpr<V>, rhs: LinExpr<V>) -> Self {
        Self::compare(lhs, RelOp::Gt, rhs)
    }

    /// `lhs ≠ rhs`.
    pub fn ne(lhs: LinExpr<V>, rhs: LinExpr<V>) -> Self {
        Self::compare(lhs, RelOp::Ne, rhs)
    }

    /// The logically negated constraint.
    pub fn negate(&self) -> Self {
        LinearConstraint {
            expr: self.expr.clone(),
            op: self.op.negate(),
        }
    }

    /// Evaluates the constraint under a valuation.
    ///
    /// Returns `None` if some variable is unassigned.
    pub fn eval<F>(&self, valuation: F) -> Option<bool>
    where
        F: FnMut(&V) -> Option<Rational>,
    {
        Some(self.op.holds(self.expr.eval(valuation)?))
    }

    /// Variables mentioned by the constraint.
    pub fn variables(&self) -> impl Iterator<Item = &V> {
        self.expr.variables()
    }

    /// Returns `true` if the constraint mentions no variable and is trivially
    /// true, `false` if trivially false, `None` if it has variables.
    pub fn constant_truth(&self) -> Option<bool> {
        if self.expr.is_constant() {
            Some(self.op.holds(self.expr.constant_term()))
        } else {
            None
        }
    }
}

impl<V: Ord + fmt::Display> fmt::Display for LinearConstraint<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} 0", self.expr, self.op)
    }
}

impl<V: Ord + fmt::Debug> fmt::Debug for LinearConstraint<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} {} 0", self.expr, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn building_and_coefficients() {
        let mut e: LinExpr<&'static str> = LinExpr::zero();
        e.add_term(r(2), "x");
        e.add_term(r(3), "y");
        e.add_term(r(-2), "x");
        let e = e + LinExpr::constant(r(5));
        assert_eq!(e.coeff(&"x"), Rational::ZERO);
        assert_eq!(e.coeff(&"y"), r(3));
        assert_eq!(e.constant_term(), r(5));
        assert_eq!(e.variables().count(), 1);
    }

    #[test]
    fn addition_and_scaling() {
        let a = LinExpr::var("x") + LinExpr::constant(r(1));
        let b = LinExpr::term(r(2), "x") + LinExpr::var("y");
        let s = a.clone() + b;
        assert_eq!(s.coeff(&"x"), r(3));
        assert_eq!(s.coeff(&"y"), r(1));
        assert_eq!(s.constant_term(), r(1));
        let scaled = a.scale(r(-2));
        assert_eq!(scaled.coeff(&"x"), r(-2));
        assert_eq!(scaled.constant_term(), r(-2));
    }

    #[test]
    fn evaluation() {
        let e = LinExpr::term(r(2), "x") + LinExpr::term(r(-1), "y") + LinExpr::constant(r(3));
        let val = e
            .eval(|v| match *v {
                "x" => Some(r(4)),
                "y" => Some(r(1)),
                _ => None,
            })
            .unwrap();
        assert_eq!(val, r(10));
        assert!(e.eval(|_| None).is_none());
    }

    #[test]
    fn substitution_replaces_variable() {
        // x + 2y, substitute y := x + 1  =>  3x + 2
        let e = LinExpr::var("x") + LinExpr::term(r(2), "y");
        let sub = LinExpr::var("x") + LinExpr::constant(r(1));
        let out = e.substitute(&"y", &sub);
        assert_eq!(out.coeff(&"x"), r(3));
        assert_eq!(out.coeff(&"y"), Rational::ZERO);
        assert_eq!(out.constant_term(), r(2));
    }

    #[test]
    fn constraint_evaluation_and_negation() {
        // 2x - 4 <= 0
        let c = LinearConstraint::le(LinExpr::term(r(2), "x"), LinExpr::constant(r(4)));
        assert_eq!(c.eval(|_| Some(r(1))), Some(true));
        assert_eq!(c.eval(|_| Some(r(3))), Some(false));
        let n = c.negate();
        assert_eq!(n.op, RelOp::Gt);
        assert_eq!(n.eval(|_| Some(r(3))), Some(true));
    }

    #[test]
    fn normalization_identifies_scaled_hyperplanes() {
        let a = (LinExpr::term(r(2), "x") + LinExpr::constant(r(4))).normalized();
        let b = (LinExpr::term(r(6), "x") + LinExpr::constant(r(12))).normalized();
        assert_eq!(a, b);
    }

    #[test]
    fn relop_holds_matrix() {
        assert!(RelOp::Lt.holds(r(-1)));
        assert!(!RelOp::Lt.holds(r(0)));
        assert!(RelOp::Le.holds(r(0)));
        assert!(RelOp::Eq.holds(r(0)));
        assert!(RelOp::Ne.holds(r(2)));
        assert!(RelOp::Gt.holds(r(5)));
        assert!(RelOp::Ge.holds(r(0)));
    }

    #[test]
    fn display_is_readable() {
        let c = LinearConstraint::lt(
            LinExpr::term(r(1), "x") + LinExpr::term(r(-2), "y"),
            LinExpr::constant(r(3)),
        );
        let s = format!("{c}");
        assert!(s.contains('<'));
        assert!(s.contains('x'));
    }
}
