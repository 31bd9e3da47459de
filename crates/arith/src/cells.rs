//! Sign conditions and cells.
//!
//! Section 5 of the paper partitions the space of numeric valuations into
//! *cells*: maximal sets of points that agree on the sign (`< 0`, `= 0`,
//! `> 0`) of every polynomial in a finite set `P`. A cell determines the
//! truth value of every arithmetic atom whose polynomial belongs to `P`, so
//! extending isomorphism types with a cell lets the symbolic verifier decide
//! arithmetic conditions without tracking concrete numeric values.
//!
//! In the linear fragment implemented here, a cell is a (possibly unbounded)
//! convex polyhedron carved out by strict/non-strict hyperplane constraints.
//! Non-empty cells are enumerated incrementally with Fourier–Motzkin
//! satisfiability checks, mirroring the naive enumeration procedure the paper
//! describes in Appendix D.2 (Theorem 63).

use crate::fm::{is_satisfiable, project_onto, sample_point};
use crate::linear::{LinExpr, LinearConstraint, RelOp};
use crate::rational::Rational;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// The sign of a polynomial inside a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// The polynomial is strictly negative on the cell.
    Neg,
    /// The polynomial is identically zero on the cell.
    Zero,
    /// The polynomial is strictly positive on the cell.
    Pos,
}

impl Sign {
    /// All three signs, in a fixed enumeration order.
    pub const ALL: [Sign; 3] = [Sign::Neg, Sign::Zero, Sign::Pos];

    /// The constraint `expr sign 0` corresponding to this sign.
    pub fn to_op(self) -> RelOp {
        match self {
            Sign::Neg => RelOp::Lt,
            Sign::Zero => RelOp::Eq,
            Sign::Pos => RelOp::Gt,
        }
    }

    /// The sign of a concrete rational value.
    pub fn of(value: Rational) -> Sign {
        match value.signum() {
            s if s < 0 => Sign::Neg,
            0 => Sign::Zero,
            _ => Sign::Pos,
        }
    }

    /// Whether a relational operator is satisfied by values of this sign.
    pub fn satisfies(self, op: RelOp) -> bool {
        matches!(
            (op, self),
            (RelOp::Lt, Sign::Neg)
                | (RelOp::Le, Sign::Neg | Sign::Zero)
                | (RelOp::Eq, Sign::Zero)
                | (RelOp::Ne, Sign::Neg | Sign::Pos)
                | (RelOp::Gt, Sign::Pos)
                | (RelOp::Ge, Sign::Pos | Sign::Zero)
        )
    }
}

/// A full sign condition: one sign per polynomial of the underlying set.
pub type SignCondition = Vec<Sign>;

/// Index of a cell within a [`CellSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub usize);

/// A single cell: a sign condition over a shared polynomial set.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cell<V: Ord> {
    polys: Arc<Vec<LinExpr<V>>>,
    signs: SignCondition,
}

impl<V: Ord + Clone + Hash> Cell<V> {
    /// Creates a cell from a polynomial set and a sign condition.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn new(polys: Arc<Vec<LinExpr<V>>>, signs: SignCondition) -> Self {
        assert_eq!(polys.len(), signs.len(), "one sign per polynomial");
        Cell { polys, signs }
    }

    /// The polynomials this cell is defined over.
    pub fn polynomials(&self) -> &[LinExpr<V>] {
        &self.polys
    }

    /// The sign condition of this cell.
    pub fn signs(&self) -> &[Sign] {
        &self.signs
    }

    /// The sign this cell assigns to a polynomial, if the polynomial (after
    /// normalization) belongs to the cell's defining set.
    pub fn sign_of(&self, poly: &LinExpr<V>) -> Option<Sign> {
        let norm = poly.normalized();
        let neg = poly.clone().scale(-Rational::ONE).normalized();
        for (p, s) in self.polys.iter().zip(&self.signs) {
            if *p == norm {
                return Some(*s);
            }
            if *p == neg {
                return Some(match *s {
                    Sign::Neg => Sign::Pos,
                    Sign::Zero => Sign::Zero,
                    Sign::Pos => Sign::Neg,
                });
            }
        }
        None
    }

    /// The conjunction of linear constraints defining the cell.
    pub fn constraints(&self) -> Vec<LinearConstraint<V>> {
        self.polys
            .iter()
            .zip(&self.signs)
            .map(|(p, s)| LinearConstraint::new(p.clone(), s.to_op()))
            .collect()
    }

    /// Decides whether an arithmetic atom holds throughout this cell, is
    /// false throughout this cell, or is not determined by the cell (its
    /// polynomial is outside the defining set and cuts the cell).
    pub fn decides(&self, constraint: &LinearConstraint<V>) -> Option<bool> {
        if let Some(sign) = self.sign_of(&constraint.expr) {
            // Scaling by the normalization factor (positive) preserves sign.
            return Some(sign.satisfies(constraint.op));
        }
        // Fall back to entailment checks on the defining constraints.
        let mut with_c = self.constraints();
        with_c.push(constraint.clone());
        let mut with_not_c = self.constraints();
        with_not_c.push(constraint.negate());
        match (is_satisfiable(&with_c), is_satisfiable(&with_not_c)) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            _ => None,
        }
    }

    /// A rational point inside the cell, if the cell is non-empty.
    pub fn witness(&self) -> Option<Vec<(V, Rational)>> {
        sample_point(&self.constraints())
    }

    /// Projects the cell onto the variables in `keep`: the result is the set
    /// of constraint systems (a disjunction) describing the shadow of this
    /// polyhedron, obtained by Fourier–Motzkin elimination — the linear
    /// counterpart of the paper's Tarski–Seidenberg projection step.
    pub fn project(&self, keep: &BTreeSet<V>) -> Vec<Vec<LinearConstraint<V>>> {
        project_onto(&self.constraints(), keep)
    }

    /// Checks compatibility of two cells on a set of shared variables: their
    /// projections onto `shared` intersect. This is the test used when
    /// opening/closing a child task (Section 5).
    pub fn compatible_on(&self, other: &Cell<V>, shared: &BTreeSet<V>) -> bool {
        let mine = self.project(shared);
        let theirs = other.project(shared);
        for a in &mine {
            for b in &theirs {
                let mut all = a.clone();
                all.extend(b.iter().cloned());
                if is_satisfiable(&all) {
                    return true;
                }
            }
        }
        false
    }

    /// Checks that this cell *refines* `other` on the shared variables: every
    /// point of this cell's projection lies inside `other`'s projection.
    /// This is the condition imposed on internal-service transitions
    /// (case (i) in Section 5).
    pub fn refines_on(&self, other: &Cell<V>, shared: &BTreeSet<V>) -> bool {
        let mine = self.project(shared);
        let theirs = other.project(shared);
        // refinement: mine ⊆ union(theirs). For cells of a common
        // decomposition the union is a single convex piece, so we check each
        // of `mine`'s pieces is contained in some piece of `theirs` by
        // verifying mine ∧ ¬constraint is unsatisfiable for each defining
        // constraint of the candidate piece.
        'outer: for a in &mine {
            for b in &theirs {
                let mut contained = true;
                for c in b {
                    let mut sys = a.clone();
                    sys.push(c.negate());
                    if is_satisfiable(&sys) {
                        contained = false;
                        break;
                    }
                }
                if contained {
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }
}

impl<V: Ord + fmt::Display> fmt::Display for Cell<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cell[")?;
        for (i, (p, s)) in self.polys.iter().zip(&self.signs).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p} {} 0", s.to_op())?;
        }
        write!(f, "]")
    }
}

impl<V: Ord> fmt::Debug for Cell<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cell({} polynomials, signs {:?})",
            self.polys.len(),
            self.signs
        )
    }
}

/// The set of all non-empty cells over a fixed polynomial set.
#[derive(Clone)]
pub struct CellSet<V: Ord> {
    polys: Arc<Vec<LinExpr<V>>>,
    cells: Vec<SignCondition>,
}

impl<V: Ord + Clone + Hash> CellSet<V> {
    /// Enumerates all non-empty cells over the given polynomials.
    ///
    /// Polynomials are normalized and deduplicated first (two polynomials
    /// that are positive multiples of each other induce the same sign
    /// pattern). Enumeration is incremental: partial sign conditions that are
    /// already unsatisfiable are pruned, which keeps the cost proportional to
    /// the number of non-empty cells rather than `3^|P|` — the practical
    /// counterpart of the cell bound of Theorem 62.
    pub fn enumerate(polynomials: &[LinExpr<V>]) -> Self {
        let mut polys: Vec<LinExpr<V>> = Vec::new();
        for p in polynomials {
            if p.is_constant() {
                continue;
            }
            let n = p.normalized();
            let neg = p.clone().scale(-Rational::ONE).normalized();
            if !polys.contains(&n) && !polys.contains(&neg) {
                polys.push(n);
            }
        }
        let polys = Arc::new(polys);

        let mut partials: Vec<(SignCondition, Vec<LinearConstraint<V>>)> =
            vec![(Vec::new(), Vec::new())];
        for p in polys.iter() {
            let mut next = Vec::new();
            for (signs, constraints) in &partials {
                for s in Sign::ALL {
                    let mut cs = constraints.clone();
                    cs.push(LinearConstraint::new(p.clone(), s.to_op()));
                    if is_satisfiable(&cs) {
                        let mut sg = signs.clone();
                        sg.push(s);
                        next.push((sg, cs));
                    }
                }
            }
            partials = next;
        }
        CellSet {
            polys,
            cells: partials.into_iter().map(|(s, _)| s).collect(),
        }
    }

    /// The defining polynomial set (normalized, deduplicated).
    pub fn polynomials(&self) -> &[LinExpr<V>] {
        &self.polys
    }

    /// Number of non-empty cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if there are no cells (only possible when there are no
    /// polynomials — in which case there is exactly one trivial cell, so this
    /// is in fact never `true`; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell with the given id.
    pub fn cell(&self, id: CellId) -> Cell<V> {
        Cell::new(self.polys.clone(), self.cells[id.0].clone())
    }

    /// Iterates over all `(id, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, Cell<V>)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, s)| (CellId(i), Cell::new(self.polys.clone(), s.clone())))
    }
}

impl<V: Ord> fmt::Debug for CellSet<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CellSet({} polynomials, {} cells)",
            self.polys.len(),
            self.cells.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }
    fn x() -> LinExpr<&'static str> {
        LinExpr::var("x")
    }
    fn y() -> LinExpr<&'static str> {
        LinExpr::var("y")
    }

    #[test]
    fn single_polynomial_gives_three_cells() {
        let cs = CellSet::enumerate(&[x()]);
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn two_parallel_hyperplanes_give_five_cells() {
        // x and x - 1: regions x<0, x=0, 0<x<1, x=1, x>1.
        let p2 = x() - LinExpr::constant(r(1));
        let cs = CellSet::enumerate(&[x(), p2]);
        assert_eq!(cs.len(), 5);
    }

    #[test]
    fn duplicate_and_negated_polynomials_are_merged() {
        let cs = CellSet::enumerate(&[x(), x().scale(r(3)), x().scale(r(-2))]);
        assert_eq!(cs.polynomials().len(), 1);
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn two_independent_variables_give_nine_cells() {
        let cs = CellSet::enumerate(&[x(), y()]);
        assert_eq!(cs.len(), 9);
    }

    #[test]
    fn cells_decide_atoms_over_their_polynomials() {
        let cs = CellSet::enumerate(&[x() - LinExpr::constant(r(3))]);
        // Cell with x - 3 > 0 must decide x > 3 as true and x <= 3 as false.
        let (_, cell) = cs.iter().find(|(_, c)| c.signs()[0] == Sign::Pos).unwrap();
        let gt = LinearConstraint::gt(x(), LinExpr::constant(r(3)));
        let le = LinearConstraint::le(x(), LinExpr::constant(r(3)));
        assert_eq!(cell.decides(&gt), Some(true));
        assert_eq!(cell.decides(&le), Some(false));
        // An atom on an unrelated hyperplane that cuts the cell is undecided.
        let cut = LinearConstraint::gt(x(), LinExpr::constant(r(10)));
        assert_eq!(cell.decides(&cut), None);
    }

    #[test]
    fn witness_lies_in_cell() {
        let cs = CellSet::enumerate(&[x(), y() - x()]);
        for (_, cell) in cs.iter() {
            let w = cell.witness().expect("non-empty cell has a witness");
            let get = |v: &&str| w.iter().find(|(n, _)| n == v).map(|(_, r)| *r);
            for c in cell.constraints() {
                assert_eq!(c.eval(|v| get(v).or(Some(Rational::ZERO))), Some(true));
            }
        }
    }

    #[test]
    fn projection_and_compatibility() {
        // Cell A: x > 0, y > 0. Cell B over the same polys: x > 0, y < 0.
        let cs = CellSet::enumerate(&[x(), y()]);
        let pick = |sx: Sign, sy: Sign| {
            cs.iter()
                .find(|(_, c)| c.signs() == [sx, sy])
                .map(|(_, c)| c)
                .unwrap()
        };
        let a = pick(Sign::Pos, Sign::Pos);
        let b = pick(Sign::Pos, Sign::Neg);
        let c = pick(Sign::Neg, Sign::Neg);
        let shared: BTreeSet<_> = ["x"].into_iter().collect();
        assert!(a.compatible_on(&b, &shared));
        assert!(!a.compatible_on(&c, &shared));
        assert!(a.refines_on(&b, &shared));
        assert!(!a.refines_on(&c, &shared));
    }

    #[test]
    fn no_polynomials_single_trivial_cell() {
        let cs = CellSet::enumerate(&[] as &[LinExpr<&'static str>]);
        assert_eq!(cs.len(), 1);
        assert!(cs.cell(CellId(0)).witness().is_some());
    }
}
