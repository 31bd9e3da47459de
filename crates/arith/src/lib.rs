//! Arithmetic substrate for the Hierarchical Artifact System verifier.
//!
//! The paper (Section 5) handles arithmetic constraints over numeric artifact
//! variables by partitioning the space of numeric valuations into *cells* —
//! sign conditions over a finite set of polynomials — and notes that one may
//! equivalently restrict to **linear inequalities with integer coefficients
//! over the rationals** "with the same complexity results". This crate
//! implements exactly that alternative:
//!
//! * [`Rational`] — exact rational numbers on `i128` with overflow-checked
//!   normalization.
//! * [`LinExpr`] / [`LinearConstraint`] — linear expressions and (in)equality
//!   constraints over an arbitrary ordered variable type.
//! * [`fm`] — Fourier–Motzkin elimination: satisfiability over ℚ and
//!   existential projection (the quantifier-elimination step the paper obtains
//!   from Tarski–Seidenberg in the polynomial case).
//! * [`lp`] — exact simplex over the rationals: feasibility and optimization
//!   for programs over non-negative variables, sized for the hundreds of
//!   variables that circulation problems on coverability graphs produce
//!   (where Fourier–Motzkin elimination would blow up).
//! * [`cells`] — sign conditions, non-empty cell enumeration, refinement and
//!   projection of cells.
//! * [`hcd`] — the Hierarchical Cell Decomposition of Section 5 / Appendix D,
//!   computed bottom-up along a task hierarchy.
//!
//! # Worked example
//!
//! Decide satisfiability over ℚ with Fourier–Motzkin, then solve a small
//! feasibility program with the exact simplex (the engine behind the
//! circulation-based lasso queries of `has-vass`):
//!
//! ```
//! use has_arith::{is_satisfiable, LinExpr, LinearConstraint, LpCmp, LpProblem, Rational};
//!
//! // x < y together with x ≥ y is unsatisfiable; either half alone is fine.
//! let x = LinExpr::var("x");
//! let y = LinExpr::var("y");
//! let lt = LinearConstraint::lt(x.clone(), y.clone());
//! let ge = LinearConstraint::ge(x, y);
//! assert!(!is_satisfiable(&[lt.clone(), ge]));
//! assert!(is_satisfiable(&[lt]));
//!
//! // Simplex over non-negative variables: x₀ + x₁ = 1 and x₀ − x₁ ≥ 1
//! // admit exactly the point (1, 0).
//! let mut lp = LpProblem::new(2);
//! lp.add_constraint(&[(0, Rational::ONE), (1, Rational::ONE)], LpCmp::Eq, Rational::ONE);
//! lp.add_constraint(&[(0, Rational::ONE), (1, -Rational::ONE)], LpCmp::Ge, Rational::ONE);
//! assert_eq!(lp.feasible_point(), Some(vec![Rational::ONE, Rational::ZERO]));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cells;
pub mod fm;
pub mod hcd;
pub mod linear;
pub mod lp;
pub mod rational;

pub use cells::{Cell, CellId, CellSet, Sign, SignCondition};
pub use fm::{eliminate_variable, is_satisfiable, project_onto};
pub use hcd::{HcdBuilder, HierarchicalCellDecomposition, TaskCells};
pub use linear::{LinExpr, LinearConstraint, RelOp};
pub use lp::{LpCmp, LpOutcome, LpProblem};
pub use rational::Rational;
