//! Exact linear programming over the rationals.
//!
//! A small dense-tableau simplex solver for programs over **non-negative**
//! variables, with exact [`Rational`] arithmetic throughout. It complements
//! the Fourier–Motzkin engine of [`crate::fm`]: elimination is the right tool
//! for *projection* (removing quantified variables symbolically), but its
//! constraint count can grow doubly exponentially with the number of
//! eliminated variables, which makes it unusable as a feasibility oracle for
//! systems with hundreds of variables. The simplex method decides the same
//! feasibility questions (for non-strict constraints) in time polynomial in
//! practice, and additionally optimizes linear objectives.
//!
//! The primary consumer is the exact lasso decision procedure of `has-vass`
//! (circulation feasibility on coverability graphs — Lemma 21 of the paper);
//! the module is deliberately free-standing so future symbolic work can reuse
//! it.
//!
//! Implementation notes:
//!
//! * Phase I minimizes the sum of artificial variables to find a basic
//!   feasible point; Phase II maximizes the caller's objective.
//! * Both phases pivot under **Bland's rule** (smallest entering index,
//!   smallest leaving basis index among ratio ties), which excludes cycling,
//!   so termination is unconditional.
//! * Unbounded objectives are reported together with a feasible point whose
//!   objective value strictly exceeds the last vertex visited — callers that
//!   only need "can this objective be positive?" (support computations) can
//!   use that point directly as a witness.

use crate::rational::Rational;

/// Comparison direction of one [`LpProblem`] constraint row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpCmp {
    /// `Σ aᵢ·xᵢ ≤ b`
    Le,
    /// `Σ aᵢ·xᵢ = b`
    Eq,
    /// `Σ aᵢ·xᵢ ≥ b`
    Ge,
}

#[derive(Clone, Debug)]
struct LpRow {
    /// Dense coefficient vector of length `num_vars`.
    coeffs: Vec<Rational>,
    cmp: LpCmp,
    rhs: Rational,
}

/// A linear program `{ x ≥ 0 : A·x (≤|=|≥) b }` over variables `x_0 … x_{n-1}`.
///
/// All variables are implicitly non-negative (the natural domain for the flow
/// and multiplicity problems this solver serves); model a free variable as a
/// difference of two non-negative ones if needed.
#[derive(Clone, Debug)]
pub struct LpProblem {
    num_vars: usize,
    rows: Vec<LpRow>,
}

/// Result of [`LpProblem::maximize`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpOutcome {
    /// The constraint set is empty.
    Infeasible,
    /// A maximizer exists.
    Optimal {
        /// The optimal objective value.
        value: Rational,
        /// A point attaining it.
        point: Vec<Rational>,
    },
    /// The objective is unbounded above on the feasible set.
    Unbounded {
        /// A feasible point with objective value strictly greater than the
        /// best vertex found (one unit along the certifying ray).
        point: Vec<Rational>,
    },
}

impl LpProblem {
    /// Creates an empty program over `num_vars` non-negative variables.
    pub fn new(num_vars: usize) -> Self {
        LpProblem {
            num_vars,
            rows: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Adds the constraint `Σ coeffs·x (cmp) rhs`. Duplicate variable entries
    /// in `coeffs` are summed.
    ///
    /// # Panics
    /// Panics if a variable index is out of range.
    pub fn add_constraint(&mut self, coeffs: &[(usize, Rational)], cmp: LpCmp, rhs: Rational) {
        let mut dense = vec![Rational::ZERO; self.num_vars];
        for &(var, c) in coeffs {
            assert!(var < self.num_vars, "LP variable index out of range");
            dense[var] += c;
        }
        self.rows.push(LpRow {
            coeffs: dense,
            cmp,
            rhs,
        });
    }

    /// Returns a feasible point, if one exists.
    pub fn feasible_point(&self) -> Option<Vec<Rational>> {
        match self.maximize(&[]) {
            LpOutcome::Infeasible => None,
            LpOutcome::Optimal { point, .. } | LpOutcome::Unbounded { point } => Some(point),
        }
    }

    /// Returns `true` if the constraint set is non-empty.
    pub fn is_feasible(&self) -> bool {
        self.feasible_point().is_some()
    }

    /// Maximizes `Σ objective·x` over the feasible set (duplicate entries in
    /// `objective` are summed; an empty objective turns this into a pure
    /// feasibility check).
    pub fn maximize(&self, objective: &[(usize, Rational)]) -> LpOutcome {
        self.solve(Tableau::build(self), objective)
    }

    /// Runs both phases on `tableau`, built from this program.
    fn solve(&self, mut tableau: Tableau, objective: &[(usize, Rational)]) -> LpOutcome {
        if !tableau.phase1() {
            return LpOutcome::Infeasible;
        }
        let mut obj = vec![Rational::ZERO; self.num_vars];
        for &(var, c) in objective {
            assert!(var < self.num_vars, "LP objective index out of range");
            obj[var] += c;
        }
        tableau.phase2(&obj)
    }
}

/// Dense simplex tableau: `rows × (cols + 1)` where the final column is the
/// right-hand side and every row has a distinct basic column.
struct Tableau {
    rows: Vec<Vec<Rational>>,
    basis: Vec<usize>,
    /// Number of variable columns (decision + slack + artificial).
    cols: usize,
    /// Number of decision variables (columns `0..num_vars`).
    num_vars: usize,
    /// Columns `>= artificial_start` are Phase-I artificials.
    artificial_start: usize,
    /// Scratch for [`Tableau::pivot`]: the non-zero columns of the pivot row.
    support: Vec<usize>,
    /// Pivot with the dense reference instead (property tests only).
    #[cfg(test)]
    dense: bool,
}

impl Tableau {
    fn build(problem: &LpProblem) -> Tableau {
        let n = problem.num_vars;
        let m = problem.rows.len();
        // One slack per inequality row, one artificial per row that cannot
        // start basic (every Ge/Eq row, since rhs is normalized to be ≥ 0).
        let slacks = problem.rows.iter().filter(|r| r.cmp != LpCmp::Eq).count();
        let cols = n + slacks + m; // artificial slots are allocated lazily
        let artificial_start = n + slacks;
        let mut rows = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut next_slack = n;
        let mut next_artificial = artificial_start;
        for r in &problem.rows {
            let mut row = vec![Rational::ZERO; cols + 1];
            // Normalize so the right-hand side is non-negative.
            let flip = r.rhs.is_negative();
            let sign = if flip { -Rational::ONE } else { Rational::ONE };
            for (j, c) in r.coeffs.iter().enumerate() {
                row[j] = *c * sign;
            }
            row[cols] = r.rhs * sign;
            let cmp = match (r.cmp, flip) {
                (LpCmp::Eq, _) => LpCmp::Eq,
                (c, false) => c,
                (LpCmp::Le, true) => LpCmp::Ge,
                (LpCmp::Ge, true) => LpCmp::Le,
            };
            match cmp {
                LpCmp::Le => {
                    // coeffs·x + s = rhs with s ≥ 0: the slack starts basic.
                    row[next_slack] = Rational::ONE;
                    basis.push(next_slack);
                    next_slack += 1;
                }
                LpCmp::Ge => {
                    // coeffs·x - s = rhs: the surplus cannot start basic.
                    row[next_slack] = -Rational::ONE;
                    next_slack += 1;
                    row[next_artificial] = Rational::ONE;
                    basis.push(next_artificial);
                    next_artificial += 1;
                }
                LpCmp::Eq => {
                    row[next_artificial] = Rational::ONE;
                    basis.push(next_artificial);
                    next_artificial += 1;
                }
            }
            rows.push(row);
        }
        Tableau {
            rows,
            basis,
            cols,
            num_vars: n,
            artificial_start,
            support: Vec::new(),
            #[cfg(test)]
            dense: false,
        }
    }

    /// Bland ratio test: the row limiting growth of column `j`, or `None` if
    /// no row does (the column is a feasible unbounded direction).
    fn ratio_test(&self, j: usize) -> Option<usize> {
        let rhs = self.cols;
        let mut best: Option<(Rational, usize, usize)> = None; // (ratio, basis var, row)
        for (i, row) in self.rows.iter().enumerate() {
            if !row[j].is_positive() {
                continue;
            }
            let ratio = row[rhs] / row[j];
            let candidate = (ratio, self.basis[i], i);
            let better = match &best {
                None => true,
                Some((r, b, _)) => candidate.0 < *r || (candidate.0 == *r && candidate.1 < *b),
            };
            if better {
                best = Some(candidate);
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Makes column `j` basic in row `r`. The row update subtracts a
    /// multiple of the pivot row, so it reads and writes only the pivot
    /// row's non-zero columns: the tableaus of network-shaped programs are
    /// mostly zeros. Each entry it skips would be `x − 0·f = x`, so the
    /// result is entry for entry that of [`Tableau::pivot_dense`].
    fn pivot(&mut self, r: usize, j: usize) {
        #[cfg(test)]
        if self.dense {
            return self.pivot_dense(r, j);
        }
        let inv = self.rows[r][j].recip();
        let mut pivot_row = std::mem::take(&mut self.rows[r]);
        self.support.clear();
        for (k, v) in pivot_row.iter_mut().enumerate() {
            if !v.is_zero() {
                *v = *v * inv;
                self.support.push(k);
            }
        }
        for (i, row) in self.rows.iter_mut().enumerate() {
            let factor = if i == r { Rational::ZERO } else { row[j] };
            if factor.is_zero() {
                continue;
            }
            for &k in &self.support {
                row[k] = row[k] - pivot_row[k] * factor;
            }
        }
        self.rows[r] = pivot_row;
        self.basis[r] = j;
    }

    /// The textbook pivot over every column: the reference the property
    /// tests hold [`Tableau::pivot`] to.
    #[cfg(test)]
    fn pivot_dense(&mut self, r: usize, j: usize) {
        let inv = self.rows[r][j].recip();
        for v in &mut self.rows[r] {
            *v = *v * inv;
        }
        for i in 0..self.rows.len() {
            if i == r || self.rows[i][j].is_zero() {
                continue;
            }
            let factor = self.rows[i][j];
            for k in 0..=self.cols {
                let delta = self.rows[r][k] * factor;
                self.rows[i][k] = self.rows[i][k] - delta;
            }
        }
        self.basis[r] = j;
    }

    /// Minimizes the sum of artificial variables. Returns `true` if it
    /// reaches zero (the program is feasible); on success the artificials are
    /// driven out of the basis wherever possible.
    fn phase1(&mut self) -> bool {
        loop {
            // Reduced costs of the Phase-I objective: increasing a non-basic
            // column j lowers the artificial sum iff the column sums to a
            // positive value over the artificial-basic rows.
            let mut entering = None;
            'cols: for j in 0..self.artificial_start {
                let mut d = Rational::ZERO;
                for (i, row) in self.rows.iter().enumerate() {
                    if self.basis[i] >= self.artificial_start {
                        d += row[j];
                    }
                }
                if d.is_positive() {
                    entering = Some(j);
                    break 'cols;
                }
            }
            let Some(j) = entering else { break };
            // d > 0 implies some artificial-basic row has a positive entry in
            // column j, so the ratio test cannot fail.
            let r = self
                .ratio_test(j)
                .expect("phase-I ratio test has a candidate");
            self.pivot(r, j);
        }
        let infeasibility: Rational = self
            .rows
            .iter()
            .enumerate()
            .filter(|(i, _)| self.basis[*i] >= self.artificial_start)
            .map(|(_, row)| row[self.cols])
            .fold(Rational::ZERO, |a, b| a + b);
        if !infeasibility.is_zero() {
            return false;
        }
        // Degenerate artificials may linger in the basis at value zero; pivot
        // them out on any non-artificial column so Phase II never touches
        // them. A row with no such column is redundant and inert (all its
        // non-artificial entries are zero, so no later pivot can change it).
        for i in 0..self.rows.len() {
            if self.basis[i] < self.artificial_start {
                continue;
            }
            let j = (0..self.artificial_start).find(|&j| !self.rows[i][j].is_zero());
            if let Some(j) = j {
                self.pivot(i, j);
            }
        }
        true
    }

    /// Maximizes `obj·x` (decision variables only) from a feasible basis.
    fn phase2(&mut self, obj: &[Rational]) -> LpOutcome {
        loop {
            let mut entering = None;
            'cols: for j in 0..self.artificial_start {
                // Reduced cost c_j - c_B·B⁻¹A_j; basic columns come out zero.
                let mut r = if j < self.num_vars {
                    obj[j]
                } else {
                    Rational::ZERO
                };
                for (i, row) in self.rows.iter().enumerate() {
                    let b = self.basis[i];
                    if b < self.num_vars && !row[j].is_zero() {
                        r = r - obj[b] * row[j];
                    }
                }
                if r.is_positive() {
                    entering = Some(j);
                    break 'cols;
                }
            }
            let Some(j) = entering else {
                let point = self.solution();
                let value = dot(obj, &point);
                return LpOutcome::Optimal { value, point };
            };
            match self.ratio_test(j) {
                Some(r) => self.pivot(r, j),
                None => {
                    // Column j is a recession direction that improves the
                    // objective: step one unit along it from the current
                    // vertex. All entries in column j are ≤ 0, so the basic
                    // values only grow and the point stays feasible.
                    let mut point = self.solution();
                    if j < self.num_vars {
                        point[j] += Rational::ONE;
                    }
                    for (i, row) in self.rows.iter().enumerate() {
                        let b = self.basis[i];
                        if b < self.num_vars {
                            point[b] = point[b] - row[j];
                        }
                    }
                    return LpOutcome::Unbounded { point };
                }
            }
        }
    }

    /// The current basic solution restricted to the decision variables.
    fn solution(&self) -> Vec<Rational> {
        let mut x = vec![Rational::ZERO; self.num_vars];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.num_vars {
                x[b] = self.rows[i][self.cols];
            }
        }
        x
    }
}

fn dot(obj: &[Rational], x: &[Rational]) -> Rational {
    obj.iter()
        .zip(x)
        .fold(Rational::ZERO, |acc, (c, v)| acc + *c * *v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn empty_program_is_feasible() {
        let lp = LpProblem::new(3);
        let p = lp.feasible_point().unwrap();
        assert_eq!(p, vec![Rational::ZERO; 3]);
    }

    #[test]
    fn simple_band_is_feasible() {
        // 1 ≤ x ≤ 3
        let mut lp = LpProblem::new(1);
        lp.add_constraint(&[(0, r(1))], LpCmp::Ge, r(1));
        lp.add_constraint(&[(0, r(1))], LpCmp::Le, r(3));
        let p = lp.feasible_point().unwrap();
        assert!(p[0] >= r(1) && p[0] <= r(3));
    }

    #[test]
    fn contradiction_is_infeasible() {
        let mut lp = LpProblem::new(1);
        lp.add_constraint(&[(0, r(1))], LpCmp::Ge, r(3));
        lp.add_constraint(&[(0, r(1))], LpCmp::Le, r(1));
        assert!(!lp.is_feasible());
    }

    #[test]
    fn nonnegativity_is_implicit() {
        // x ≤ -1 contradicts x ≥ 0.
        let mut lp = LpProblem::new(1);
        lp.add_constraint(&[(0, r(1))], LpCmp::Le, r(-1));
        assert!(!lp.is_feasible());
    }

    #[test]
    fn equalities_are_respected() {
        // x + y = 4, x - y = 2  =>  x = 3, y = 1
        let mut lp = LpProblem::new(2);
        lp.add_constraint(&[(0, r(1)), (1, r(1))], LpCmp::Eq, r(4));
        lp.add_constraint(&[(0, r(1)), (1, r(-1))], LpCmp::Eq, r(2));
        let p = lp.feasible_point().unwrap();
        assert_eq!(p, vec![r(3), r(1)]);
    }

    #[test]
    fn bounded_maximization_finds_the_vertex() {
        // max x + y  s.t.  x + 2y ≤ 4, 3x + y ≤ 6
        let mut lp = LpProblem::new(2);
        lp.add_constraint(&[(0, r(1)), (1, r(2))], LpCmp::Le, r(4));
        lp.add_constraint(&[(0, r(3)), (1, r(1))], LpCmp::Le, r(6));
        match lp.maximize(&[(0, r(1)), (1, r(1))]) {
            LpOutcome::Optimal { value, point } => {
                assert_eq!(value, Rational::new(14, 5));
                assert_eq!(point, vec![Rational::new(8, 5), Rational::new(6, 5)]);
            }
            other => panic!("expected optimum, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_objective_reports_an_improving_point() {
        // max x  s.t.  x ≥ y, y ≥ 1
        let mut lp = LpProblem::new(2);
        lp.add_constraint(&[(0, r(1)), (1, r(-1))], LpCmp::Ge, r(0));
        lp.add_constraint(&[(1, r(1))], LpCmp::Ge, r(1));
        match lp.maximize(&[(0, r(1))]) {
            LpOutcome::Unbounded { point } => {
                assert!(point[0] >= point[1]);
                assert!(point[1] >= r(1));
            }
            other => panic!("expected unbounded, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_equalities_do_not_loop() {
        // x = 0, x + y = 0, y + z ≤ 0 forces everything to zero.
        let mut lp = LpProblem::new(3);
        lp.add_constraint(&[(0, r(1))], LpCmp::Eq, r(0));
        lp.add_constraint(&[(0, r(1)), (1, r(1))], LpCmp::Eq, r(0));
        lp.add_constraint(&[(1, r(1)), (2, r(1))], LpCmp::Le, r(0));
        let p = lp.feasible_point().unwrap();
        assert_eq!(p, vec![Rational::ZERO; 3]);
    }

    #[test]
    fn duplicate_entries_are_summed() {
        // (x + x) ≤ 4 is 2x ≤ 4.
        let mut lp = LpProblem::new(1);
        lp.add_constraint(&[(0, r(1)), (0, r(1))], LpCmp::Le, r(4));
        match lp.maximize(&[(0, r(1))]) {
            LpOutcome::Optimal { value, .. } => assert_eq!(value, r(2)),
            other => panic!("expected optimum, got {other:?}"),
        }
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // -x ≤ -2 is x ≥ 2.
        let mut lp = LpProblem::new(1);
        lp.add_constraint(&[(0, r(-1))], LpCmp::Le, r(-2));
        let p = lp.feasible_point().unwrap();
        assert!(p[0] >= r(2));
    }

    /// [`LpProblem::maximize`] with every pivot taken by
    /// [`Tableau::pivot_dense`].
    fn maximize_dense(lp: &LpProblem, objective: &[(usize, Rational)]) -> LpOutcome {
        let mut tableau = Tableau::build(lp);
        tableau.dense = true;
        lp.solve(tableau, objective)
    }

    /// Random programs shaped like `tests/prop_lp.rs`'s: small integer
    /// coefficients, every comparison, right-hand sides of either sign.
    fn arb_program() -> impl Strategy<Value = LpProblem> {
        (1usize..=4).prop_flat_map(|vars| {
            let row = (
                proptest::collection::vec(-3i64..=3, vars),
                prop_oneof![Just(LpCmp::Le), Just(LpCmp::Eq), Just(LpCmp::Ge)],
                -4i64..=4,
            );
            proptest::collection::vec(row, 1..7).prop_map(move |rows| {
                let mut lp = LpProblem::new(vars);
                for (coeffs, cmp, rhs) in rows {
                    let coeffs: Vec<(usize, Rational)> =
                        coeffs.iter().enumerate().map(|(j, &c)| (j, r(c))).collect();
                    lp.add_constraint(&coeffs, cmp, r(rhs));
                }
                lp
            })
        })
    }

    /// Circulation programs as the lasso decision builds them: one
    /// multiplicity per edge of a random multigraph, conservation at every
    /// node, a componentwise non-negative summed effect and one unit of flow
    /// out of node 0.
    fn arb_circulation() -> impl Strategy<Value = LpProblem> {
        (2usize..=5, 1usize..=3).prop_flat_map(|(nodes, dim)| {
            let edge = (
                0..nodes,
                0..nodes,
                proptest::collection::vec(-3i64..=3, dim),
            );
            proptest::collection::vec(edge, 1..10).prop_map(move |edges| {
                let mut lp = LpProblem::new(edges.len());
                for v in 0..nodes {
                    let mut coeffs = Vec::new();
                    for (p, (from, to, _)) in edges.iter().enumerate() {
                        if *to == v {
                            coeffs.push((p, Rational::ONE));
                        }
                        if *from == v {
                            coeffs.push((p, -Rational::ONE));
                        }
                    }
                    lp.add_constraint(&coeffs, LpCmp::Eq, Rational::ZERO);
                }
                for c in 0..dim {
                    let coeffs: Vec<(usize, Rational)> = edges
                        .iter()
                        .enumerate()
                        .map(|(p, (_, _, delta))| (p, r(delta[c])))
                        .collect();
                    lp.add_constraint(&coeffs, LpCmp::Ge, Rational::ZERO);
                }
                let outflow: Vec<(usize, Rational)> = edges
                    .iter()
                    .enumerate()
                    .filter(|(_, (from, _, _))| *from == 0)
                    .map(|(p, _)| (p, Rational::ONE))
                    .collect();
                lp.add_constraint(&outflow, LpCmp::Ge, Rational::ONE);
                lp
            })
        })
    }

    /// The empty objective (what [`LpProblem::feasible_point`] asks), a
    /// random one, and the all-ones objective of the support computation.
    fn assert_pivots_agree(lp: &LpProblem, weights: &[i64]) {
        let random: Vec<(usize, Rational)> = (0..lp.num_vars())
            .map(|j| (j, r(weights[j % weights.len()])))
            .collect();
        let ones: Vec<(usize, Rational)> = (0..lp.num_vars()).map(|j| (j, r(1))).collect();
        for objective in [&[][..], &random, &ones] {
            assert_eq!(
                lp.maximize(objective),
                maximize_dense(lp, objective),
                "objective {objective:?} on {lp:?}"
            );
        }
        let dense_point = match maximize_dense(lp, &[]) {
            LpOutcome::Infeasible => None,
            LpOutcome::Optimal { point, .. } | LpOutcome::Unbounded { point } => Some(point),
        };
        assert_eq!(lp.feasible_point(), dense_point);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn sparse_pivot_matches_dense_on_random_programs(
            lp in arb_program(),
            weights in proptest::collection::vec(-2i64..=2, 1..5),
        ) {
            assert_pivots_agree(&lp, &weights);
        }

        #[test]
        fn sparse_pivot_matches_dense_on_circulations(
            lp in arb_circulation(),
            weights in proptest::collection::vec(-2i64..=2, 1..5),
        ) {
            assert_pivots_agree(&lp, &weights);
        }
    }

    #[test]
    fn circulation_shaped_program() {
        // Two edge multiplicities on a 2-cycle with deltas +1 and -1:
        // conservation x = y, net effect x - y ≥ 0, at least one unit of flow.
        let mut lp = LpProblem::new(2);
        lp.add_constraint(&[(0, r(1)), (1, r(-1))], LpCmp::Eq, r(0));
        lp.add_constraint(&[(0, r(1)), (1, r(-1))], LpCmp::Ge, r(0));
        lp.add_constraint(&[(0, r(1))], LpCmp::Ge, r(1));
        let p = lp.feasible_point().unwrap();
        assert_eq!(p[0], p[1]);
        assert!(p[0] >= r(1));
    }
}
