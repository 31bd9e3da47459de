//! Fourier–Motzkin elimination over the rationals.
//!
//! This is the quantifier-elimination engine of the arithmetic extension
//! (Section 5 of the paper). The paper relies on Tarski–Seidenberg quantifier
//! elimination for polynomial constraints; for the linear fragment we
//! implement here (which the paper states is sufficient, with the same
//! complexity results), Fourier–Motzkin elimination is a complete procedure:
//!
//! * [`is_satisfiable`] decides satisfiability over ℚ of a conjunction of
//!   linear constraints (including strict inequalities, equalities and
//!   disequalities),
//! * [`eliminate_variable`] computes an equivalent conjunction not mentioning
//!   a given variable (the projection step used when projecting cells onto
//!   shared parent/child variables),
//! * [`project_onto`] projects onto an arbitrary subset of variables,
//! * [`sample_point`] produces a rational witness of a satisfiable system
//!   (used by tests and by the simulator to instantiate numeric variables).

use crate::linear::{LinExpr, LinearConstraint, RelOp};
use crate::rational::Rational;
use std::collections::BTreeSet;
use std::hash::Hash;

/// A conjunction of linear constraints, the unit on which elimination works.
pub type System<V> = Vec<LinearConstraint<V>>;

/// Variable bindings accumulated while eliminating equalities: each entry
/// maps a variable to the expression substituted for it.
type Bindings<V> = Vec<(V, LinExpr<V>)>;

/// Splits away disequalities: each `e ≠ 0` becomes a case split into
/// `e < 0` and `e > 0`. Returns the list of case systems (exponential in the
/// number of disequalities, which are rare in practice and bounded by the
/// specification size).
fn split_disequalities<V: Ord + Clone>(system: &[LinearConstraint<V>]) -> Vec<System<V>> {
    let mut cases: Vec<System<V>> = vec![Vec::new()];
    for c in system {
        match c.op {
            RelOp::Ne => {
                let mut next = Vec::with_capacity(cases.len() * 2);
                for case in &cases {
                    let mut lt = case.clone();
                    lt.push(LinearConstraint::new(c.expr.clone(), RelOp::Lt));
                    let mut gt = case.clone();
                    gt.push(LinearConstraint::new(c.expr.clone(), RelOp::Gt));
                    next.push(lt);
                    next.push(gt);
                }
                cases = next;
            }
            _ => {
                for case in &mut cases {
                    case.push(c.clone());
                }
            }
        }
    }
    cases
}

/// Eliminates equalities by substitution: for each `e = 0` with some variable
/// `x` of non-zero coefficient `c`, substitutes `x := -(e - c·x)/c` in every
/// other constraint. Returns `None` if a constant contradiction is found.
fn eliminate_equalities<V: Ord + Clone + Hash>(
    mut system: System<V>,
) -> Option<(System<V>, Bindings<V>)> {
    let mut bindings: Bindings<V> = Vec::new();
    loop {
        // Find an equality with at least one variable.
        let idx = system
            .iter()
            .position(|c| c.op == RelOp::Eq && !c.expr.is_constant());
        let Some(idx) = idx else {
            // Check constant equalities.
            for c in &system {
                if let Some(false) = c.constant_truth() {
                    return None;
                }
            }
            system.retain(|c| c.constant_truth().is_none());
            return Some((system, bindings));
        };
        let eqc = system.swap_remove(idx);
        let (var, coeff) = {
            let (v, c) = eqc.expr.terms().next().expect("non-constant equality");
            (v.clone(), *c)
        };
        // e = coeff*var + rest = 0  =>  var = -rest/coeff
        let mut rest = eqc.expr.clone();
        rest.add_term(-coeff, var.clone());
        let sub = rest.scale(-(coeff.recip()));
        for c in &mut system {
            c.expr = c.expr.substitute(&var, &sub);
        }
        for (_, b) in &mut bindings {
            *b = b.substitute(&var, &sub);
        }
        bindings.push((var, sub));
    }
}

/// One Fourier–Motzkin elimination step on a system containing only
/// inequalities (`<`, `≤`, `>`, `≥`); the variable `x` is removed.
fn fm_step<V: Ord + Clone>(system: &[LinearConstraint<V>], x: &V) -> System<V> {
    // Normalize all constraints to the form  expr ≤ 0  or  expr < 0.
    let mut uppers: Vec<(LinExpr<V>, bool)> = Vec::new(); // x ≤ bound (strict?)
    let mut lowers: Vec<(LinExpr<V>, bool)> = Vec::new(); // x ≥ bound (strict?)
    let mut rest: System<V> = Vec::new();

    for c in system {
        let (expr, op) = match c.op {
            RelOp::Gt => (c.expr.clone().scale(-Rational::ONE), RelOp::Lt),
            RelOp::Ge => (c.expr.clone().scale(-Rational::ONE), RelOp::Le),
            _ => (c.expr.clone(), c.op),
        };
        let coeff = expr.coeff(x);
        if coeff.is_zero() {
            rest.push(LinearConstraint::new(expr, op));
            continue;
        }
        // expr = coeff*x + r  (op)  0
        let mut r = expr.clone();
        r.add_term(-coeff, x.clone());
        let bound = r.scale(-(coeff.recip())); // x (op') bound
        let strict = op == RelOp::Lt;
        if coeff.is_positive() {
            // coeff*x + r < 0  =>  x < -r/coeff
            uppers.push((bound, strict));
        } else {
            // coeff*x + r < 0 with coeff < 0  =>  x > -r/coeff
            lowers.push((bound, strict));
        }
    }

    for (lo, lo_strict) in &lowers {
        for (up, up_strict) in &uppers {
            // lo (<|≤) x (<|≤) up   =>   lo - up (<|≤) 0
            let expr = lo.clone() - up.clone();
            let op = if *lo_strict || *up_strict {
                RelOp::Lt
            } else {
                RelOp::Le
            };
            rest.push(LinearConstraint::new(expr, op));
        }
    }
    rest
}

/// Removes constraints that are constant and true; returns `None` if any is
/// constant and false.
fn simplify<V: Ord + Clone>(system: System<V>) -> Option<System<V>> {
    let mut out = Vec::with_capacity(system.len());
    let mut seen = BTreeSet::new();
    for c in system {
        match c.constant_truth() {
            Some(true) => {}
            Some(false) => return None,
            None => {
                if seen.insert((c.expr.clone(), c.op)) {
                    out.push(c);
                }
            }
        }
    }
    Some(out)
}

/// Decides whether a conjunction of linear constraints is satisfiable over ℚ.
pub fn is_satisfiable<V: Ord + Clone + Hash>(system: &[LinearConstraint<V>]) -> bool {
    sample_point(system).is_some()
}

/// Produces a satisfying rational assignment for the system, if one exists.
///
/// The assignment covers every variable mentioned by the system; unmentioned
/// variables are unconstrained and absent from the result.
pub fn sample_point<V: Ord + Clone + Hash>(
    system: &[LinearConstraint<V>],
) -> Option<Vec<(V, Rational)>> {
    'cases: for case in split_disequalities(system) {
        let Some((ineqs, bindings)) = eliminate_equalities(case) else {
            continue;
        };
        let Some(mut sys) = simplify(ineqs) else {
            continue;
        };
        // Eliminate variables one by one, remembering the elimination order so
        // a witness can be rebuilt by back-substitution.
        let mut order: Vec<(V, System<V>)> = Vec::new();
        loop {
            let var = sys.iter().flat_map(|c| c.variables()).next().cloned();
            let Some(var) = var else { break };
            let before = sys.clone();
            let next = fm_step(&sys, &var);
            let Some(next) = simplify(next) else {
                continue 'cases;
            };
            order.push((var, before));
            sys = next;
        }
        // All remaining constraints are constant and true: build a witness.
        let mut assignment: Vec<(V, Rational)> = Vec::new();
        let lookup = |assignment: &[(V, Rational)], v: &V| -> Option<Rational> {
            assignment.iter().find(|(w, _)| w == v).map(|(_, r)| *r)
        };
        for (var, constraints) in order.iter().rev() {
            // Compute tightest bounds on `var` under the current partial
            // assignment (all later-eliminated variables are already set).
            let mut lower: Option<(Rational, bool)> = None; // (bound, strict)
            let mut upper: Option<(Rational, bool)> = None;
            for c in constraints {
                let (expr, op) = match c.op {
                    RelOp::Gt => (c.expr.clone().scale(-Rational::ONE), RelOp::Lt),
                    RelOp::Ge => (c.expr.clone().scale(-Rational::ONE), RelOp::Le),
                    _ => (c.expr.clone(), c.op),
                };
                let coeff = expr.coeff(var);
                if coeff.is_zero() {
                    continue;
                }
                let mut r = expr.clone();
                r.add_term(-coeff, var.clone());
                let bound_expr = r.scale(-(coeff.recip()));
                // Variables that were dropped by the FM projection without
                // ever being eliminated are unconstrained relative to the
                // remaining system; fix them at zero (consistently, by
                // recording the choice) before evaluating the bound.
                let free_vars: Vec<V> = bound_expr
                    .variables()
                    .filter(|v| lookup(&assignment, v).is_none())
                    .cloned()
                    .collect();
                for v in free_vars {
                    assignment.push((v, Rational::ZERO));
                }
                let bound = bound_expr
                    .eval(|v| lookup(&assignment, v))
                    .expect("all variables assigned");
                let strict = op == RelOp::Lt;
                if coeff.is_positive() {
                    // upper bound
                    let tighter = match upper {
                        None => true,
                        Some((b, s)) => bound < b || (bound == b && strict && !s),
                    };
                    if tighter {
                        upper = Some((bound, strict));
                    }
                } else {
                    let tighter = match lower {
                        None => true,
                        Some((b, s)) => bound > b || (bound == b && strict && !s),
                    };
                    if tighter {
                        lower = Some((bound, strict));
                    }
                }
            }
            let value = match (lower, upper) {
                (None, None) => Rational::ZERO,
                (Some((lo, strict)), None) => {
                    if strict {
                        lo + Rational::ONE
                    } else {
                        lo
                    }
                }
                (None, Some((up, strict))) => {
                    if strict {
                        up - Rational::ONE
                    } else {
                        up
                    }
                }
                (Some((lo, ls)), Some((up, us))) => {
                    if !ls && !us && lo == up {
                        lo
                    } else {
                        // The FM projection guarantees lo (< / ≤) up holds.
                        lo.midpoint(&up)
                    }
                }
            };
            assignment.push((var.clone(), value));
        }
        // Back-substitute the equality bindings (in reverse order of
        // creation). Variables that never received a value are unconstrained
        // and are fixed at zero, consistently across all bindings.
        for (var, expr) in bindings.iter().rev() {
            let free_vars: Vec<V> = expr
                .variables()
                .filter(|v| lookup(&assignment, v).is_none())
                .cloned()
                .collect();
            for v in free_vars {
                assignment.push((v, Rational::ZERO));
            }
            let value = expr
                .eval(|v| lookup(&assignment, v))
                .expect("all variables assigned");
            assignment.push((var.clone(), value));
        }
        return Some(assignment);
    }
    None
}

/// Eliminates a single variable existentially: the returned system holds for
/// a valuation of the remaining variables iff some value of `x` makes the
/// original system hold.
///
/// Disequalities and equalities are handled by case-splitting / substitution;
/// the result is returned in disjunctive normal form (a vector of conjunctive
/// systems), since eliminating a variable from a disequality case split can
/// produce a genuine disjunction.
pub fn eliminate_variable<V: Ord + Clone + Hash>(
    system: &[LinearConstraint<V>],
    x: &V,
) -> Vec<System<V>> {
    let mut out = Vec::new();
    for case in split_disequalities(system) {
        // Substitute x away if it occurs in an equality; otherwise FM-step it.
        let mut eq_with_x = None;
        for (i, c) in case.iter().enumerate() {
            if c.op == RelOp::Eq && !c.expr.coeff(x).is_zero() {
                eq_with_x = Some(i);
                break;
            }
        }
        let projected: System<V> = if let Some(i) = eq_with_x {
            let mut case = case.clone();
            let eqc = case.swap_remove(i);
            let coeff = eqc.expr.coeff(x);
            let mut rest = eqc.expr.clone();
            rest.add_term(-coeff, x.clone());
            let sub = rest.scale(-(coeff.recip()));
            case.into_iter()
                .map(|c| LinearConstraint::new(c.expr.substitute(x, &sub), c.op))
                .collect()
        } else {
            // Split eq constraints not mentioning x are kept; only
            // inequalities mentioning x participate in the FM step.
            let (with_x, without_x): (Vec<_>, Vec<_>) =
                case.into_iter().partition(|c| !c.expr.coeff(x).is_zero());
            let mut fm = fm_step(&with_x, x);
            fm.extend(without_x);
            fm
        };
        if let Some(s) = simplify(projected) {
            out.push(s)
        }
    }
    if out.is_empty() {
        // All cases contradictory: represent "false" as a single impossible
        // system so callers can distinguish it from "no constraints".
        out.push(vec![LinearConstraint::new(
            LinExpr::constant(Rational::ONE),
            RelOp::Lt,
        )]);
    }
    out
}

/// Projects a conjunction onto the variables in `keep`, eliminating all other
/// variables existentially. The result is a disjunction of conjunctions.
pub fn project_onto<V: Ord + Clone + Hash>(
    system: &[LinearConstraint<V>],
    keep: &BTreeSet<V>,
) -> Vec<System<V>> {
    let mut to_eliminate: Vec<V> = system
        .iter()
        .flat_map(|c| c.variables().cloned())
        .filter(|v| !keep.contains(v))
        .collect();
    to_eliminate.sort();
    to_eliminate.dedup();

    let mut disjuncts: Vec<System<V>> = vec![system.to_vec()];
    for v in &to_eliminate {
        let mut next = Vec::new();
        for d in &disjuncts {
            next.extend(eliminate_variable(d, v));
        }
        disjuncts = next;
    }
    // Drop unsatisfiable disjuncts.
    disjuncts.retain(|d| is_satisfiable(d));
    disjuncts
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
    fn c(n: i64) -> LinExpr<&'static str> {
        LinExpr::constant(r(n))
    }

    #[test]
    fn satisfiable_simple_band() {
        // 1 <= x <= 3
        let sys = vec![
            LinearConstraint::ge(x(), c(1)),
            LinearConstraint::le(x(), c(3)),
        ];
        assert!(is_satisfiable(&sys));
        let pt = sample_point(&sys).unwrap();
        let v = pt.iter().find(|(n, _)| *n == "x").unwrap().1;
        assert!(v >= r(1) && v <= r(3));
    }

    #[test]
    fn unsatisfiable_contradiction() {
        let sys = vec![
            LinearConstraint::gt(x(), c(3)),
            LinearConstraint::lt(x(), c(1)),
        ];
        assert!(!is_satisfiable(&sys));
    }

    #[test]
    fn strict_vs_nonstrict_boundary() {
        // x < 1 && x >= 1 unsat; x <= 1 && x >= 1 sat.
        let unsat = vec![
            LinearConstraint::lt(x(), c(1)),
            LinearConstraint::ge(x(), c(1)),
        ];
        assert!(!is_satisfiable(&unsat));
        let sat = vec![
            LinearConstraint::le(x(), c(1)),
            LinearConstraint::ge(x(), c(1)),
        ];
        let pt = sample_point(&sat).unwrap();
        assert_eq!(pt.iter().find(|(n, _)| *n == "x").unwrap().1, r(1));
    }

    #[test]
    fn equalities_are_substituted() {
        // x = 2y && x + y = 6  =>  y = 2, x = 4
        let sys = vec![
            LinearConstraint::eq(x(), y().scale(r(2))),
            LinearConstraint::eq(x() + y(), c(6)),
        ];
        let pt = sample_point(&sys).unwrap();
        let get = |n: &str| pt.iter().find(|(m, _)| *m == n).unwrap().1;
        assert_eq!(get("x"), r(4));
        assert_eq!(get("y"), r(2));
    }

    #[test]
    fn disequality_case_split() {
        // x = 1 && x != 1 unsat; x != 1 sat.
        let unsat = vec![
            LinearConstraint::eq(x(), c(1)),
            LinearConstraint::ne(x(), c(1)),
        ];
        assert!(!is_satisfiable(&unsat));
        let sat = vec![LinearConstraint::ne(x(), c(1))];
        let pt = sample_point(&sat).unwrap();
        assert_ne!(pt.iter().find(|(n, _)| *n == "x").unwrap().1, r(1));
    }

    #[test]
    fn multi_variable_chain() {
        // x < y && y < x is unsat; x < y && y < z && z < x is unsat
        let sys = vec![
            LinearConstraint::lt(x(), y()),
            LinearConstraint::lt(y(), LinExpr::var("z")),
            LinearConstraint::lt(LinExpr::var("z"), x()),
        ];
        assert!(!is_satisfiable(&sys));
    }

    #[test]
    fn witness_satisfies_all_constraints() {
        let sys = vec![
            LinearConstraint::lt(x(), y()),
            LinearConstraint::lt(y(), c(10)),
            LinearConstraint::gt(x(), c(-3)),
            LinearConstraint::ge(x() + y(), c(0)),
        ];
        let pt = sample_point(&sys).unwrap();
        let get = |n: &str| pt.iter().find(|(m, _)| *m == n).map(|(_, v)| *v);
        for cst in &sys {
            assert_eq!(cst.eval(|v| get(v)), Some(true), "violated: {cst}");
        }
    }

    #[test]
    fn eliminate_variable_projection_semantics() {
        // exists y: x < y && y < 5   <=>   x < 5
        let sys = vec![
            LinearConstraint::lt(x(), y()),
            LinearConstraint::lt(y(), c(5)),
        ];
        let projected = eliminate_variable(&sys, &"y");
        assert_eq!(projected.len(), 1);
        let d = &projected[0];
        // x = 4 should satisfy, x = 5 should not.
        let holds = |val: i64| {
            d.iter()
                .all(|c| c.eval(|v| if *v == "x" { Some(r(val)) } else { None }) == Some(true))
        };
        assert!(holds(4));
        assert!(!holds(5));
    }

    #[test]
    fn project_onto_keeps_only_requested_variables() {
        let sys = vec![
            LinearConstraint::eq(x(), y() + c(1)),
            LinearConstraint::lt(y(), c(3)),
        ];
        let keep: BTreeSet<_> = ["x"].into_iter().collect();
        let disjuncts = project_onto(&sys, &keep);
        assert!(!disjuncts.is_empty());
        for d in &disjuncts {
            for cst in d {
                for v in cst.variables() {
                    assert_eq!(*v, "x");
                }
            }
        }
        // x must be < 4 in the projection.
        let holds = |val: i64| {
            disjuncts
                .iter()
                .any(|d| d.iter().all(|c| c.eval(|_| Some(r(val))) == Some(true)))
        };
        assert!(holds(3));
        assert!(!holds(4));
    }

    #[test]
    fn empty_system_is_satisfiable() {
        let sys: Vec<LinearConstraint<&'static str>> = vec![];
        assert!(is_satisfiable(&sys));
    }

    #[test]
    fn constant_false_detected() {
        let sys = vec![LinearConstraint::lt(c(3), c(1))];
        assert!(!is_satisfiable(&sys));
    }
}
