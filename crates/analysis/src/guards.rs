//! Exact satisfiability of service guards over the numeric/equality
//! fragment.
//!
//! A guard (service pre- or post-condition) is *dead* when no valuation of
//! the task's variables satisfies it. The analyzer decides this exactly for
//! the fragment the existing arithmetic substrate covers: arithmetic atoms
//! and numeric (in)equalities become [`LinearConstraint`]s decided by the
//! Fourier–Motzkin procedure of `has_arith::fm`; all other atoms (ID
//! equalities, relation membership) are treated as free booleans. Freeness
//! over-approximates their satisfiability, so [`GuardStatus::Unsatisfiable`]
//! is *certain* — the only verdict anything downstream acts on — while
//! [`GuardStatus::Satisfiable`] may be optimistic about ID-logic
//! consistency.
//!
//! The decision enumerates truth assignments over the guard's distinct
//! atoms (capped at [`ATOM_CAP`]; larger guards return
//! [`GuardStatus::Unknown`] and are left alone): an assignment under which
//! the boolean structure evaluates to true contributes the conjunction of
//! its linear atoms (negated where assigned false — `has_arith` decides
//! strict, `Eq` and `Ne` constraints exactly over ℚ). The guard is dead iff
//! every assignment either falsifies the structure or yields an
//! inconsistent linear system.

use has_arith::{is_satisfiable, LinExpr, LinearConstraint};
use has_model::{ArtifactSchema, Atom, Condition, Term, VarId, VarSort};

/// Exact satisfiability verdict for one guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardStatus {
    /// Some truth assignment satisfies the guard's boolean structure with a
    /// consistent numeric fragment (modulo free ID/relation atoms).
    Satisfiable,
    /// No valuation can satisfy the guard: the service can never fire.
    /// This verdict is exact, never heuristic.
    Unsatisfiable,
    /// The guard has more than [`ATOM_CAP`] distinct atoms; the enumeration
    /// was not attempted and the guard is treated as satisfiable.
    Unknown,
}

/// Cap on the number of distinct atoms enumerated per guard (`2^ATOM_CAP`
/// assignments, each with one small Fourier–Motzkin run). Specification
/// guards are tiny; anything past the cap reports [`GuardStatus::Unknown`].
pub const ATOM_CAP: usize = 12;

/// Converts an atom to its linear-constraint form, when it has one: an
/// arithmetic atom as-is, a numeric equality `x = c` / `x = y` as an `Eq`
/// constraint. ID equalities, null tests and relation atoms have no linear
/// form and return `None` (their truth is a free boolean for the guard
/// decision).
fn linear_form(schema: &ArtifactSchema, atom: &Atom) -> Option<LinearConstraint<VarId>> {
    let numeric = |v: &VarId| schema.variable(*v).sort == VarSort::Numeric;
    match atom {
        Atom::Arith(c) => Some(c.clone()),
        Atom::Eq(lhs, rhs) => {
            let expr = |t: &Term| -> Option<LinExpr<VarId>> {
                match t {
                    Term::Var(v) if numeric(v) => Some(LinExpr::var(*v)),
                    Term::Const(c) => Some(LinExpr::constant(*c)),
                    _ => None,
                }
            };
            Some(LinearConstraint::eq(expr(lhs)?, expr(rhs)?))
        }
        Atom::Relation { .. } => None,
    }
}

/// Decides whether a guard is satisfiable — see the module docs for the
/// fragment and the direction of the approximation.
pub fn guard_status(schema: &ArtifactSchema, cond: &Condition) -> GuardStatus {
    match cond {
        Condition::True => return GuardStatus::Satisfiable,
        Condition::False => return GuardStatus::Unsatisfiable,
        _ => {}
    }
    let mut atoms: Vec<Atom> = Vec::new();
    for a in cond.atoms() {
        if !atoms.contains(&a) {
            atoms.push(a);
        }
    }
    if atoms.len() > ATOM_CAP {
        return GuardStatus::Unknown;
    }
    let linear: Vec<Option<LinearConstraint<VarId>>> =
        atoms.iter().map(|a| linear_form(schema, a)).collect();
    for bits in 0u32..(1u32 << atoms.len()) {
        let truth = |atom: &Atom| -> bool {
            // Distinct-atom list, so the position lookup always succeeds.
            let i = atoms
                .iter()
                .position(|a| a == atom)
                .expect("atom collected");
            bits >> i & 1 == 1
        };
        if !cond.eval_with(&mut |a| truth(a)) {
            continue;
        }
        let system: Vec<LinearConstraint<VarId>> = linear
            .iter()
            .enumerate()
            .filter_map(|(i, l)| {
                l.as_ref().map(|c| {
                    if bits >> i & 1 == 1 {
                        c.clone()
                    } else {
                        c.negate()
                    }
                })
            })
            .collect();
        if is_satisfiable(&system) {
            return GuardStatus::Satisfiable;
        }
    }
    GuardStatus::Unsatisfiable
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_arith::Rational;
    use has_model::SystemBuilder;

    fn schema_with_num_vars() -> (ArtifactSchema, VarId, VarId) {
        let mut b = SystemBuilder::new("g");
        let root = b.root_task("Main");
        let x = b.num_var(root, "x");
        let y = b.num_var(root, "y");
        (b.build().unwrap().schema, x, y)
    }

    #[test]
    fn trivial_guards() {
        let (schema, _, _) = schema_with_num_vars();
        assert_eq!(
            guard_status(&schema, &Condition::True),
            GuardStatus::Satisfiable
        );
        assert_eq!(
            guard_status(&schema, &Condition::False),
            GuardStatus::Unsatisfiable
        );
    }

    #[test]
    fn contradictory_arithmetic_is_dead() {
        let (schema, x, _) = schema_with_num_vars();
        // x < 0 ∧ x > 0
        let lt = Condition::arith(LinearConstraint::lt(LinExpr::var(x), LinExpr::zero()));
        let gt = Condition::arith(LinearConstraint::gt(LinExpr::var(x), LinExpr::zero()));
        assert_eq!(
            guard_status(&schema, &lt.clone().and(gt)),
            GuardStatus::Unsatisfiable
        );
        assert_eq!(guard_status(&schema, &lt), GuardStatus::Satisfiable);
    }

    #[test]
    fn equality_chain_contradiction_is_dead() {
        let (schema, x, y) = schema_with_num_vars();
        // x = 1 ∧ y = 2 ∧ x = y
        let c = Condition::eq_const(x, Rational::from_int(1))
            .and(Condition::eq_const(y, Rational::from_int(2)))
            .and(Condition::var_eq(x, y));
        assert_eq!(guard_status(&schema, &c), GuardStatus::Unsatisfiable);
    }

    #[test]
    fn boolean_contradiction_on_one_atom_is_dead() {
        let (schema, x, _) = schema_with_num_vars();
        let a = Condition::eq_const(x, Rational::from_int(1));
        let c = a.clone().and(a.negate());
        assert_eq!(guard_status(&schema, &c), GuardStatus::Unsatisfiable);
    }

    #[test]
    fn negated_equality_needs_the_exact_ne_split() {
        let (schema, x, _) = schema_with_num_vars();
        // ¬(x = 1) ∧ x ≥ 1 ∧ x ≤ 1 — satisfiable only if ≠ were ignored.
        let c = Condition::eq_const(x, Rational::from_int(1))
            .negate()
            .and(Condition::arith(LinearConstraint::ge(
                LinExpr::var(x),
                LinExpr::constant(Rational::from_int(1)),
            )))
            .and(Condition::arith(LinearConstraint::le(
                LinExpr::var(x),
                LinExpr::constant(Rational::from_int(1)),
            )));
        assert_eq!(guard_status(&schema, &c), GuardStatus::Unsatisfiable);
    }

    #[test]
    fn disjunction_with_one_live_branch_is_satisfiable() {
        let (schema, x, _) = schema_with_num_vars();
        let dead = Condition::arith(LinearConstraint::lt(LinExpr::var(x), LinExpr::zero())).and(
            Condition::arith(LinearConstraint::gt(LinExpr::var(x), LinExpr::zero())),
        );
        let live = Condition::eq_const(x, Rational::from_int(3));
        assert_eq!(
            guard_status(&schema, &dead.or(live)),
            GuardStatus::Satisfiable
        );
    }

    #[test]
    fn id_atoms_are_free_and_never_kill_a_guard() {
        let mut b = SystemBuilder::new("ids");
        let root = b.root_task("Main");
        let system = {
            let _x = b.num_var(root, "x");
            b.build().unwrap()
        };
        // A relation-free schema: is_null over a numeric var is still an
        // Eq(_, Null) atom with no linear form — free, hence satisfiable.
        let v = system.schema.task(system.root()).variables[0];
        let c = Condition::is_null(v).and(Condition::not_null(v));
        // Both polarities of the *same* atom: the boolean structure itself is
        // unsatisfiable, which the enumeration catches even for free atoms.
        assert_eq!(guard_status(&system.schema, &c), GuardStatus::Unsatisfiable);
    }
}
