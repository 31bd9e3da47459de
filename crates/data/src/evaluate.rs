//! Concrete evaluation of conditions under a valuation and a database.
//!
//! This implements the satisfaction relation `D ∪ C ⊨ α(ν)` of Section 2:
//! equality atoms compare concrete values, relation atoms look up the tuple
//! whose key is the first argument (an atom with any `null` argument is
//! false, as required by the paper), and arithmetic atoms evaluate the linear
//! constraint on the numeric components of the valuation.

use crate::database::DatabaseInstance;
use crate::value::Value;
use has_model::{ArtifactSchema, Atom, Condition, Term, VarId};
use std::collections::BTreeMap;

/// A valuation of artifact variables.
///
/// Unassigned ID variables read as `null` and unassigned numeric variables
/// read as `0`, mirroring the initialization rule for newly opened tasks
/// (Definition 9).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Valuation {
    values: BTreeMap<VarId, Value>,
}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value of a variable.
    pub fn set(&mut self, var: VarId, value: Value) {
        self.values.insert(var, value);
    }

    /// Gets the value of a variable, defaulting per the variable's sort:
    /// `null` for ID variables, `0` for numeric ones.
    pub fn get(&self, schema: &ArtifactSchema, var: VarId) -> Value {
        self.values
            .get(&var)
            .copied()
            .unwrap_or_else(|| match schema.variable(var).sort {
                has_model::VarSort::Id => Value::Null,
                has_model::VarSort::Numeric => Value::num(0),
            })
    }

    /// Restricts the valuation to the given variables.
    pub fn project(&self, vars: &[VarId]) -> Valuation {
        Valuation {
            values: self
                .values
                .iter()
                .filter(|(v, _)| vars.contains(v))
                .map(|(v, x)| (*v, *x))
                .collect(),
        }
    }

    /// Iterates over explicitly assigned `(variable, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.values.iter().map(|(v, x)| (*v, *x))
    }
}

fn eval_term(schema: &ArtifactSchema, valuation: &Valuation, term: &Term) -> Value {
    match term {
        Term::Var(v) => valuation.get(schema, *v),
        Term::Null => Value::Null,
        Term::Const(c) => Value::Num(*c),
    }
}

/// Evaluates a condition under a valuation and database instance.
pub fn eval_condition(
    schema: &ArtifactSchema,
    db: &DatabaseInstance,
    valuation: &Valuation,
    condition: &Condition,
) -> bool {
    condition.eval_with(&mut |atom: &Atom| match atom {
        Atom::Eq(a, b) => eval_term(schema, valuation, a) == eval_term(schema, valuation, b),
        Atom::Relation { relation, args } => {
            let values: Vec<Value> = args
                .iter()
                .map(|t| eval_term(schema, valuation, t))
                .collect();
            // A relation atom with any null argument is false (Section 2).
            if values.iter().any(Value::is_null) {
                return false;
            }
            match db.lookup(*relation, &values[0]) {
                Some(row) => row == &values,
                None => false,
            }
        }
        Atom::Arith(constraint) => constraint
            .eval(|v| valuation.get(schema, *v).as_num())
            .unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_arith::{LinExpr, LinearConstraint, Rational};
    use has_model::{RelationId, SystemBuilder};

    struct Fixture {
        schema: ArtifactSchema,
        db: DatabaseInstance,
        x: VarId,
        price: VarId,
        hotel: VarId,
    }

    fn fixture() -> Fixture {
        let mut b = SystemBuilder::new("t");
        b.relation("HOTELS", &["unit_price"], &[]);
        b.relation("FLIGHTS", &["price"], &[("comp_hotel_id", "HOTELS")]);
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        let hotel = b.id_var(root, "hotel");
        let price = b.num_var(root, "price");
        let system = b.build().unwrap();
        let schema = system.schema;
        let mut db = DatabaseInstance::new(&schema.database);
        let h0 = Value::id(RelationId(0), 0);
        db.insert(&schema.database, RelationId(0), vec![h0, Value::num(90)])
            .unwrap();
        let f0 = Value::id(RelationId(1), 0);
        db.insert(
            &schema.database,
            RelationId(1),
            vec![f0, Value::num(250), h0],
        )
        .unwrap();
        Fixture {
            schema,
            db,
            x,
            price,
            hotel,
        }
    }

    #[test]
    fn equality_and_null_defaults() {
        let f = fixture();
        let val = Valuation::new();
        // Unassigned ID variable is null.
        assert!(eval_condition(
            &f.schema,
            &f.db,
            &val,
            &Condition::is_null(f.x)
        ));
        // Unassigned numeric variable is 0.
        assert!(eval_condition(
            &f.schema,
            &f.db,
            &val,
            &Condition::eq_const(f.price, Rational::ZERO)
        ));
    }

    #[test]
    fn relation_atom_requires_matching_tuple() {
        let f = fixture();
        let flights = RelationId(1);
        let mut val = Valuation::new();
        val.set(f.x, Value::id(flights, 0));
        val.set(f.price, Value::num(250));
        val.set(f.hotel, Value::id(RelationId(0), 0));
        let atom = Condition::relation(
            flights,
            vec![Term::Var(f.x), Term::Var(f.price), Term::Var(f.hotel)],
        );
        assert!(eval_condition(&f.schema, &f.db, &val, &atom));
        // Wrong price: no matching tuple.
        val.set(f.price, Value::num(99));
        assert!(!eval_condition(&f.schema, &f.db, &val, &atom));
    }

    #[test]
    fn relation_atom_with_null_argument_is_false() {
        let f = fixture();
        let flights = RelationId(1);
        let mut val = Valuation::new();
        val.set(f.price, Value::num(250));
        // f.x and f.hotel left null.
        let atom = Condition::relation(
            flights,
            vec![Term::Var(f.x), Term::Var(f.price), Term::Var(f.hotel)],
        );
        assert!(!eval_condition(&f.schema, &f.db, &val, &atom));
    }

    #[test]
    fn arithmetic_atoms_use_numeric_values() {
        let f = fixture();
        let mut val = Valuation::new();
        val.set(f.price, Value::num(250));
        let cheap = Condition::arith(LinearConstraint::le(
            LinExpr::var(f.price),
            LinExpr::constant(Rational::from_int(100)),
        ));
        assert!(!eval_condition(&f.schema, &f.db, &val, &cheap));
        val.set(f.price, Value::num(50));
        assert!(eval_condition(&f.schema, &f.db, &val, &cheap));
    }

    #[test]
    fn boolean_structure_and_projection() {
        let f = fixture();
        let mut val = Valuation::new();
        val.set(f.x, Value::id(RelationId(1), 0));
        val.set(f.price, Value::num(1));
        let cond = Condition::not_null(f.x).and(Condition::is_null(f.hotel));
        assert!(eval_condition(&f.schema, &f.db, &val, &cond));
        let projected = val.project(&[f.price]);
        let kept: Vec<(VarId, Value)> = projected.iter().collect();
        assert_eq!(kept, [(f.price, Value::num(1))]);
    }
}
