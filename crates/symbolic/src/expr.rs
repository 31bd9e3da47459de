//! Navigation expressions and their sorts.

use has_arith::Rational;
use has_model::{ArtifactSchema, AttrKind, RelationId, VarId, VarSort};
use std::fmt;

/// The sort of an expression (Section 4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sort {
    /// Numeric sort (numeric variables, the constant `0`, navigations ending
    /// in a numeric attribute).
    Numeric,
    /// Identifier of a tuple of the given relation.
    Id(RelationId),
    /// The null sort (the constant `null`; ID variables not bound to any
    /// relation have this sort too and are forced equal to `null`).
    Null,
}

/// An expression of the symbolic representation.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// The constant `null`.
    Null,
    /// The numeric constant `0`.
    Zero,
    /// A non-zero numeric constant appearing in the specification or the
    /// property (e.g. the status codes of the travel-booking example).
    Const(Rational),
    /// An artifact variable.
    Var(VarId),
    /// A navigation `x_R.a₁.…` : the variable `x` read as an identifier of
    /// relation `rel`, followed by a non-empty path of attribute indices
    /// (all but possibly the last being foreign keys).
    Nav {
        /// The anchoring ID variable.
        var: VarId,
        /// The relation whose identifier the variable holds.
        rel: RelationId,
        /// Attribute indices along the navigation.
        path: Vec<usize>,
    },
}

impl Expr {
    /// The sort of the expression under the given schema.
    pub fn sort(&self, schema: &ArtifactSchema) -> Sort {
        match self {
            Expr::Null => Sort::Null,
            Expr::Zero | Expr::Const(_) => Sort::Numeric,
            Expr::Var(v) => match schema.variable(*v).sort {
                VarSort::Numeric => Sort::Numeric,
                // The sort of an ID variable depends on the state (bound or
                // null); as a static sort we report Null, and the state
                // refines it. Equality compatibility between ID variables is
                // checked dynamically.
                VarSort::Id => Sort::Null,
            },
            Expr::Nav { rel, path, .. } => {
                let mut current = *rel;
                let mut last_kind = None;
                for &idx in path {
                    let attr = &schema.database.relation(current).attributes[idx];
                    last_kind = Some(attr.kind);
                    if let AttrKind::ForeignKey(next) = attr.kind {
                        current = next;
                    }
                }
                match last_kind {
                    Some(AttrKind::Numeric) => Sort::Numeric,
                    Some(AttrKind::ForeignKey(target)) => Sort::Id(target),
                    Some(AttrKind::Key) | None => Sort::Id(current),
                }
            }
        }
    }

    /// Human-readable rendering using schema names.
    pub fn display(&self, schema: &ArtifactSchema) -> String {
        match self {
            Expr::Null => "null".to_string(),
            Expr::Zero => "0".to_string(),
            Expr::Const(c) => c.to_string(),
            Expr::Var(v) => schema.variable(*v).name.clone(),
            Expr::Nav { var, rel, path } => {
                let mut s = format!(
                    "{}@{}",
                    schema.variable(*var).name,
                    schema.database.relation(*rel).name
                );
                let mut current = *rel;
                for &idx in path {
                    let attr = &schema.database.relation(current).attributes[idx];
                    s.push('.');
                    s.push_str(&attr.name);
                    if let AttrKind::ForeignKey(next) = attr.kind {
                        current = next;
                    }
                }
                s
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Null => write!(f, "null"),
            Expr::Zero => write!(f, "0"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Nav { var, rel, path } => write!(f, "{var}@R{}.{:?}", rel.0, path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_model::SystemBuilder;

    fn schema() -> (ArtifactSchema, VarId, VarId) {
        let mut b = SystemBuilder::new("t");
        b.relation("HOTELS", &["price"], &[]);
        b.relation("FLIGHTS", &["price"], &[("hotel", "HOTELS")]);
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        let n = b.num_var(root, "n");
        (b.build().unwrap().schema, x, n)
    }

    #[test]
    fn sorts_of_basic_expressions() {
        let (schema, x, n) = schema();
        assert_eq!(Expr::Null.sort(&schema), Sort::Null);
        assert_eq!(Expr::Zero.sort(&schema), Sort::Numeric);
        assert_eq!(Expr::Var(n).sort(&schema), Sort::Numeric);
        assert_eq!(Expr::Var(x).sort(&schema), Sort::Null);
    }

    #[test]
    fn sorts_of_navigations() {
        let (schema, x, _) = schema();
        let flights = schema.database.relation_by_name("FLIGHTS").unwrap();
        let hotels = schema.database.relation_by_name("HOTELS").unwrap();
        // FLIGHTS attributes: 0=id, 1=price, 2=hotel(FK)
        let price = Expr::Nav {
            var: x,
            rel: flights,
            path: vec![1],
        };
        let hotel = Expr::Nav {
            var: x,
            rel: flights,
            path: vec![2],
        };
        let hotel_price = Expr::Nav {
            var: x,
            rel: flights,
            path: vec![2, 1],
        };
        assert_eq!(price.sort(&schema), Sort::Numeric);
        assert_eq!(hotel.sort(&schema), Sort::Id(hotels));
        assert_eq!(hotel_price.sort(&schema), Sort::Numeric);
        assert_eq!(hotel_price.display(&schema), "x@FLIGHTS.hotel.price");
    }
}
