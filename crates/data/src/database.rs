//! In-memory database instances with key and foreign-key enforcement.

use crate::value::Value;
use has_model::{AttrKind, DatabaseSchema, RelationId};
use std::collections::BTreeMap;
use std::fmt;

/// A database row: one value per attribute, in schema attribute order (the
/// key attribute first).
pub type Row = Vec<Value>;

/// Errors raised when constructing or mutating a database instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// A row has the wrong number of columns.
    Arity {
        /// Relation name.
        relation: String,
        /// Expected arity.
        expected: usize,
        /// Found arity.
        found: usize,
    },
    /// A value of the wrong sort was supplied for an attribute.
    Sort {
        /// Relation name.
        relation: String,
        /// Attribute name.
        attribute: String,
    },
    /// Two rows share the same key (violates the key dependency).
    DuplicateKey {
        /// Relation name.
        relation: String,
    },
    /// A foreign key references a missing row (violates the inclusion
    /// dependency).
    DanglingForeignKey {
        /// Relation name.
        relation: String,
        /// Attribute name.
        attribute: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Arity {
                relation,
                expected,
                found,
            } => write!(
                f,
                "row for `{relation}` has {found} columns, expected {expected}"
            ),
            DbError::Sort {
                relation,
                attribute,
            } => write!(f, "wrong value sort for `{relation}.{attribute}`"),
            DbError::DuplicateKey { relation } => {
                write!(f, "duplicate key in relation `{relation}`")
            }
            DbError::DanglingForeignKey {
                relation,
                attribute,
            } => write!(f, "dangling foreign key `{relation}.{attribute}`"),
        }
    }
}

impl std::error::Error for DbError {}

/// A finite database instance over a [`DatabaseSchema`], satisfying the key
/// dependencies at all times; foreign-key (inclusion) dependencies are
/// checked by [`DatabaseInstance::check_foreign_keys`] once population is
/// complete.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatabaseInstance {
    /// Rows per relation, keyed by the key value for O(log n) lookup.
    relations: Vec<BTreeMap<Value, Row>>,
}

impl DatabaseInstance {
    /// Creates an empty instance of the given schema.
    pub fn new(schema: &DatabaseSchema) -> Self {
        DatabaseInstance {
            relations: vec![BTreeMap::new(); schema.len()],
        }
    }

    /// Inserts a row, enforcing arity, sorts and the key dependency.
    pub fn insert(
        &mut self,
        schema: &DatabaseSchema,
        rel: RelationId,
        row: Row,
    ) -> Result<(), DbError> {
        let relation = schema.relation(rel);
        if row.len() != relation.arity() {
            return Err(DbError::Arity {
                relation: relation.name.clone(),
                expected: relation.arity(),
                found: row.len(),
            });
        }
        for (attr, value) in relation.attributes.iter().zip(&row) {
            let ok = match attr.kind {
                AttrKind::Key => matches!(value, Value::Id { rel: r, .. } if *r == rel),
                AttrKind::Numeric => matches!(value, Value::Num(_)),
                AttrKind::ForeignKey(target) => {
                    matches!(value, Value::Id { rel: r, .. } if *r == target)
                }
            };
            if !ok {
                return Err(DbError::Sort {
                    relation: relation.name.clone(),
                    attribute: attr.name.clone(),
                });
            }
        }
        let key = row[0];
        if self.relations[rel.0].contains_key(&key) {
            return Err(DbError::DuplicateKey {
                relation: relation.name.clone(),
            });
        }
        self.relations[rel.0].insert(key, row);
        Ok(())
    }

    /// Looks up the row of `rel` with the given key value.
    pub fn lookup(&self, rel: RelationId, key: &Value) -> Option<&Row> {
        self.relations.get(rel.0).and_then(|m| m.get(key))
    }

    /// Iterates over the rows of a relation.
    pub fn rows(&self, rel: RelationId) -> impl Iterator<Item = &Row> {
        self.relations[rel.0].values()
    }

    /// Number of rows in a relation.
    pub fn cardinality(&self, rel: RelationId) -> usize {
        self.relations[rel.0].len()
    }

    /// Total number of rows.
    pub fn total_rows(&self) -> usize {
        self.relations.iter().map(BTreeMap::len).sum()
    }

    /// Checks all inclusion dependencies, returning the first violation.
    pub fn check_foreign_keys(&self, schema: &DatabaseSchema) -> Result<(), DbError> {
        for (rel_id, relation) in schema.iter() {
            for row in self.rows(rel_id) {
                for (idx, target) in relation.foreign_keys() {
                    let v = &row[idx];
                    if self.lookup(target, v).is_none() {
                        return Err(DbError::DanglingForeignKey {
                            relation: relation.name.clone(),
                            attribute: relation.attributes[idx].name.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The active domain: every value appearing in some row.
    pub fn active_domain(&self) -> Vec<Value> {
        let mut out: Vec<Value> = self
            .relations
            .iter()
            .flat_map(|m| m.values())
            .flatten()
            .copied()
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Follows a chain of foreign-key attributes starting from an id value,
    /// returning the value reached (used to ground navigation expressions of
    /// the symbolic representation on concrete data).
    ///
    /// `path` is a sequence of attribute indices; each step must name a
    /// foreign-key or numeric attribute of the relation the current id
    /// belongs to, and only the last step may be numeric.
    pub fn navigate(&self, schema: &DatabaseSchema, start: Value, path: &[usize]) -> Option<Value> {
        let mut current = start;
        for &attr_idx in path {
            let (rel, _) = current.as_id()?;
            let row = self.lookup(rel, &current)?;
            let attr = schema.relation(rel).attributes.get(attr_idx)?;
            match attr.kind {
                AttrKind::Key => return None,
                AttrKind::Numeric | AttrKind::ForeignKey(_) => {
                    current = *row.get(attr_idx)?;
                }
            }
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use has_model::SystemBuilder;

    fn schema() -> DatabaseSchema {
        let mut b = SystemBuilder::new("s");
        b.relation("HOTELS", &["unit_price", "discount_price"], &[]);
        b.relation("FLIGHTS", &["price"], &[("comp_hotel_id", "HOTELS")]);
        let root = b.root_task("Root");
        let _ = b.id_var(root, "x");
        b.build().unwrap().schema.database
    }

    fn hotels() -> RelationId {
        RelationId(0)
    }
    fn flights() -> RelationId {
        RelationId(1)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let s = schema();
        let mut db = DatabaseInstance::new(&s);
        let h = Value::id(hotels(), 0);
        db.insert(&s, hotels(), vec![h, Value::num(100), Value::num(80)])
            .unwrap();
        let f = Value::id(flights(), 0);
        db.insert(&s, flights(), vec![f, Value::num(250), h])
            .unwrap();
        assert_eq!(db.cardinality(hotels()), 1);
        assert_eq!(db.lookup(flights(), &f).unwrap()[2], h);
        assert_eq!(db.total_rows(), 2);
        assert!(db.check_foreign_keys(&s).is_ok());
        assert_eq!(db.active_domain().len(), 5);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let s = schema();
        let mut db = DatabaseInstance::new(&s);
        let h = Value::id(hotels(), 0);
        db.insert(&s, hotels(), vec![h, Value::num(1), Value::num(2)])
            .unwrap();
        let err = db
            .insert(&s, hotels(), vec![h, Value::num(3), Value::num(4)])
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { .. }));
    }

    #[test]
    fn sort_and_arity_violations_are_rejected() {
        let s = schema();
        let mut db = DatabaseInstance::new(&s);
        let err = db
            .insert(
                &s,
                hotels(),
                vec![Value::num(1), Value::num(1), Value::num(2)],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::Sort { .. }));
        let err = db
            .insert(&s, hotels(), vec![Value::id(hotels(), 0)])
            .unwrap_err();
        assert!(matches!(err, DbError::Arity { .. }));
        // Wrong relation's id in the key position.
        let err = db
            .insert(
                &s,
                hotels(),
                vec![Value::id(flights(), 0), Value::num(1), Value::num(2)],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::Sort { .. }));
    }

    #[test]
    fn dangling_foreign_keys_are_detected() {
        let s = schema();
        let mut db = DatabaseInstance::new(&s);
        let f = Value::id(flights(), 0);
        let missing_hotel = Value::id(hotels(), 99);
        db.insert(&s, flights(), vec![f, Value::num(250), missing_hotel])
            .unwrap();
        assert!(matches!(
            db.check_foreign_keys(&s),
            Err(DbError::DanglingForeignKey { .. })
        ));
    }

    #[test]
    fn navigation_follows_foreign_keys() {
        let s = schema();
        let mut db = DatabaseInstance::new(&s);
        let h = Value::id(hotels(), 3);
        db.insert(&s, hotels(), vec![h, Value::num(100), Value::num(80)])
            .unwrap();
        let f = Value::id(flights(), 1);
        db.insert(&s, flights(), vec![f, Value::num(250), h])
            .unwrap();
        // FLIGHTS.comp_hotel_id is attribute 2; HOTELS.discount_price is 2.
        assert_eq!(db.navigate(&s, f, &[2]), Some(h));
        assert_eq!(db.navigate(&s, f, &[2, 2]), Some(Value::num(80)));
        assert_eq!(db.navigate(&s, f, &[2, 2, 0]), None);
        assert_eq!(db.navigate(&s, Value::Null, &[2]), None);
    }
}
