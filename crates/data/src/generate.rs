//! Random database generation.
//!
//! The verification problem ranges over all databases satisfying the schema's
//! key and foreign-key dependencies; the simulator explores concrete
//! behaviour on sampled instances. The generator below produces valid
//! instances of any schema: rows are created relation by relation and foreign
//! keys are pointed at rows of the referenced relation, creating them on
//! demand if necessary (which also terminates on cyclic schemas because the
//! referenced pool is bounded by `rows_per_relation`).

use crate::database::DatabaseInstance;
use crate::value::Value;
use has_model::{AttrKind, DatabaseSchema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the random database generator.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Number of rows to generate per relation.
    pub rows_per_relation: usize,
    /// Numeric attribute values are drawn uniformly from `0..=max_numeric`.
    pub max_numeric: i64,
    /// RNG seed, so benchmark workloads are reproducible.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            rows_per_relation: 8,
            max_numeric: 100,
            seed: 0xC0FFEE,
        }
    }
}

/// Random generator of valid database instances.
#[derive(Debug)]
pub struct DatabaseGenerator {
    config: GeneratorConfig,
    rng: StdRng,
}

impl DatabaseGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: GeneratorConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        DatabaseGenerator { config, rng }
    }

    /// Generates a database instance satisfying all dependencies of the
    /// schema.
    pub fn generate(&mut self, schema: &DatabaseSchema) -> DatabaseInstance {
        let mut db = DatabaseInstance::new(schema);
        let n = self.config.rows_per_relation;
        // First pass: create all keys so that foreign keys always have a
        // target pool to draw from (this also handles cyclic schemas).
        for (rel_id, _) in schema.iter() {
            for k in 0..n {
                let _ = (rel_id, k); // keys are implicit: rel_id # k
            }
        }
        // Second pass: materialize rows.
        for (rel_id, relation) in schema.iter() {
            for k in 0..n {
                let mut row = Vec::with_capacity(relation.arity());
                for attr in &relation.attributes {
                    let value = match attr.kind {
                        AttrKind::Key => Value::id(rel_id, k as u64),
                        AttrKind::Numeric => {
                            Value::num(self.rng.random_range(0..=self.config.max_numeric))
                        }
                        AttrKind::ForeignKey(target) => {
                            Value::id(target, self.rng.random_range(0..n) as u64)
                        }
                    };
                    row.push(value);
                }
                db.insert(schema, rel_id, row)
                    .expect("generated rows are well-formed by construction");
            }
        }
        debug_assert!(db.check_foreign_keys(schema).is_ok());
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_model::{RelationId, SystemBuilder};

    fn schema(cyclic: bool) -> DatabaseSchema {
        let mut b = SystemBuilder::new("s");
        if cyclic {
            b.relation("A", &["v"], &[("to_b", "B")]);
            b.relation("B", &["w"], &[("to_a", "A")]);
        } else {
            b.relation("HOTELS", &["price"], &[]);
            b.relation("FLIGHTS", &["price"], &[("hotel", "HOTELS")]);
        }
        let root = b.root_task("Root");
        let _ = b.id_var(root, "x");
        b.build().unwrap().schema.database
    }

    #[test]
    fn generated_instances_satisfy_dependencies() {
        let s = schema(false);
        let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
        let db = generator.generate(&s);
        assert_eq!(db.cardinality(RelationId(0)), 8);
        assert_eq!(db.cardinality(RelationId(1)), 8);
        assert!(db.check_foreign_keys(&s).is_ok());
    }

    #[test]
    fn cyclic_schemas_are_handled() {
        let s = schema(true);
        let mut generator = DatabaseGenerator::new(GeneratorConfig {
            rows_per_relation: 4,
            ..GeneratorConfig::default()
        });
        let db = generator.generate(&s);
        assert!(db.check_foreign_keys(&s).is_ok());
        assert_eq!(db.total_rows(), 8);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = schema(false);
        let mut g1 = DatabaseGenerator::new(GeneratorConfig {
            seed: 7,
            ..GeneratorConfig::default()
        });
        let mut g2 = DatabaseGenerator::new(GeneratorConfig {
            seed: 7,
            ..GeneratorConfig::default()
        });
        assert_eq!(g1.generate(&s), g2.generate(&s));
        let mut g3 = DatabaseGenerator::new(GeneratorConfig {
            seed: 8,
            ..GeneratorConfig::default()
        });
        assert_ne!(g1.generate(&s), g3.generate(&s));
    }
}
