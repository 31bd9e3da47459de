//! Database schemas (Definition 1) and foreign-key graph analysis.
//!
//! Every relation has a key attribute `ID`, a set of foreign-key attributes
//! each referencing the `ID` of some relation, and a set of numeric non-key
//! attributes. The shape of the induced foreign-key graph — acyclic,
//! linearly-cyclic (every relation on at most one simple cycle) or cyclic —
//! is the parameter that drives the complexity columns of Tables 1 and 2, so
//! the classification is computed here once and reused by the verifier, the
//! workload generators and the benchmarks.

use crate::ids::RelationId;
use std::collections::BTreeSet;
use std::fmt;

/// The kind of a relation attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// The key attribute `ID`. Exactly one per relation, always attribute 0.
    Key,
    /// A numeric (real-valued) non-key attribute.
    Numeric,
    /// A foreign-key attribute referencing the `ID` of the given relation.
    ForeignKey(RelationId),
}

/// A relation attribute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: String,
    /// Kind of the attribute.
    pub kind: AttrKind,
}

/// A database relation `R(ID, A₁..Aₙ, F₁..Fₘ)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    /// Relation name, unique within the schema.
    pub name: String,
    /// Attributes; index 0 is always the key attribute `ID`.
    pub attributes: Vec<Attribute>,
}

impl Relation {
    /// Arity of the relation (number of attributes including the key).
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Indices and target relations of the foreign-key attributes.
    pub fn foreign_keys(&self) -> impl Iterator<Item = (usize, RelationId)> + '_ {
        self.attributes
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a.kind {
                AttrKind::ForeignKey(r) => Some((i, r)),
                _ => None,
            })
    }

    /// Indices of the numeric attributes.
    pub fn numeric_attributes(&self) -> impl Iterator<Item = usize> + '_ {
        self.attributes
            .iter()
            .enumerate()
            .filter_map(|(i, a)| matches!(a.kind, AttrKind::Numeric).then_some(i))
    }

    /// Looks up an attribute index by name.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }
}

/// Classification of the foreign-key graph of a schema (Section 2 and
/// Appendix C.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchemaClass {
    /// No cycles in the foreign-key graph.
    Acyclic,
    /// Every relation lies on at most one simple cycle.
    LinearlyCyclic,
    /// Arbitrary cycles.
    Cyclic,
}

impl fmt::Display for SchemaClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchemaClass::Acyclic => "acyclic",
            SchemaClass::LinearlyCyclic => "linearly-cyclic",
            SchemaClass::Cyclic => "cyclic",
        };
        f.write_str(s)
    }
}

/// A database schema: a set of relations with key and foreign-key
/// constraints (Definition 1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatabaseSchema {
    /// The relations of the schema, indexed by [`RelationId`].
    pub relations: Vec<Relation>,
}

impl DatabaseSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Returns `true` if the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The relation with the given id.
    pub fn relation(&self, id: RelationId) -> &Relation {
        &self.relations[id.0]
    }

    /// Looks up a relation by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.relations
            .iter()
            .position(|r| r.name == name)
            .map(RelationId)
    }

    /// Iterates over `(id, relation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RelationId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelationId(i), r))
    }

    /// Maximum arity over all relations.
    pub fn max_arity(&self) -> usize {
        self.relations
            .iter()
            .map(Relation::arity)
            .max()
            .unwrap_or(0)
    }

    /// The edges of the foreign-key graph `FK`: one edge `(from, to)` per
    /// foreign-key attribute.
    pub fn fk_edges(&self) -> Vec<(RelationId, RelationId)> {
        let mut edges = Vec::new();
        for (id, rel) in self.iter() {
            for (_, target) in rel.foreign_keys() {
                edges.push((id, target));
            }
        }
        edges
    }

    /// Classifies the schema as acyclic, linearly-cyclic or cyclic.
    pub fn classify(&self) -> SchemaClass {
        if self.is_acyclic() {
            SchemaClass::Acyclic
        } else if self.is_linearly_cyclic() {
            SchemaClass::LinearlyCyclic
        } else {
            SchemaClass::Cyclic
        }
    }

    /// Returns `true` if the foreign-key graph has no cycle.
    pub fn is_acyclic(&self) -> bool {
        // Kahn-style topological sort over FK edges.
        let n = self.relations.len();
        let mut out_degree = vec![0usize; n];
        let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (from, to) in self.fk_edges() {
            out_degree[from.0] += 1;
            incoming[to.0].push(from.0);
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| out_degree[i] == 0).collect();
        let mut removed = 0usize;
        while let Some(v) = stack.pop() {
            removed += 1;
            for &u in &incoming[v] {
                out_degree[u] -= 1;
                if out_degree[u] == 0 {
                    stack.push(u);
                }
            }
        }
        removed == n
    }

    /// Returns `true` if every relation lies on at most one simple cycle of
    /// the foreign-key graph.
    ///
    /// This enumerates simple cycles (the FK graphs of HAS schemas are tiny —
    /// a handful of relations), counting for each node the number of distinct
    /// simple cycles through it.
    pub fn is_linearly_cyclic(&self) -> bool {
        let n = self.relations.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (from, to) in self.fk_edges() {
            if !adj[from.0].contains(&to.0) {
                adj[from.0].push(to.0);
            }
        }
        // Count simple cycles through each node by DFS enumeration of simple
        // cycles with a canonical least starting node (Johnson-style but
        // naive, adequate for schema-sized graphs).
        let mut cycles_through = vec![0usize; n];
        let mut cycles: BTreeSet<Vec<usize>> = BTreeSet::new();
        for start in 0..n {
            let mut path = vec![start];
            let mut on_path = vec![false; n];
            on_path[start] = true;
            Self::dfs_cycles(start, start, &adj, &mut path, &mut on_path, &mut cycles);
        }
        for cycle in &cycles {
            for &v in cycle {
                cycles_through[v] += 1;
            }
        }
        cycles_through.iter().all(|&c| c <= 1)
    }

    fn dfs_cycles(
        start: usize,
        current: usize,
        adj: &[Vec<usize>],
        path: &mut Vec<usize>,
        on_path: &mut Vec<bool>,
        cycles: &mut BTreeSet<Vec<usize>>,
    ) {
        for &next in &adj[current] {
            if next == start {
                // Canonicalize: cycles are recorded rotated to start at their
                // minimum node, so each simple cycle is counted once.
                let min_pos = path
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, v)| **v)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let mut canon = Vec::with_capacity(path.len());
                for k in 0..path.len() {
                    canon.push(path[(min_pos + k) % path.len()]);
                }
                cycles.insert(canon);
            } else if !on_path[next] && next > start {
                // Only explore nodes larger than `start` so each cycle is
                // enumerated from its minimum node exactly once.
                on_path[next] = true;
                path.push(next);
                Self::dfs_cycles(start, next, adj, path, on_path, cycles);
                path.pop();
                on_path[next] = false;
            }
        }
    }

    /// `F(n)`: the maximum, over all relations `R`, of the number of distinct
    /// foreign-key navigation paths of length at most `n` starting from `R`
    /// (Section 4.1, used to define the navigation depth `h(T)`).
    ///
    /// The count is capped at `cap` to keep it usable for cyclic schemas,
    /// where the true value grows exponentially.
    pub fn max_paths_up_to(&self, n: usize, cap: usize) -> usize {
        let mut best = 0usize;
        for (id, _) in self.iter() {
            let mut count = 0usize;
            // BFS over paths; each path is identified by its end relation and
            // remaining budget, but distinct paths must be counted, so we
            // track a frontier of path counts per relation.
            let mut frontier = vec![(id, 0usize)];
            while let Some((rel, len)) = frontier.pop() {
                if len >= n {
                    continue;
                }
                for (_, target) in self.relation(rel).foreign_keys() {
                    count += 1;
                    if count >= cap {
                        return cap;
                    }
                    frontier.push((target, len + 1));
                }
            }
            best = best.max(count);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(name: &str, fks: &[(usize, &str)], nums: &[&str]) -> Relation {
        let mut attributes = vec![Attribute {
            name: "id".into(),
            kind: AttrKind::Key,
        }];
        for n in nums {
            attributes.push(Attribute {
                name: (*n).into(),
                kind: AttrKind::Numeric,
            });
        }
        for (target, n) in fks {
            attributes.push(Attribute {
                name: (*n).into(),
                kind: AttrKind::ForeignKey(RelationId(*target)),
            });
        }
        Relation {
            name: name.into(),
            attributes,
        }
    }

    #[test]
    fn star_schema_is_acyclic() {
        // Fact -> Dim1, Fact -> Dim2
        let schema = DatabaseSchema {
            relations: vec![
                rel("FACT", &[(1, "d1"), (2, "d2")], &["measure"]),
                rel("DIM1", &[], &["a"]),
                rel("DIM2", &[], &["b"]),
            ],
        };
        assert_eq!(schema.classify(), SchemaClass::Acyclic);
        assert!(schema.is_acyclic());
    }

    #[test]
    fn travel_schema_is_acyclic() {
        // FLIGHTS(id, price, comp_hotel_id -> HOTELS), HOTELS(id, ...)
        let schema = DatabaseSchema {
            relations: vec![
                rel("FLIGHTS", &[(1, "comp_hotel_id")], &["price"]),
                rel("HOTELS", &[], &["unit_price", "discount_price"]),
            ],
        };
        assert_eq!(schema.classify(), SchemaClass::Acyclic);
    }

    #[test]
    fn self_loop_is_linearly_cyclic() {
        // EMPLOYEE(id, manager_id -> EMPLOYEE)
        let schema = DatabaseSchema {
            relations: vec![rel("EMPLOYEE", &[(0, "manager_id")], &["salary"])],
        };
        assert_eq!(schema.classify(), SchemaClass::LinearlyCyclic);
        assert!(!schema.is_acyclic());
    }

    #[test]
    fn two_cycles_through_one_relation_is_cyclic() {
        // A -> B -> A  and  A -> C -> A : two simple cycles through A.
        let schema = DatabaseSchema {
            relations: vec![
                rel("A", &[(1, "to_b"), (2, "to_c")], &[]),
                rel("B", &[(0, "to_a")], &[]),
                rel("C", &[(0, "to_a")], &[]),
            ],
        };
        assert_eq!(schema.classify(), SchemaClass::Cyclic);
    }

    #[test]
    fn disjoint_cycles_are_linearly_cyclic() {
        // A <-> B and C <-> D: two cycles, but each relation on exactly one.
        let schema = DatabaseSchema {
            relations: vec![
                rel("A", &[(1, "to_b")], &[]),
                rel("B", &[(0, "to_a")], &[]),
                rel("C", &[(3, "to_d")], &[]),
                rel("D", &[(2, "to_c")], &[]),
            ],
        };
        assert_eq!(schema.classify(), SchemaClass::LinearlyCyclic);
    }

    #[test]
    fn path_counting_respects_cap() {
        let schema = DatabaseSchema {
            relations: vec![rel("A", &[(0, "next")], &[])],
        };
        assert_eq!(schema.max_paths_up_to(100, 16), 16);
        assert_eq!(schema.max_paths_up_to(3, 1000), 3);
    }

    #[test]
    fn relation_accessors() {
        let schema = DatabaseSchema {
            relations: vec![rel("FLIGHTS", &[(1, "comp_hotel_id")], &["price"])],
        };
        let r = schema.relation(RelationId(0));
        assert_eq!(r.arity(), 3);
        assert_eq!(r.attribute_index("price"), Some(1));
        assert_eq!(r.foreign_keys().count(), 1);
        assert_eq!(r.numeric_attributes().count(), 1);
        assert_eq!(schema.relation_by_name("FLIGHTS"), Some(RelationId(0)));
        assert_eq!(schema.relation_by_name("NOPE"), None);
        assert_eq!(schema.max_arity(), 3);
    }

    #[test]
    fn empty_schema_is_acyclic() {
        let schema = DatabaseSchema::new();
        assert!(schema.is_empty());
        assert_eq!(schema.classify(), SchemaClass::Acyclic);
    }
}
