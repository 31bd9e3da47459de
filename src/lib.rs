//! Facade crate re-exporting the full Hierarchical Artifact System toolkit.
//!
//! See the individual crates for details:
//! - [`has_model`] — the HAS model (schemas, tasks, services, conditions)
//! - [`has_analysis`] — static analysis: dataflow, dead services, dimension cones
//! - [`has_data`] — concrete relational database substrate
//! - [`has_arith`] — linear arithmetic, cells, quantifier elimination
//! - [`has_ltl`] — LTL / Büchi automata / HLTL-FO
//! - [`has_symbolic`] — isomorphism types and symbolic runs
//! - [`has_vass`] — Vector Addition Systems with States
//! - [`has_core`] — the verifier (the paper's primary contribution)
//! - [`has_sim`] — concrete operational semantics and runtime monitoring
//! - [`has_workloads`] — example systems and parametric generators
//! - [`has_corpus`] — ground-truth seeded-violation corpus and differential fuzzing
//!
//! # Quick start
//!
//! Build a one-task system with a flag that a service can set, ask whether
//! the flag is *eventually* set on every run, and read the [`Outcome`]: the
//! property is violated (the idle service can loop forever), and the outcome
//! carries a symbolic witness plus exploration statistics.
//!
//! [`Outcome`]: verifier::Outcome
//!
//! ```
//! use has::arith::Rational;
//! use has::ltl::hltl::HltlBuilder;
//! use has::model::{Condition, SetUpdate, SystemBuilder};
//! use has::verifier::{Verifier, ViolationKind};
//!
//! // A system with one task, one numeric flag, and two services.
//! let mut b = SystemBuilder::new("quickstart");
//! let root = b.root_task("Main");
//! let flag = b.num_var(root, "flag");
//! b.internal_service(
//!     root,
//!     "set",
//!     Condition::True,
//!     Condition::eq_const(flag, Rational::from_int(1)),
//!     SetUpdate::None,
//! );
//! b.internal_service(root, "idle", Condition::True, Condition::True, SetUpdate::None);
//! let system = b.build().expect("well-formed system");
//!
//! // HLTL-FO property: the flag is eventually set.
//! let mut hb = HltlBuilder::new(system.root());
//! let set = hb.condition(Condition::eq_const(flag, Rational::from_int(1)));
//! let property = hb.finish(set.eventually());
//!
//! // Verify with the default configuration.
//! let outcome = Verifier::new(&system, &property).verify();
//!
//! // "F set" is violated by the run that only ever fires `idle`.
//! assert!(!outcome.holds);
//! let violation = outcome.violation.expect("a symbolic witness is reported");
//! assert_eq!(violation.task, system.root());
//! // The witnessing run is an infinite local loop — Lemma 21's lasso kind.
//! assert_eq!(violation.kind, ViolationKind::Lasso);
//! assert!(outcome.stats.control_states > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use has_analysis as analysis;
pub use has_arith as arith;
pub use has_core as verifier;
pub use has_corpus as corpus;
pub use has_data as data;
pub use has_ltl as ltl;
pub use has_model as model;
pub use has_sim as sim;
pub use has_symbolic as symbolic;
pub use has_vass as vass;
pub use has_workloads as workloads;
