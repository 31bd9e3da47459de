//! Vector Addition Systems with States (VASS).
//!
//! Section 4.2 of the paper reduces the per-task relations `R_T` to state
//! reachability and state *repeated* reachability questions on VASS whose
//! states encode symbolic task configurations and whose vector dimensions are
//! the TS-isomorphism-type counters of the artifact relation. This crate is
//! the decision-procedure substrate for those questions:
//!
//! * [`Vass`] — explicit VASS with integer-delta actions, and
//!   [`SparseActions`], the sparse action list a VASS is built from;
//! * [`CoverabilityGraph`] — the Karp–Miller coverability graph with
//!   ω-acceleration, built exactly or with antichain subsumption pruning
//!   ([`CoverabilityGraph::build_pruned`], the build behind every Lemma 21
//!   query of the verifier);
//! * [`Vass::state_reachable`] — control-state reachability over the exact
//!   build (the question behind the *returning* and *blocking* paths of
//!   Lemma 21, which the verifier answers on its pruned builds);
//! * [`Vass::state_repeated_reachable`] — repeated reachability (the *lasso*
//!   paths of Lemma 21): a reachable configuration with control state `q_f`
//!   from which the same control state is reached again with componentwise
//!   no-smaller counters.
//!
//! The paper cites the Rackoff/Habermehl EXPSPACE bounds for these problems;
//! Karp–Miller is the standard practical algorithm deciding the same queries
//! (see DESIGN.md §5.2 for the substitution note). Lasso detection asks for a
//! cycle through the target state whose summed action effect is componentwise
//! non-negative; the [`cycle`] module decides this exactly — no cycle-length
//! bound — by circulation feasibility per strongly connected component,
//! solved with the exact rational simplex of `has-arith` and
//! Kosaraju–Sullivan support refinement for connectivity. One routine,
//! [`cycle::nonneg_cycle_search`], both decides and, when a lasso exists
//! and fits the caller's cap, materializes the witnessing closed walk (scale
//! the circulation to integers, thread an Eulerian circuit), which the
//! verifier renders as the pump cycle of a counterexample report
//! ([`CoverabilityGraph::nonneg_cycle_through`]); a cap of 0 asks for the
//! decision alone.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod coverability;
pub mod cycle;
pub mod dense;
pub mod vass;

pub use coverability::{CoverabilityGraph, KmScratch, Marking, NodeRef, OMEGA};
pub use cycle::{nonneg_cycle_search, strongly_connected_components, CycleSearch, DeltaEdge};
pub use dense::{fx_hash, BitSet, FxBuildHasher, FxHashMap, FxHasher, Interner};
pub use vass::{Action, ActionCsr, SparseActions, Vass};
