//! The HAS verifier — the primary contribution of *Verification of
//! Hierarchical Artifact Systems* (Deutsch, Li, Vianu; PODS 2016).
//!
//! Given a Hierarchical Artifact System `Γ` and an HLTL-FO property
//! `φ = [ξ]_{T1}`, [`Verifier::verify`] decides whether every tree of local
//! runs of `Γ` (over every database satisfying the schema's key and
//! foreign-key dependencies) satisfies `φ`, by searching for a *symbolic tree
//! of runs* satisfying `[¬ξ]_{T1}` (Theorem 20 reduces the two problems to
//! each other):
//!
//! 1. the property is flattened into per-task LTL skeletons `Φ_T`
//!    ([`has_ltl::hltl`]), and for every task `T` and truth assignment `β`
//!    over `Φ_T` a Büchi automaton `B(T, β)` is built;
//! 2. bottom-up over the hierarchy, the relation `R_T(τ_in, τ_out, β)` of
//!    Section 4.2 is computed: a per-task VASS `V(T, β)` is constructed whose
//!    control states combine a symbolic state (restricted T-isomorphism
//!    type), a Büchi state, and the status of child calls, and whose counters
//!    track artifact-relation contents per TS-isomorphism type; the
//!    returning / lasso / blocking paths of Lemma 21 are found with
//!    Karp–Miller coverability queries ([`has_vass`]);
//! 3. `Γ ⊨ φ` iff no `(τ_in, ⊥, β)` with `β(ξ) = 0` and `τ_in ⊨ Π` belongs to
//!    `R_{T1}`.
//!
//! Engineering deviations from the paper's worst-case constructions (lazy
//! state enumeration, the restriction of isomorphism types to the
//! specification's observable expressions, the treatment of arithmetic) are
//! catalogued in DESIGN.md §5 together with the direction in which each can
//! affect precision.
//!
//! The engine runs on one readiness scheduler with up to
//! [`VerifierConfig::threads`] workers (one worker runs inline): the
//! `(T, β)` explorations of a task are independent given its children's
//! committed `R_T`, so they are released as soon as those commit. The
//! reported [`Outcome`] and [`Stats`] are identical at every thread count —
//! DESIGN.md §5.6 states the determinism contract.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod compiled;
pub mod outcome;
pub mod property;
pub mod task_verifier;
pub mod verifier;

pub use outcome::{Outcome, Stats, Violation, ViolationKind, WitnessNode, WitnessStep};
pub use property::PropertyContext;
pub use verifier::{Verifier, VerifierConfig};
