//! Symbolic representation of local runs (Section 4.1 of the paper).
//!
//! The verifier never enumerates concrete databases or valuations. Instead,
//! each reachable situation of a task is summarized by a **symbolic state**:
//! an equality type over a finite universe of *expressions* — the task's
//! artifact variables, the constants `null` and `0`, and foreign-key
//! navigation expressions `x_R.w` anchored at the task's ID variables —
//! together with, for every ID variable, the relation its value is an
//! identifier of (or `null`). This is the paper's *T-isomorphism type*,
//! restricted to the navigation expressions that the task's conditions and
//! the property can actually observe (see DESIGN.md §5.3–5.4 for why this
//! restriction preserves the verification outcomes at the granularity of the
//! specification's atoms while keeping the state space tractable — the same
//! engineering choice made by the authors' later VERIFAS prototype).
//!
//! The crate provides:
//!
//! * [`Expr`] — navigation expressions and their sorts;
//! * [`TaskContext`] — the per-task expression universe and atom basis,
//!   derived from the specification and the property;
//! * [`SymState`] — the equality type itself, with congruence closure (key
//!   dependencies), condition evaluation, canonical projection keys
//!   (used for the TS-isomorphism-type counters and for the input/output
//!   types exchanged between tasks);
//! * [`successor`] — the internal services' post-state enumeration the
//!   verifier computes successors with, and the per-task cache
//!   ([`TaskContext::post_states`]) that shares each list between the
//!   task's truth assignments.
//!
//! # Worked example
//!
//! Build a one-task system with a numeric variable, derive the task's
//! symbolic context from the condition `y = 0`, and watch the equality type
//! decide that condition before and after the variable is rewritten:
//!
//! ```
//! use has_arith::Rational;
//! use has_model::{Condition, SystemBuilder};
//! use has_symbolic::{SymState, TaskContext};
//!
//! let mut b = SystemBuilder::new("demo");
//! let root = b.root_task("Main");
//! let y = b.num_var(root, "y");
//! let system = b.build().unwrap();
//!
//! // The expression universe contains exactly what the given conditions
//! // can observe — here the variable `y` and the constant `0`.
//! let zero = Condition::eq_const(y, Rational::ZERO);
//! let ctx = TaskContext::build(&system, root, &[zero.clone()], 1);
//!
//! // Initially every numeric variable sits in the `0` equivalence class …
//! let mut state = SymState::blank(&ctx, &system.schema);
//! assert_eq!(state.satisfies(&ctx, &zero), Some(true));
//!
//! // … and rewriting `y` to a fresh value separates it from `0`: the
//! // equality type now *determines* the condition to be false.
//! state.fresh_numeric(&ctx, y);
//! assert_eq!(state.satisfies(&ctx, &zero), Some(false));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod context;
pub mod expr;
pub mod state;
pub mod successor;
#[cfg(test)]
mod testing;

pub use context::TaskContext;
pub use expr::{Expr, Sort};
pub use state::{transfer_pattern, Correspondence, ProjectionKey, SymState};
