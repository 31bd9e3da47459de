//! Typed index types used throughout the model.
//!
//! All model entities live in flat vectors owned by [`crate::ArtifactSchema`]
//! (or [`crate::DatabaseSchema`] for relations); the newtypes below are the
//! corresponding indices. Using distinct types keeps the verifier honest
//! about which numbering a `usize` belongs to.

use std::fmt;

/// Index of a relation within a [`crate::DatabaseSchema`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub usize);

/// Index of a task within an [`crate::ArtifactSchema`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Index of an artifact variable within an [`crate::ArtifactSchema`].
///
/// Variables are global to the schema; each belongs to exactly one task.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// A reference to a service, in the sense of the paper's `Σ^obs_T`:
/// the services *observable* in runs of a task `T` are its internal services,
/// its own opening/closing services, and the opening/closing services of its
/// children.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServiceRef {
    /// The `idx`-th internal service of the given task.
    Internal(TaskId, usize),
    /// The opening service `σ^o_T` of the given task.
    Opening(TaskId),
    /// The closing service `σ^c_T` of the given task.
    Closing(TaskId),
}

impl ServiceRef {
    /// The task the service belongs to (for opening/closing services of a
    /// child observed by the parent, this is the *child*).
    pub fn task(&self) -> TaskId {
        match self {
            ServiceRef::Internal(t, _) | ServiceRef::Opening(t) | ServiceRef::Closing(t) => *t,
        }
    }

    /// Returns `true` if this is an internal service.
    pub fn is_internal(&self) -> bool {
        matches!(self, ServiceRef::Internal(..))
    }
}

impl fmt::Debug for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Debug for ServiceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceRef::Internal(t, i) => write!(f, "σ[{:?}.{}]", t, i),
            ServiceRef::Opening(t) => write!(f, "σo[{:?}]", t),
            ServiceRef::Closing(t) => write!(f, "σc[{:?}]", t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_ref_accessors() {
        let t = TaskId(3);
        assert!(ServiceRef::Internal(t, 0).is_internal());
        assert_eq!(ServiceRef::Closing(t).task(), t);
        assert!(!ServiceRef::Opening(t).is_internal());
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", RelationId(2)), "R2");
        assert_eq!(format!("{:?}", TaskId(1)), "T1");
        assert_eq!(format!("{:?}", VarId(7)), "x7");
        assert_eq!(format!("{:?}", ServiceRef::Opening(TaskId(0))), "σo[T0]");
    }
}
