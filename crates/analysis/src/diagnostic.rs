//! Structured diagnostics with stable codes.
//!
//! Every finding of the analyzer — and every structural [`ValidationError`] —
//! is reported as a [`Diagnostic`]: a stable `HASnnn` code, a severity, a
//! message, and the task/service the finding is anchored to. The multi-line
//! renderer follows the style of the verifier's outcome report (one headline
//! line, indented `↳` context lines), so validation and semantic analysis
//! share one reporting surface.
//!
//! Code ranges are stable across releases:
//!
//! * `HAS001`–`HAS012` — structural validation errors, one per
//!   [`ValidationError`] variant;
//! * `HAS101`–`HAS110` — semantic analyzer findings (dataflow, dead
//!   services, counter influence).

use has_model::ValidationError;
use std::fmt;

/// Severity of a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a property of the model worth knowing, not a defect.
    Info,
    /// Likely defect or dead weight; the model still verifies soundly.
    Warning,
    /// The model is not well-formed; verification results are meaningless.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: stable code, severity, message, and anchors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable numeric code (rendered as `HASnnn`).
    pub code: u16,
    /// Severity of the finding.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Name of the task the finding is anchored to, if any.
    pub task: Option<String>,
    /// Name of the service the finding is anchored to, if any.
    pub service: Option<String>,
}

impl Diagnostic {
    /// A new diagnostic with the given severity, code and message.
    pub fn new(severity: Severity, code: u16, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            task: None,
            service: None,
        }
    }

    /// An `Error`-severity diagnostic.
    pub fn error(code: u16, message: impl Into<String>) -> Self {
        Self::new(Severity::Error, code, message)
    }

    /// A `Warning`-severity diagnostic.
    pub fn warning(code: u16, message: impl Into<String>) -> Self {
        Self::new(Severity::Warning, code, message)
    }

    /// An `Info`-severity diagnostic.
    pub fn info(code: u16, message: impl Into<String>) -> Self {
        Self::new(Severity::Info, code, message)
    }

    /// This diagnostic anchored to a task name.
    #[must_use]
    pub fn with_task(mut self, task: impl Into<String>) -> Self {
        self.task = Some(task.into());
        self
    }

    /// This diagnostic anchored to a service name.
    #[must_use]
    pub fn with_service(mut self, service: impl Into<String>) -> Self {
        self.service = Some(service.into());
        self
    }

    /// The rendered stable code, e.g. `HAS105`.
    pub fn code_str(&self) -> String {
        format!("HAS{:03}", self.code)
    }
}

impl fmt::Display for Diagnostic {
    /// Multi-line rendering in the style of the verifier's outcome report:
    ///
    /// ```text
    /// warning[HAS105]: internal service can never fire: its pre-condition is unsatisfiable
    ///   ↳ task `ManageTrips`, service `StoreTrip`
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code_str(), self.message)?;
        match (&self.task, &self.service) {
            (Some(t), Some(s)) => write!(f, "\n  ↳ task `{t}`, service `{s}`"),
            (Some(t), None) => write!(f, "\n  ↳ task `{t}`"),
            (None, Some(s)) => write!(f, "\n  ↳ service `{s}`"),
            (None, None) => Ok(()),
        }
    }
}

/// Structural validation errors map onto `HAS001`–`HAS012`, one code per
/// variant, all at `Error` severity; variants that carry a task name anchor
/// the diagnostic to it. `validate()`'s `Result` API is unchanged — this
/// conversion is how [`crate::analyze`] folds a failed validation into the
/// shared reporting path.
impl From<ValidationError> for Diagnostic {
    fn from(err: ValidationError) -> Self {
        let code = match &err {
            ValidationError::NoRootTask => 1,
            ValidationError::UnknownRelation(_) => 2,
            ValidationError::BrokenHierarchy(_) => 3,
            ValidationError::ForeignVariable { .. } => 4,
            ValidationError::DuplicateVariableName(..) => 5,
            ValidationError::ConditionScope { .. } => 6,
            ValidationError::RelationArity { .. } => 7,
            ValidationError::SortMismatch(_) => 8,
            ValidationError::BadMapping(_) => 9,
            ValidationError::ReturnOverlapsInput { .. } => 10,
            ValidationError::BadArtifactTuple(_) => 11,
            ValidationError::PreconditionScope(_) => 12,
        };
        let task = match &err {
            ValidationError::ForeignVariable { task, .. }
            | ValidationError::ConditionScope { task, .. }
            | ValidationError::ReturnOverlapsInput { task, .. } => Some(task.clone()),
            ValidationError::DuplicateVariableName(task, _) => Some(task.clone()),
            _ => None,
        };
        let mut d = Diagnostic::error(code, err.to_string());
        if let Some(task) = task {
            d = d.with_task(task);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_renders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn renders_code_and_anchors() {
        let d = Diagnostic::warning(105, "service can never fire")
            .with_task("Main")
            .with_service("go");
        let s = d.to_string();
        assert!(s.starts_with("warning[HAS105]: service can never fire"), "{s}");
        assert!(s.contains("↳ task `Main`, service `go`"), "{s}");
    }

    #[test]
    fn validation_errors_get_stable_codes() {
        let d: Diagnostic = ValidationError::NoRootTask.into();
        assert_eq!((d.code, d.severity), (1, Severity::Error));
        let d: Diagnostic = ValidationError::ReturnOverlapsInput {
            task: "T".into(),
            variable: "x".into(),
        }
        .into();
        assert_eq!(d.code, 10);
        assert_eq!(d.task.as_deref(), Some("T"));
        let d: Diagnostic = ValidationError::PreconditionScope("v".into()).into();
        assert_eq!(d.code, 12);
    }
}
