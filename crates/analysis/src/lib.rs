//! Static analysis of hierarchical artifact systems.
//!
//! Three passes over a validated [`ArtifactSystem`] (and optionally the
//! property to be verified), surfaced through one [`analyze`] entry point:
//!
//! 1. **Dataflow** ([`dataflow`](mod@dataflow)) — observable/written sets per variable;
//!    flags variables that are not observable (`HAS101`, including
//!    write-only artifact-relation columns; the verifier forgets exactly
//!    these from its symbolic states) and internal services whose effects
//!    are never observed (`HAS104`).
//! 2. **Dead services** ([`guards`]) — each guard's numeric/equality
//!    fragment is decided *exactly* with the Fourier–Motzkin engine of
//!    `has_arith`; unsatisfiable guards yield `HAS105`–`HAS108` and a
//!    [`DeadServiceMap`] the verifier uses to exclude the transitions from
//!    graph construction (the exclusion removes only spurious behavior of
//!    the optimistic abstraction — see DESIGN.md §5.9).
//! 3. **Counter influence** — per artifact relation, how services move its
//!    counters: write-only relations (`HAS102`), retrievals that can never
//!    fire for lack of any insertion (`HAS103`), and an informational
//!    summary (`HAS110`). The per-query refinement of the same idea — which
//!    counter *dimensions* can influence a verdict — is
//!    [`dimension_cone_multi`]; the verifier projects each `(T, β)` pair's
//!    coverability queries onto the union cone over its initial states.
//!
//! All findings flow through the [`Diagnostic`] type with stable `HASnnn`
//! codes; structural [`has_model::ValidationError`]s join the same stream
//! via `From` (`HAS001`–`HAS012`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cone;
pub mod dataflow;
pub mod diagnostic;
pub mod guards;

pub use cone::{dimension_cone_multi, DimensionCone};
pub use dataflow::{
    dataflow, dataflow_diagnostics, property_footprint, unobservable_vars, Dataflow,
    PropertyFootprint,
};
pub use diagnostic::{Diagnostic, Severity};
pub use guards::{guard_status, GuardStatus, ATOM_CAP};

use has_ltl::HltlFormula;
use has_model::{validate, ArtifactSystem, Condition, TaskId};
use std::collections::BTreeMap;
use std::fmt;

/// Which guards of one task are proven unsatisfiable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeadServices {
    /// Per internal service (by index): pre- or post-condition unsatisfiable.
    pub internal: Vec<bool>,
    /// The task's opening guard is unsatisfiable: the whole subtree rooted
    /// here is unreachable.
    pub opening: bool,
    /// The task's closing guard is unsatisfiable: the task can never return.
    pub closing: bool,
}

impl DeadServices {
    /// Whether any guard of the task is dead.
    pub fn any(&self) -> bool {
        self.opening || self.closing || self.internal.iter().any(|&d| d)
    }

    /// Number of dead guard sites in this task.
    pub fn count(&self) -> usize {
        self.internal.iter().filter(|&&d| d).count()
            + usize::from(self.opening)
            + usize::from(self.closing)
    }
}

/// Dead-guard verdicts for every task with at least one dead guard. The
/// verifier always consults this map and skips the corresponding
/// transitions during symbolic graph construction. Pruning adds precision:
/// the search resolves arithmetic atoms optimistically (DESIGN.md §5.5), so
/// an unpruned Fourier–Motzkin-dead guard could fire there.
pub type DeadServiceMap = BTreeMap<TaskId, DeadServices>;

/// Counters of the former query pre-solver. Nothing fills them any more, so
/// every field is always zero; the type is kept only because the frozen
/// benchmark driver (`perfbench/`) still reads it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Always zero.
    pub queries: usize,
    /// Always zero.
    pub decided: usize,
    /// Always zero.
    pub control: usize,
    /// Always zero.
    pub state_eq: usize,
    /// Always zero.
    pub counter_dfa: usize,
    /// Always zero.
    pub circulation: usize,
    /// Always zero.
    pub skipped_builds: usize,
    /// Always zero.
    pub bounded_dims: usize,
}

impl PresolveStats {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &PresolveStats) {
        self.queries += other.queries;
        self.decided += other.decided;
        self.control += other.control;
        self.state_eq += other.state_eq;
        self.counter_dfa += other.counter_dfa;
        self.circulation += other.circulation;
        self.skipped_builds += other.skipped_builds;
        self.bounded_dims += other.bounded_dims;
    }
}

/// The result of [`analyze`]: diagnostics plus the dead-service map the
/// verifier prunes with.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Tasks with proven-dead guards (absent task ⇒ nothing dead).
    pub dead: DeadServiceMap,
}

impl AnalysisReport {
    /// Whether any finding has `Error` severity (the model failed
    /// validation; verification would panic).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Total number of proven-dead guard sites across all tasks.
    pub fn dead_guard_count(&self) -> usize {
        self.dead.values().map(DeadServices::count).sum()
    }

    /// Findings of exactly the given severity.
    pub fn with_severity(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }
}

impl fmt::Display for AnalysisReport {
    /// Renders every diagnostic followed by a one-line summary, in the
    /// style of the verifier's outcome report.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        let errors = self.with_severity(Severity::Error).count();
        let warnings = self.with_severity(Severity::Warning).count();
        let infos = self.with_severity(Severity::Info).count();
        write!(
            f,
            "analysis: {errors} error(s), {warnings} warning(s), {infos} info(s); \
             {} dead guard site(s)",
            self.dead_guard_count()
        )
    }
}

/// Runs all analysis passes over `system` (and `property`, when given).
///
/// A system that fails structural validation reports the failure as an
/// `Error` diagnostic (`HAS001`–`HAS012`) and skips the semantic passes —
/// their results would be meaningless. On a valid system the report never
/// contains errors; warnings and infos point at dead weight and dead
/// guards, and [`AnalysisReport::dead`] feeds the verifier's pruning.
pub fn analyze(system: &ArtifactSystem, property: Option<&HltlFormula>) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    if let Err(err) = validate(system) {
        report.diagnostics.push(err.into());
        return report;
    }
    report
        .diagnostics
        .extend(dataflow_diagnostics(system, property));
    dead_service_pass(system, &mut report);
    counter_influence_pass(system, &mut report);
    report
        .diagnostics
        .sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(&b.code)));
    report
}

/// Decides every guard of every task, filling the dead-service map and the
/// `HAS105`–`HAS109` diagnostics. Tasks in subtrees already proven
/// unreachable (a dead opening guard on an ancestor) keep their dead-map
/// entries — the verifier still prunes them — but their individual guard
/// diagnostics are suppressed in favor of the single `HAS107` at the
/// subtree root.
fn dead_service_pass(system: &ArtifactSystem, report: &mut AnalysisReport) {
    let schema = &system.schema;
    let root = system.root();
    // Task liveness: the root is live; a child is live iff its parent is and
    // its opening guard is not proven unsatisfiable. Parents precede
    // children in builder order, but walk the tree explicitly to be safe.
    let mut live = vec![false; schema.task_count()];
    let mut opening_dead = vec![false; schema.task_count()];
    let mut stack = vec![root];
    live[root.0] = true;
    while let Some(tid) = stack.pop() {
        for &child in &schema.task(tid).children {
            let status = guard_status(schema, &schema.task(child).opening.pre);
            opening_dead[child.0] = status == GuardStatus::Unsatisfiable;
            live[child.0] = live[tid.0] && !opening_dead[child.0];
            stack.push(child);
        }
    }
    for (tid, task) in schema.tasks() {
        let mut dead = DeadServices {
            internal: vec![false; task.internal_services.len()],
            opening: opening_dead[tid.0],
            closing: false,
        };
        if dead.opening && live[task.parent.expect("non-root").0] {
            report.diagnostics.push(
                Diagnostic::warning(
                    107,
                    "opening guard is unsatisfiable: the task (and its whole \
                     subtree) can never start",
                )
                .with_task(task.name.clone()),
            );
        }
        for (idx, service) in task.internal_services.iter().enumerate() {
            let (pre, post) = (
                guard_status(schema, &service.pre),
                guard_status(schema, &service.post),
            );
            dead.internal[idx] =
                pre == GuardStatus::Unsatisfiable || post == GuardStatus::Unsatisfiable;
            if !live[tid.0] {
                continue;
            }
            if pre == GuardStatus::Unsatisfiable {
                report.diagnostics.push(
                    Diagnostic::warning(
                        105,
                        "service can never fire: its pre-condition is unsatisfiable",
                    )
                    .with_task(task.name.clone())
                    .with_service(service.name.clone()),
                );
            } else if post == GuardStatus::Unsatisfiable {
                report.diagnostics.push(
                    Diagnostic::warning(
                        106,
                        "service can never fire: its post-condition is unsatisfiable",
                    )
                    .with_task(task.name.clone())
                    .with_service(service.name.clone()),
                );
            } else if pre == GuardStatus::Unknown || post == GuardStatus::Unknown {
                report.diagnostics.push(
                    Diagnostic::info(
                        109,
                        "guard exceeds the atom cap; satisfiability not decided",
                    )
                    .with_task(task.name.clone())
                    .with_service(service.name.clone()),
                );
            }
        }
        // The root's closing guard is `False` by construction (the root
        // never returns); only flag children that can never return.
        if tid != root {
            dead.closing = guard_status(schema, &task.closing.pre) == GuardStatus::Unsatisfiable
                && task.closing.pre != Condition::False;
            if dead.closing && live[tid.0] {
                report.diagnostics.push(
                    Diagnostic::warning(
                        108,
                        "closing guard is unsatisfiable: the task can never return",
                    )
                    .with_task(task.name.clone()),
                );
            }
        }
        if dead.any() {
            report.dead.insert(tid, dead);
        }
    }
}

/// Model-level counter influence: how each artifact relation's counters are
/// moved (`HAS102`, `HAS103`) plus the informational summary (`HAS110`).
/// The per-query refinement is [`dimension_cone_multi`].
fn counter_influence_pass(system: &ArtifactSystem, report: &mut AnalysisReport) {
    for (_, task) in system.schema.tasks() {
        let Some(relation) = &task.artifact_relation else {
            continue;
        };
        let inserts = task
            .internal_services
            .iter()
            .filter(|s| s.delta.inserts())
            .count();
        let retrieves = task
            .internal_services
            .iter()
            .filter(|s| s.delta.retrieves())
            .count();
        if retrieves == 0 {
            let message = if inserts == 0 {
                format!(
                    "artifact relation `{}` is never used by any service",
                    relation.name
                )
            } else {
                format!(
                    "artifact relation `{}` is write-only: tuples are inserted \
                     but never retrieved",
                    relation.name
                )
            };
            report
                .diagnostics
                .push(Diagnostic::warning(102, message).with_task(task.name.clone()));
        } else if inserts == 0 {
            report.diagnostics.push(
                Diagnostic::warning(
                    103,
                    format!(
                        "artifact relation `{}` is never inserted into: its \
                         retrieving services can never fire",
                        relation.name
                    ),
                )
                .with_task(task.name.clone()),
            );
        }
        report.diagnostics.push(
            Diagnostic::info(
                110,
                format!(
                    "artifact relation `{}`: {inserts} inserting and {retrieves} \
                     retrieving service(s) move its counters",
                    relation.name
                ),
            )
            .with_task(task.name.clone()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_arith::{LinExpr, LinearConstraint, Rational};
    use has_model::{SetUpdate, SystemBuilder};

    /// x < 0 ∧ x > 0 — the canonical dead guard.
    fn dead_guard(x: has_model::VarId) -> Condition {
        Condition::arith(LinearConstraint::lt(LinExpr::var(x), LinExpr::zero())).and(
            Condition::arith(LinearConstraint::gt(LinExpr::var(x), LinExpr::zero())),
        )
    }

    #[test]
    fn dead_internal_pre_is_reported_and_mapped() {
        let mut b = SystemBuilder::new("dead");
        let root = b.root_task("Main");
        let x = b.num_var(root, "x");
        b.internal_service(
            root,
            "stuck",
            dead_guard(x),
            Condition::eq_const(x, Rational::from_int(1)),
            SetUpdate::None,
        );
        b.internal_service(
            root,
            "fine",
            Condition::True,
            Condition::eq_const(x, Rational::from_int(2)),
            SetUpdate::None,
        );
        let system = b.build().unwrap();
        let report = analyze(&system, None);
        assert!(!report.has_errors());
        assert!(report.diagnostics.iter().any(|d| d.code == 105), "{report}");
        assert_eq!(report.dead_guard_count(), 1);
        let dead = &report.dead[&system.root()];
        assert_eq!(dead.internal, vec![true, false]);
    }

    #[test]
    fn dead_opening_guard_silences_the_subtree() {
        let mut b = SystemBuilder::new("sub");
        let root = b.root_task("Main");
        let x = b.num_var(root, "x");
        let child = b.child_task(root, "Child");
        let y = b.num_var(child, "y");
        b.open_when(child, dead_guard(x));
        // A dead internal guard inside the unreachable subtree.
        b.internal_service(
            child,
            "inner",
            dead_guard(y),
            Condition::True,
            SetUpdate::None,
        );
        let system = b.build().unwrap();
        let report = analyze(&system, None);
        assert!(report.diagnostics.iter().any(|d| d.code == 107), "{report}");
        // The inner dead guard is recorded for pruning but not reported.
        assert!(
            !report.diagnostics.iter().any(|d| d.code == 105),
            "{report}"
        );
        let child_id = system.schema.task_by_name("Child").unwrap();
        assert!(report.dead[&child_id].opening);
        assert_eq!(report.dead[&child_id].internal, vec![true]);
    }

    #[test]
    fn unsat_closing_guard_is_flagged_but_root_false_is_not() {
        let mut b = SystemBuilder::new("close");
        let root = b.root_task("Main");
        let _x = b.num_var(root, "x");
        let child = b.child_task(root, "Child");
        let y = b.num_var(child, "y");
        b.close_when(child, dead_guard(y));
        let system = b.build().unwrap();
        let report = analyze(&system, None);
        let has108: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == 108)
            .collect();
        assert_eq!(has108.len(), 1, "{report}");
        assert_eq!(has108[0].task.as_deref(), Some("Child"));
    }

    #[test]
    fn relation_usage_is_classified() {
        let mut b = SystemBuilder::new("rel");
        let root = b.root_task("Main");
        let item = b.id_var(root, "item");
        b.artifact_relation(root, "SET", &[item]);
        b.internal_service(
            root,
            "stash",
            Condition::not_null(item),
            Condition::True,
            SetUpdate::Insert,
        );
        let system = b.build().unwrap();
        let report = analyze(&system, None);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == 102 && d.message.contains("write-only")),
            "{report}"
        );
        assert!(report.diagnostics.iter().any(|d| d.code == 110), "{report}");
    }

    #[test]
    fn invalid_system_reports_an_error_and_skips_semantics() {
        let mut b = SystemBuilder::new("bad");
        let root = b.root_task("Main");
        let _x = b.num_var(root, "x");
        let child = b.child_task(root, "Child");
        let y = b.num_var(child, "y");
        let mut system = b.build().unwrap();
        // Break validation after the fact: the root guard mentions a
        // variable owned by the child task.
        system.schema.tasks[root.0]
            .internal_services
            .push(has_model::InternalService {
                name: "ghost".into(),
                pre: Condition::is_null(y),
                post: Condition::True,
                delta: SetUpdate::None,
            });
        let report = analyze(&system, None);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.dead.is_empty());
    }

    #[test]
    fn report_renders_diagnostics_and_summary() {
        let mut b = SystemBuilder::new("render");
        let root = b.root_task("Main");
        let x = b.num_var(root, "x");
        b.internal_service(
            root,
            "stuck",
            dead_guard(x),
            Condition::True,
            SetUpdate::None,
        );
        let system = b.build().unwrap();
        let text = analyze(&system, None).to_string();
        assert!(text.contains("warning[HAS105]"), "{text}");
        assert!(text.contains("dead guard site(s)"), "{text}");
    }
}
