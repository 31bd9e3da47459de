//! HLTL-FO: hierarchical LTL with first-order (quantifier-free) propositions
//! (Section 3, Definition 12).
//!
//! An HLTL-FO formula over an artifact system is an expression `[φ]_{T1}`
//! where `φ` is an LTL formula whose propositions are interpreted as
//!
//! * quantifier-free conditions over the variables of the task the formula is
//!   attached to,
//! * occurrences of services observable by that task, or
//! * sub-formulas `[ψ]_{Tc}` evaluated on the local run of a child task `Tc`
//!   spawned at the current position.
//!
//! Following the simplifications of Appendix B.5 (Lemma 30) we work without
//! global variables and without set atoms: both can be compiled away at the
//! specification level.
//!
//! The verifier needs, for each task `T`, the set `Φ_T` of sub-formulas
//! attached to `T` and, for each truth assignment `β` over `Φ_T`, a single
//! LTL formula to turn into a Büchi automaton `B(T, β)`. [`HltlFormula::flatten`]
//! produces exactly that view.

use crate::ltl::Ltl;
use has_model::{ArtifactSystem, Condition, ServiceRef, TaskId};
use std::collections::BTreeMap;
use std::fmt;

/// Index of an interpreted proposition within an [`HltlFormula`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropId(pub usize);

/// An interpreted proposition of an HLTL-FO formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HltlProp {
    /// A quantifier-free condition over the variables of the formula's task.
    Condition(Condition),
    /// "The current service is `σ`", for `σ ∈ Σ^obs_T`.
    Service(ServiceRef),
    /// `[ψ]_{Tc}`: the child task `Tc` is opened at this position and the
    /// resulting local run of `Tc` satisfies `ψ`.
    Child(TaskId, Box<HltlFormula>),
}

/// An HLTL-FO formula `[φ]_T`: an LTL skeleton over interpreted propositions,
/// attached to a task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HltlFormula {
    /// The task the formula speaks about.
    pub task: TaskId,
    /// The LTL skeleton; propositions index into [`HltlFormula::props`].
    pub ltl: Ltl<PropId>,
    /// The interpreted propositions.
    pub props: Vec<HltlProp>,
}

/// A proposition of the per-task *flattened* view: the child sub-formula is
/// replaced by its index in `Φ_{Tc}`, giving a canonical, hashable
/// proposition space per task.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskProp {
    /// A condition over the task's variables.
    Condition(Condition),
    /// A service occurrence.
    Service(ServiceRef),
    /// The `phi_index`-th formula of `Φ_{child}` holds for the child run
    /// opened at this position.
    Child {
        /// The child task.
        child: TaskId,
        /// Index into the flattened `Φ_{child}` list.
        phi_index: usize,
    },
}

/// The flattened, per-task view of an HLTL-FO property: for every task `T`,
/// the list `Φ_T` of LTL formulas (over [`TaskProp`]) attached to `T`.
#[derive(Clone, Debug)]
pub struct FlattenedProperty {
    /// `Φ_T` for every task mentioned by the property.
    pub per_task: BTreeMap<TaskId, Vec<Ltl<TaskProp>>>,
    /// The task the root formula is attached to (always the system root for
    /// well-formed properties).
    pub root_task: TaskId,
    /// Index of the root formula within `per_task[root_task]`.
    pub root_index: usize,
}

impl FlattenedProperty {
    /// The formulas `Φ_T` attached to a task (empty slice if none).
    pub fn phi(&self, task: TaskId) -> &[Ltl<TaskProp>] {
        self.per_task.get(&task).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of flattened formulas (a size measure used in reports).
    pub fn total_formulas(&self) -> usize {
        self.per_task.values().map(Vec::len).sum()
    }
}

impl HltlFormula {
    /// Creates a formula, checking that every proposition index used by the
    /// LTL skeleton is in range.
    ///
    /// # Panics
    /// Panics if the skeleton references an out-of-range proposition.
    pub fn new(task: TaskId, ltl: Ltl<PropId>, props: Vec<HltlProp>) -> Self {
        for p in ltl.propositions() {
            assert!(
                p.0 < props.len(),
                "LTL skeleton references proposition {} but only {} are defined",
                p.0,
                props.len()
            );
        }
        HltlFormula { task, ltl, props }
    }

    /// The negated property `[¬φ]_T` (used by the verifier, which searches
    /// for a run satisfying the negation).
    pub fn negated(&self) -> Self {
        HltlFormula {
            task: self.task,
            ltl: self.ltl.clone().not(),
            props: self.props.clone(),
        }
    }

    /// Structural well-formedness with respect to an artifact system:
    ///
    /// * conditions only mention variables of the formula's task;
    /// * service propositions are observable by the formula's task;
    /// * child sub-formulas are attached to actual children of the task and
    ///   are themselves well-formed.
    pub fn validate(&self, system: &ArtifactSystem) -> Result<(), String> {
        let schema = &system.schema;
        let task = schema.task(self.task);
        for prop in &self.props {
            match prop {
                HltlProp::Condition(c) => {
                    for v in c.variables() {
                        if !task.variables.contains(&v) {
                            return Err(format!(
                                "condition proposition of `[..]_{}` mentions variable `{}` not owned by the task",
                                task.name,
                                schema.variable(v).name
                            ));
                        }
                    }
                }
                HltlProp::Service(s) => {
                    if !schema.observable_services(self.task).contains(s) {
                        return Err(format!(
                            "service proposition {:?} is not observable by task `{}`",
                            s, task.name
                        ));
                    }
                }
                HltlProp::Child(child, sub) => {
                    if !task.children.contains(child) {
                        return Err(format!(
                            "child sub-formula refers to `{}` which is not a child of `{}`",
                            schema.task(*child).name,
                            task.name
                        ));
                    }
                    if sub.task != *child {
                        return Err(format!(
                            "child sub-formula of `{}` is attached to the wrong task",
                            task.name
                        ));
                    }
                    sub.validate(system)?;
                }
            }
        }
        Ok(())
    }

    /// Flattens the formula into the per-task `Φ_T` lists used by the
    /// verifier. Identical sub-formulas of the same task are registered once.
    pub fn flatten(&self) -> FlattenedProperty {
        let mut out = FlattenedProperty {
            per_task: BTreeMap::new(),
            root_task: self.task,
            root_index: 0,
        };
        out.root_index = Self::register(self, &mut out);
        out
    }

    /// Registers `formula` in `out.per_task[formula.task]`, returning its
    /// index; children are registered recursively first.
    fn register(formula: &HltlFormula, out: &mut FlattenedProperty) -> usize {
        // Convert props, registering children first so their indices exist.
        let converted: Vec<TaskProp> = formula
            .props
            .iter()
            .map(|p| match p {
                HltlProp::Condition(c) => TaskProp::Condition(c.clone()),
                HltlProp::Service(s) => TaskProp::Service(*s),
                HltlProp::Child(child, sub) => {
                    let idx = Self::register(sub, out);
                    TaskProp::Child {
                        child: *child,
                        phi_index: idx,
                    }
                }
            })
            .collect();
        let ltl: Ltl<TaskProp> = formula.ltl.map_props(&|PropId(i)| converted[*i].clone());
        let list = out.per_task.entry(formula.task).or_default();
        if let Some(existing) = list.iter().position(|f| *f == ltl) {
            existing
        } else {
            list.push(ltl);
            list.len() - 1
        }
    }

    /// All tasks mentioned (transitively) by the formula.
    pub fn tasks(&self) -> Vec<TaskId> {
        let mut out = vec![self.task];
        for p in &self.props {
            if let HltlProp::Child(_, sub) = p {
                out.extend(sub.tasks());
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Nesting depth of child sub-formulas (1 for a purely local formula).
    pub fn nesting_depth(&self) -> usize {
        1 + self
            .props
            .iter()
            .filter_map(|p| match p {
                HltlProp::Child(_, sub) => Some(sub.nesting_depth()),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for HltlFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]_T{}", self.ltl, self.task.0)
    }
}

impl fmt::Display for PropId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Convenience builder for HLTL-FO formulas attached to a task.
///
/// ```
/// use has_ltl::hltl::HltlBuilder;
/// use has_model::{Condition, SystemBuilder};
///
/// let mut b = SystemBuilder::new("demo");
/// let root = b.root_task("Main");
/// let x = b.id_var(root, "x");
/// let system = b.build().unwrap();
///
/// let mut hb = HltlBuilder::new(root);
/// let p = hb.condition(Condition::not_null(x));
/// let formula = hb.finish(p.eventually());
/// assert!(formula.validate(&system).is_ok());
/// ```
#[derive(Debug)]
pub struct HltlBuilder {
    task: TaskId,
    props: Vec<HltlProp>,
}

impl HltlBuilder {
    /// Starts building a formula attached to `task`.
    pub fn new(task: TaskId) -> Self {
        HltlBuilder {
            task,
            props: Vec::new(),
        }
    }

    fn add(&mut self, prop: HltlProp) -> Ltl<PropId> {
        // Reuse an existing identical proposition if present.
        if let Some(i) = self.props.iter().position(|p| *p == prop) {
            return Ltl::prop(PropId(i));
        }
        self.props.push(prop);
        Ltl::prop(PropId(self.props.len() - 1))
    }

    /// A condition proposition.
    pub fn condition(&mut self, c: Condition) -> Ltl<PropId> {
        self.add(HltlProp::Condition(c))
    }

    /// A service-occurrence proposition.
    pub fn service(&mut self, s: ServiceRef) -> Ltl<PropId> {
        self.add(HltlProp::Service(s))
    }

    /// A child sub-formula proposition `[ψ]_{child}`.
    pub fn child(&mut self, child: TaskId, sub: HltlFormula) -> Ltl<PropId> {
        self.add(HltlProp::Child(child, Box::new(sub)))
    }

    /// Finishes the formula with the given LTL skeleton.
    pub fn finish(self, ltl: Ltl<PropId>) -> HltlFormula {
        HltlFormula::new(self.task, ltl, self.props)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_model::{SetUpdate, SystemBuilder};

    fn two_level_system() -> (ArtifactSystem, TaskId, TaskId) {
        let mut b = SystemBuilder::new("t");
        let root = b.root_task("Root");
        let x = b.id_var(root, "x");
        b.input_vars(root, &[x]);
        b.internal_service(
            root,
            "go",
            Condition::True,
            Condition::True,
            SetUpdate::None,
        );
        let child = b.child_task(root, "Child");
        let cx = b.id_var(child, "cx");
        b.map_input(child, cx, x);
        let sys = b.build().unwrap();
        let root_id = sys.root();
        let child_id = sys.schema.task_by_name("Child").unwrap();
        (sys, root_id, child_id)
    }

    #[test]
    fn builder_constructs_valid_formula() {
        let (sys, root, child) = two_level_system();
        let x = sys.schema.var_by_name(root, "x").unwrap();
        let cx = sys.schema.var_by_name(child, "cx").unwrap();

        let mut cb = HltlBuilder::new(child);
        let c = cb.condition(Condition::not_null(cx));
        let child_formula = cb.finish(c.globally());

        let mut rb = HltlBuilder::new(root);
        let open = rb.service(ServiceRef::Opening(child));
        let sub = rb.child(child, child_formula);
        let cond = rb.condition(Condition::not_null(x));
        let formula = rb.finish(open.implies(sub).and(cond.eventually()).globally());

        assert!(formula.validate(&sys).is_ok());
        assert_eq!(formula.tasks(), vec![root, child]);
        assert_eq!(formula.nesting_depth(), 2);
    }

    #[test]
    fn validation_rejects_foreign_variables() {
        let (sys, root, child) = two_level_system();
        let cx = sys.schema.var_by_name(child, "cx").unwrap();
        let mut rb = HltlBuilder::new(root);
        let bad = rb.condition(Condition::not_null(cx));
        let formula = rb.finish(bad);
        assert!(formula.validate(&sys).is_err());
    }

    #[test]
    fn validation_rejects_non_child_subformula() {
        let (sys, root, child) = two_level_system();
        let mut cb = HltlBuilder::new(child);
        let t = cb.condition(Condition::True);
        let child_formula = cb.finish(t);
        // Attach the "child" formula to the root as if it were a child of the
        // child task (wrong direction).
        let mut cb2 = HltlBuilder::new(child);
        let sub = cb2.child(root, {
            let mut rb = HltlBuilder::new(root);
            let t = rb.condition(Condition::True);
            rb.finish(t)
        });
        let bad = cb2.finish(sub.and(Ltl::prop(PropId(0)).or(Ltl::True)));
        assert!(bad.validate(&sys).is_err());
        // The original child formula is fine when attached below the root.
        let mut rb = HltlBuilder::new(root);
        let ok = rb.child(child, child_formula);
        assert!(rb.finish(ok).validate(&sys).is_ok());
    }

    #[test]
    fn flatten_groups_formulas_per_task_and_dedups() {
        let (_sys, root, child) = two_level_system();
        let mk_child = || {
            let mut cb = HltlBuilder::new(child);
            let t = cb.condition(Condition::True);
            cb.finish(t.eventually())
        };
        let mut rb = HltlBuilder::new(root);
        // The same child formula referenced twice should be registered once.
        let a = rb.child(child, mk_child());
        let b = rb.child(child, mk_child());
        let formula = rb.finish(a.and(b.eventually()));
        let flat = formula.flatten();
        assert_eq!(flat.root_task, root);
        assert_eq!(flat.phi(child).len(), 1);
        assert_eq!(flat.phi(root).len(), 1);
        assert_eq!(flat.total_formulas(), 2);
    }

    #[test]
    fn negation_wraps_the_skeleton() {
        let (_sys, root, _child) = two_level_system();
        let mut rb = HltlBuilder::new(root);
        let c = rb.condition(Condition::True);
        let formula = rb.finish(c.clone().globally());
        let neg = formula.negated();
        assert_eq!(neg.ltl, c.globally().not());
        assert_eq!(neg.props, formula.props);
    }

    #[test]
    #[should_panic]
    fn out_of_range_proposition_panics() {
        let _ = HltlFormula::new(TaskId(0), Ltl::prop(PropId(3)), vec![]);
    }
}
