//! Parametric HAS families for the complexity experiments (Tables 1 and 2).
//!
//! [`GeneratorParams`] exposes exactly the knobs the paper's complexity
//! analysis identifies:
//!
//! * the **schema class** — acyclic, linearly-cyclic, or cyclic foreign keys
//!   (the columns of Tables 1 and 2);
//! * whether tasks carry **artifact relations** (the rows);
//! * whether conditions carry **arithmetic constraints** (Table 1 vs 2);
//! * the **hierarchy depth** `h` and branching width, and the number of
//!   variables per task (the size parameter `N`).
//!
//! [`generate`](GeneratorParams::generate) produces a well-formed system plus
//! a property whose verification exercises the whole pipeline (a nested
//! guarantee about every child invocation plus a root-level safety clause).
//!
//! [`generate_planted`](GeneratorParams::generate_planted) produces the same
//! base system extended with a [`Plant`]: a construction that makes the
//! instance *clean by construction* or plants exactly one violation of a
//! known kind (lasso / blocking / returning) with a known originating task.
//! The ground-truth corpus (`has-corpus`) scores the verifier against these
//! certificates; DESIGN.md §5.10 spells out why each plant is sound.

use has_arith::{LinExpr, LinearConstraint, Rational};
use has_ltl::hltl::{HltlBuilder, PropId};
use has_ltl::{HltlFormula, Ltl};
use has_model::{
    ArtifactSystem, Condition, SchemaClass, ServiceRef, SetUpdate, SystemBuilder, TaskId, Term,
    VarId,
};

/// Parameters of a generated verification instance.
#[derive(Clone, Debug)]
pub struct GeneratorParams {
    /// Foreign-key shape of the database schema.
    pub schema_class: SchemaClass,
    /// Depth of the task hierarchy (1 = a single root task).
    pub depth: usize,
    /// Number of children per non-leaf task.
    pub width: usize,
    /// Number of extra numeric variables per task.
    pub numeric_vars: usize,
    /// Whether tasks carry artifact relations (with insert/retrieve
    /// services).
    pub artifact_relations: bool,
    /// Whether conditions include linear arithmetic constraints.
    pub arithmetic: bool,
}

impl Default for GeneratorParams {
    fn default() -> Self {
        GeneratorParams {
            schema_class: SchemaClass::Acyclic,
            depth: 2,
            width: 1,
            numeric_vars: 1,
            artifact_relations: false,
            arithmetic: false,
        }
    }
}

/// A generated instance: the system, the property, and a label for reports.
#[derive(Clone, Debug)]
pub struct GeneratedSystem {
    /// The artifact system.
    pub system: ArtifactSystem,
    /// The property to verify.
    pub property: HltlFormula,
    /// Human-readable label (used in benchmark output).
    pub label: String,
}

impl GeneratorParams {
    /// The `depth ≫ width` stress family: a single chain of `depth` tasks
    /// (width 1, no artifact relations or arithmetic, acyclic schema).
    ///
    /// This shape is the scheduling worst case for a level-synchronized
    /// engine — every hierarchy level holds exactly one task, so level
    /// barriers serialize the whole run — which is what makes it the
    /// reference instance for the readiness-scheduler experiments (EXP-P1's
    /// deep-narrow row) and the deep-narrow determinism regression test.
    pub fn deep_narrow(depth: usize) -> GeneratorParams {
        GeneratorParams {
            schema_class: SchemaClass::Acyclic,
            depth,
            width: 1,
            numeric_vars: 1,
            artifact_relations: false,
            arithmetic: false,
        }
    }

    /// A short label describing the parameter point.
    pub fn label(&self) -> String {
        format!(
            "{}/{}ar/{}arith/d{}w{}v{}",
            self.schema_class,
            if self.artifact_relations { "+" } else { "-" },
            if self.arithmetic { "+" } else { "-" },
            self.depth,
            self.width,
            self.numeric_vars
        )
    }

    /// Generates the instance.
    pub fn generate(&self) -> GeneratedSystem {
        let Base {
            b,
            tasks: all_tasks,
            parent_of: _,
            vars,
        } = self.base();

        let system = b.build().expect("generated system is well-formed");

        // Property: every invoked child eventually finishes its work (status
        // flag set), and the root never reaches status 1 without having done
        // work — a mixed liveness/safety property with one level of nesting.
        let root_vars = &vars[0];
        let property = {
            let root_task = system.root();
            let mut rb = HltlBuilder::new(root_task);
            let worked = rb.condition(Condition::eq_const(root_vars.status, Rational::from_int(1)));
            let work_service = rb.service(ServiceRef::Internal(root_task, 0));
            let mut formula = worked.implies(work_service.or(Ltl::True)).globally();
            // One nested obligation per direct child of the root.
            for (i, &task) in all_tasks.iter().enumerate() {
                if system.task(task).parent == Some(root_task) {
                    let mut cb = HltlBuilder::new(task);
                    let done =
                        cb.condition(Condition::eq_const(vars[i].status, Rational::from_int(1)));
                    let psi = cb.finish(done.eventually());
                    let sub = rb.child(task, psi);
                    let open = rb.service(ServiceRef::Opening(task));
                    formula = formula.and(open.implies(sub).globally());
                }
            }
            rb.finish(formula)
        };

        GeneratedSystem {
            system,
            property,
            label: self.label(),
        }
    }

    /// Builds the base system shared by [`generate`](GeneratorParams::generate)
    /// and the planting constructions: schema, task tree, per-task variables
    /// and services, and parent/child wiring — everything up to (but not
    /// including) `SystemBuilder::build` and the property.
    fn base(&self) -> Base {
        let mut b = SystemBuilder::new("generated");

        // Database schema per class.
        match self.schema_class {
            SchemaClass::Acyclic => {
                b.relation("DIM", &["weight"], &[]);
                b.relation("FACT", &["measure"], &[("dim", "DIM")]);
            }
            SchemaClass::LinearlyCyclic => {
                b.relation("DIM", &["weight"], &[]);
                b.relation("FACT", &["measure"], &[("dim", "DIM"), ("next", "FACT")]);
            }
            SchemaClass::Cyclic => {
                b.relation("DIM", &["weight"], &[("back", "FACT")]);
                b.relation("FACT", &["measure"], &[("dim", "DIM"), ("next", "FACT")]);
            }
        }
        let fact = b.relation_id("FACT").unwrap();
        let fact_arity = 2 + match self.schema_class {
            SchemaClass::Acyclic => 1,
            SchemaClass::LinearlyCyclic | SchemaClass::Cyclic => 2,
        };

        // Build a complete tree of tasks of the requested depth/width,
        // remembering each task's parent index in the creation order.
        let root = b.root_task("T0");
        let mut all_tasks: Vec<TaskId> = vec![root];
        let mut parent_of: Vec<Option<usize>> = vec![None];
        let mut frontier: Vec<usize> = vec![0];
        for level in 1..self.depth {
            let mut next = Vec::new();
            for &pi in &frontier {
                for w in 0..self.width {
                    let child = b.child_task(all_tasks[pi], &format!("T{level}_{pi}_{w}"));
                    all_tasks.push(child);
                    parent_of.push(Some(pi));
                    next.push(all_tasks.len() - 1);
                }
            }
            frontier = next;
        }

        // Populate every task with variables and services.
        let mut vars: Vec<TaskVars> = Vec::new();
        for (i, &task) in all_tasks.iter().enumerate() {
            let item = b.id_var(task, &format!("item{i}"));
            let dim = b.id_var(task, &format!("dim{i}"));
            let status = b.num_var(task, &format!("status{i}"));
            let nums: Vec<_> = (0..self.numeric_vars)
                .map(|k| b.num_var(task, &format!("n{i}_{k}")))
                .collect();
            vars.push(TaskVars {
                item,
                dim,
                status,
                nums,
            });
        }

        for (i, &task) in all_tasks.iter().enumerate() {
            let tv = &vars[i];
            // A "work" service binding the item to a FACT tuple and setting
            // the status flag.
            let mut args = vec![Term::Var(tv.item)];
            args.push(Term::Var(tv.nums.first().copied().unwrap_or(tv.status)));
            args.push(Term::Var(tv.dim));
            if fact_arity == 4 {
                args.push(Term::Var(tv.item)); // self-referencing `next`
            }
            let mut post = Condition::relation(fact, args)
                .and(Condition::eq_const(tv.status, Rational::from_int(1)));
            if self.arithmetic {
                // A linear constraint chaining the numeric variables.
                for pair in tv.nums.windows(2) {
                    post = post.and(Condition::arith(LinearConstraint::ge(
                        LinExpr::var(pair[1]),
                        LinExpr::var(pair[0]) + LinExpr::constant(Rational::ONE),
                    )));
                }
                post = post.and(Condition::arith(LinearConstraint::ge(
                    LinExpr::var(tv.nums.first().copied().unwrap_or(tv.status)),
                    LinExpr::zero(),
                )));
            }
            b.internal_service(task, "Work", Condition::True, post, SetUpdate::None);
            let _ = task;
            // A reset service so runs can loop forever.
            b.internal_service(
                task,
                "Reset",
                Condition::True,
                Condition::is_null(tv.item).and(Condition::eq_const(tv.status, Rational::ZERO)),
                SetUpdate::None,
            );
            if self.artifact_relations {
                b.artifact_relation(task, &format!("SET{i}"), &[tv.item, tv.dim]);
                b.internal_service(
                    task,
                    "Stash",
                    Condition::not_null(tv.item),
                    Condition::is_null(tv.item),
                    SetUpdate::Insert,
                );
                b.internal_service(
                    task,
                    "Unstash",
                    Condition::True,
                    Condition::True,
                    SetUpdate::Retrieve,
                );
            }
        }

        // Wire parent/child openings, inputs and outputs.
        for (i, &task) in all_tasks.iter().enumerate() {
            let Some(pi) = parent_of[i] else { continue };
            let parent_item = vars[pi].item;
            let parent_status = vars[pi].status;
            let child_item = vars[i].item;
            let child_status = vars[i].status;
            b.open_when(
                task,
                Condition::eq_const(parent_status, Rational::from_int(1)),
            );
            b.map_input(task, child_item, parent_item);
            // Each child returns its status into a fresh parent variable to
            // respect restriction 3 (no overwrite of parent inputs).
            // The returned variable also gives the property something to say.
            let ret = b.num_var(all_tasks[pi], &format!("ret_from_{i}"));
            b.map_output(task, ret, child_status);
            b.close_when(
                task,
                Condition::eq_const(child_status, Rational::from_int(1)),
            );
        }

        Base {
            b,
            tasks: all_tasks,
            parent_of,
            vars,
        }
    }

    /// Generates the base instance extended with the given [`Plant`]: the
    /// property (and for [`Plant::Blocking`] / [`Plant::Returning`] one extra
    /// root child) is constructed so that the instance is clean by
    /// construction, or violated in exactly the planted way.
    pub fn generate_planted(&self, plant: Plant) -> PlantedSystem {
        let Base {
            mut b,
            tasks,
            parent_of,
            vars,
        } = self.base();

        // Structural plants append fresh material *after* the base
        // construction so the base task/variable identities are unchanged.
        let planted_child: Option<(TaskId, VarId)> = match plant {
            Plant::Blocking => {
                // A root child that provably never returns: its only service
                // keeps `sflag` at 0 while the closing condition demands 1.
                let stuck = b.child_task(tasks[0], "Stuck");
                let sflag = b.num_var(stuck, "sflag");
                b.internal_service(
                    stuck,
                    "Spin",
                    Condition::True,
                    Condition::eq_const(sflag, Rational::ZERO),
                    SetUpdate::None,
                );
                b.open_when(stuck, Condition::True);
                b.close_when(stuck, Condition::eq_const(sflag, Rational::from_int(1)));
                Some((stuck, sflag))
            }
            Plant::Returning => {
                // A serviceless, childless root child: its only runs return
                // immediately, with `pflag` still at its sort default 0 — so
                // every returned call violates `F pflag=1`.
                let probe = b.child_task(tasks[0], "Probe");
                let pflag = b.num_var(probe, "pflag");
                b.open_when(probe, Condition::True);
                b.close_when(probe, Condition::True);
                Some((probe, pflag))
            }
            _ => None,
        };

        let system = b.build().expect("planted system is well-formed");
        let root_task = system.root();
        // Direct *base* children of the root (the planted child excluded):
        // the escape disjuncts `∨ F open(c)` range over exactly these, so
        // violating runs are pinned to never invoke the base hierarchy.
        let base_children: Vec<(usize, TaskId)> = tasks
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| parent_of[i] == Some(0))
            .collect();

        let mut rb = HltlBuilder::new(root_task);
        let core: Ltl<PropId> = match plant {
            Plant::CleanTautology => {
                // `G (worked → worked)`: structurally non-trivial, true on
                // every run of every system.
                let worked =
                    rb.condition(Condition::eq_const(vars[0].status, Rational::from_int(1)));
                worked.clone().implies(worked).globally()
            }
            Plant::CleanDichotomy => {
                // `F worked ∨ G ¬worked`: a liveness-shaped semantic
                // tautology (either the flag is eventually set, or it never
                // is) exercising `F`/`G`/negation in the Büchi product.
                let worked =
                    rb.condition(Condition::eq_const(vars[0].status, Rational::from_int(1)));
                worked.clone().eventually().or(worked.not().globally())
            }
            Plant::CleanNested => {
                // `G (open c → [G (done → done)]_c)` per direct child: the
                // child sub-formula is a tautology, so every chosen child
                // tuple satisfies it and the implication always holds. With
                // no children this degenerates to the root tautology.
                let mut formula: Option<Ltl<PropId>> = None;
                for &(i, child) in &base_children {
                    let mut cb = HltlBuilder::new(child);
                    let done =
                        cb.condition(Condition::eq_const(vars[i].status, Rational::from_int(1)));
                    let psi = cb.finish(done.clone().implies(done).globally());
                    let sub = rb.child(child, psi);
                    let open = rb.service(ServiceRef::Opening(child));
                    let clause = open.implies(sub).globally();
                    formula = Some(match formula {
                        Some(f) => f.and(clause),
                        None => clause,
                    });
                }
                formula.unwrap_or_else(|| {
                    let worked =
                        rb.condition(Condition::eq_const(vars[0].status, Rational::from_int(1)));
                    worked.clone().implies(worked).globally()
                })
            }
            Plant::Lasso => {
                // `F status=7` is unsatisfiable (the base services only ever
                // set the status flag to 0 or 1), so violating runs must
                // falsify every escape disjunct too: they loop at the root
                // forever without opening any child — a lasso at the root.
                rb.condition(Condition::eq_const(vars[0].status, Rational::from_int(7)))
                    .eventually()
            }
            Plant::Blocking => {
                // Violating runs must open `Stuck` (falsifying `G ¬open`)
                // and never open a base child; once `Stuck` is open the root
                // can never move again, so every such run blocks on it.
                let (stuck, _) = planted_child.expect("blocking plants a child");
                rb.service(ServiceRef::Opening(stuck)).not().globally()
            }
            Plant::Returning => {
                // Violating runs must open `Probe` choosing a child tuple
                // whose β falsifies `F pflag=1` — and *every* run of the
                // serviceless `Probe` falsifies it, so the violation is
                // carried by a returned call originating in `Probe`.
                let (probe, pflag) = planted_child.expect("returning plants a child");
                let mut cb = HltlBuilder::new(probe);
                let set = cb.condition(Condition::eq_const(pflag, Rational::from_int(1)));
                let psi = cb.finish(set.eventually());
                let sub = rb.child(probe, psi);
                rb.service(ServiceRef::Opening(probe))
                    .implies(sub)
                    .globally()
            }
        };

        // Escape disjuncts: a run satisfying `F open(c)` for a base child
        // `c` satisfies the property, so violating runs never enter the base
        // hierarchy — which is what pins the violation's kind and origin to
        // the planted construction alone.
        let mut formula = core;
        for &(_, child) in &base_children {
            formula = formula.or(rb.service(ServiceRef::Opening(child)).eventually());
        }
        let property = rb.finish(formula);

        let (origin, origin_name) = match planted_child {
            Some((task, _)) => (task, system.task(task).name.clone()),
            None => (root_task, system.task(root_task).name.clone()),
        };
        PlantedSystem {
            system,
            property,
            label: format!("{}+{}", self.label(), plant.slug()),
            plant,
            origin,
            origin_name,
        }
    }
}

/// Intermediate result of the base construction: the builder (still open for
/// planting extensions), the tasks in creation order, each task's parent
/// index, and each task's variables.
struct Base {
    b: SystemBuilder,
    tasks: Vec<TaskId>,
    parent_of: Vec<Option<usize>>,
    vars: Vec<TaskVars>,
}

/// The variables the base construction gives every task.
struct TaskVars {
    item: VarId,
    dim: VarId,
    status: VarId,
    nums: Vec<VarId>,
}

/// A planting construction: what [`GeneratorParams::generate_planted`] adds
/// to the base instance, and therefore what a verifier run on the result
/// must report. The three violation plants realize the three path kinds of
/// the paper's Lemma 21.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plant {
    /// Clean by construction: the property is a structural tautology
    /// (`G (p → p)`), true on every run regardless of exploration caps.
    CleanTautology,
    /// Clean by construction: the liveness dichotomy `F p ∨ G ¬p`, a
    /// semantic tautology exercising `F`/`G` and negation.
    CleanDichotomy,
    /// Clean by construction: a nested child obligation whose sub-formula is
    /// a tautology, exercising the `[ψ]_child` machinery.
    CleanNested,
    /// Violating runs loop at the root forever (an unsatisfiable `F` goal
    /// with escape disjuncts for every child opening).
    Lasso,
    /// A fresh root child `Stuck` can never return; violating runs open it
    /// and block on it forever.
    Blocking,
    /// A fresh serviceless root child `Probe` returns immediately with its
    /// flag unset, violating its sub-formula `F pflag=1` on every returned
    /// call.
    Returning,
}

impl Plant {
    /// Short label suffix (`clean-taut`, `lasso`, …).
    pub fn slug(&self) -> &'static str {
        match self {
            Plant::CleanTautology => "clean-taut",
            Plant::CleanDichotomy => "clean-dich",
            Plant::CleanNested => "clean-nest",
            Plant::Lasso => "lasso",
            Plant::Blocking => "blocking",
            Plant::Returning => "returning",
        }
    }
}

impl std::fmt::Display for Plant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// A generated instance carrying a planted certificate: the system, the
/// property, and the task the planted violation originates in (the root for
/// [`Plant::Lasso`] and the clean plants).
#[derive(Clone, Debug)]
pub struct PlantedSystem {
    /// The artifact system (base construction plus the planted child, if
    /// any).
    pub system: ArtifactSystem,
    /// The property to verify.
    pub property: HltlFormula,
    /// Human-readable label (base parameters plus the plant slug).
    pub label: String,
    /// The plant this instance carries.
    pub plant: Plant,
    /// The task a witness-mode violation must originate in.
    pub origin: TaskId,
    /// That task's name.
    pub origin_name: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schema_classes_generate_valid_systems() {
        for class in [
            SchemaClass::Acyclic,
            SchemaClass::LinearlyCyclic,
            SchemaClass::Cyclic,
        ] {
            for artifact in [false, true] {
                for arith in [false, true] {
                    let params = GeneratorParams {
                        schema_class: class,
                        artifact_relations: artifact,
                        arithmetic: arith,
                        ..GeneratorParams::default()
                    };
                    let g = params.generate();
                    assert_eq!(g.system.schema.schema_class(), class);
                    assert_eq!(g.system.schema.uses_artifact_relations(), artifact);
                    assert_eq!(g.system.schema.uses_arithmetic(), arith);
                    assert!(g.property.validate(&g.system).is_ok(), "{}", g.label);
                }
            }
        }
    }

    #[test]
    fn depth_and_width_control_the_hierarchy() {
        let params = GeneratorParams {
            depth: 3,
            width: 2,
            ..GeneratorParams::default()
        };
        let g = params.generate();
        assert_eq!(g.system.schema.depth(), 3);
        assert_eq!(g.system.schema.task_count(), 1 + 2 + 4);
    }

    #[test]
    fn deep_narrow_builds_a_chain() {
        let g = GeneratorParams::deep_narrow(6).generate();
        assert_eq!(g.system.schema.depth(), 6);
        // One task per level: a pure chain.
        assert_eq!(g.system.schema.task_count(), 6);
        assert!(g.property.validate(&g.system).is_ok(), "{}", g.label);
    }

    #[test]
    fn labels_are_distinct_per_parameter_point() {
        let a = GeneratorParams::default().label();
        let b = GeneratorParams {
            arithmetic: true,
            ..GeneratorParams::default()
        }
        .label();
        assert_ne!(a, b);
    }
}
