//! Runtime monitoring: evaluating HLTL-FO on recorded trees of local runs.
//!
//! The monitor implements the satisfaction relation of Section 3 directly on
//! the finite traces produced by the executor, using the finite-trace LTL
//! semantics of Appendix B.2. It is an *under*-approximation of the
//! verification problem (a single execution on a single database), which is
//! exactly what makes it useful as an oracle: a violation observed by the
//! monitor is a concrete counterexample that the symbolic verifier must also
//! report.

use crate::trace::{TaskTrace, TreeOfRuns};
use has_data::{eval_condition, DatabaseInstance};
use has_ltl::hltl::{HltlProp, PropId};
use has_ltl::HltlFormula;
use has_model::{ArtifactSystem, ServiceRef};

/// Evaluates an HLTL-FO property on a recorded tree of runs over a concrete
/// database. Returns `true` if the recorded (finite) behaviour satisfies the
/// property.
pub fn monitor_property(
    system: &ArtifactSystem,
    db: &DatabaseInstance,
    tree: &TreeOfRuns,
    property: &HltlFormula,
) -> bool {
    eval_on_run(system, db, tree, tree.root(), property)
}

fn eval_on_run(
    system: &ArtifactSystem,
    db: &DatabaseInstance,
    tree: &TreeOfRuns,
    run: &TaskTrace,
    formula: &HltlFormula,
) -> bool {
    let len = run.steps.len().max(1);
    let holds = |j: usize, p: &PropId| -> bool {
        let Some(step) = run.steps.get(j) else {
            return false;
        };
        match &formula.props[p.0] {
            HltlProp::Condition(c) => eval_condition(&system.schema, db, &step.valuation, c),
            HltlProp::Service(s) => step.service == *s,
            HltlProp::Child(child, sub) => {
                if step.service != ServiceRef::Opening(*child) {
                    return false;
                }
                let Some(node) = step.child else { return false };
                eval_on_run(system, db, tree, &tree.nodes[node], sub)
            }
        }
    };
    formula.ltl.eval_finite(len, &holds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::{ExecutionConfig, Executor};
    use has_data::{DatabaseGenerator, GeneratorConfig};
    use has_ltl::hltl::HltlBuilder;
    use has_model::Condition;
    use has_workloads::orders::{
        never_enqueue_property, order_fulfilment, ship_after_quote_property,
    };

    fn run_orders(
        seed: u64,
    ) -> (
        has_workloads::orders::OrdersSystem,
        DatabaseInstance,
        TreeOfRuns,
    ) {
        let o = order_fulfilment();
        let mut generator = DatabaseGenerator::new(GeneratorConfig::default());
        let db = generator.generate(&o.system.schema.database);
        let mut exec = Executor::new(
            &o.system,
            &db,
            ExecutionConfig {
                max_steps: 300,
                seed,
                ..ExecutionConfig::default()
            },
        );
        let tree = exec.run();
        (o, db, tree)
    }

    #[test]
    fn safety_property_holds_on_executions() {
        for seed in 0..5 {
            let (o, db, tree) = run_orders(seed);
            let property = ship_after_quote_property(&o);
            assert!(
                monitor_property(&o.system, &db, &tree, &property),
                "ship-after-quote violated on seed {seed}"
            );
        }
    }

    #[test]
    fn trivially_true_and_false_conditions() {
        let (o, db, tree) = run_orders(11);
        let mut hb = HltlBuilder::new(o.root);
        let t = hb.condition(Condition::True);
        let always_true = hb.finish(t.globally());
        assert!(monitor_property(&o.system, &db, &tree, &always_true));

        let mut hb = HltlBuilder::new(o.root);
        let f = hb.condition(Condition::False);
        let eventually_false = hb.finish(f.eventually());
        assert!(!monitor_property(&o.system, &db, &tree, &eventually_false));
    }

    #[test]
    fn some_execution_violates_never_enqueue() {
        // The backlog property is false in general; a long enough random
        // execution should enqueue at least once for some seed.
        let violated = (0..10).any(|seed| {
            let (o, db, tree) = run_orders(seed);
            let property = never_enqueue_property(&o);
            !monitor_property(&o.system, &db, &tree, &property)
        });
        assert!(violated, "no execution ever used the backlog");
    }
}
