//! Forgetting unobservable variables is verdict-neutral (DESIGN.md §5.14).
//!
//! The verifier forgets, after every internal step and child return, the
//! variables that no guard, property condition, counter key or mapping
//! reads. There is no switch to turn that off, so the check compares two
//! properties instead: `φ` and `φ' = φ ∧ G(⋀ v = v)` over every root
//! variable `v`. The added conjunct holds in every state, so `φ'` means
//! what `φ` means, but it reads every root variable, so nothing at the root
//! is forgotten under `φ'`. Both must give the same verdict and kind.

use has::corpus::PLANT_ROTATION;
use has::ltl::hltl::{HltlBuilder, HltlFormula, HltlProp, PropId};
use has::ltl::Ltl;
use has::model::{ArtifactSystem, Condition, SchemaClass, ServiceRef};
use has::verifier::{Outcome, Verifier, VerifierConfig};
use has::workloads::generator::{GeneratorParams, Plant};
use proptest::prelude::*;

/// `φ ∧ G(⋀ v = v)` over every variable of the root task.
fn observing_every_root_variable(system: &ArtifactSystem, property: &HltlFormula) -> HltlFormula {
    let root = system.schema.task(system.root());
    let always = root
        .variables
        .iter()
        .fold(Condition::True, |c, &v| c.and(Condition::var_eq(v, v)));
    let mut props = property.props.clone();
    let id = PropId(props.len());
    props.push(HltlProp::Condition(always));
    HltlFormula::new(
        property.task,
        property.ltl.clone().and(Ltl::prop(id).globally()),
        props,
    )
}

/// The verdict and violation kind of an outcome.
fn verdict(outcome: &Outcome) -> (bool, Option<String>) {
    let kind = outcome.violation.as_ref().map(|v| format!("{:?}", v.kind));
    (outcome.holds, kind)
}

/// Small instances of the Tables 1/2 generator with every plant.
fn arb_instance() -> impl Strategy<Value = (GeneratorParams, Plant)> {
    (
        prop_oneof![
            Just(SchemaClass::Acyclic),
            Just(SchemaClass::LinearlyCyclic),
            Just(SchemaClass::Cyclic),
        ],
        (any::<bool>(), any::<bool>()),
        (1usize..=2, 1usize..=2, 1usize..=2),
        0usize..PLANT_ROTATION.len(),
    )
        .prop_map(
            |(
                schema_class,
                (artifact_relations, arithmetic),
                (depth, width, numeric_vars),
                plant,
            )| {
                let params = GeneratorParams {
                    schema_class,
                    artifact_relations,
                    arithmetic,
                    depth,
                    width,
                    numeric_vars,
                };
                (params, PLANT_ROTATION[plant])
            },
        )
}

/// Checks `φ` against `φ'` on `system` (see the module docs).
fn assert_neutral(system: &ArtifactSystem, phi: &HltlFormula, label: &str) {
    let config = VerifierConfig::default().with_threads(1);
    let observed = observing_every_root_variable(system, phi);
    let forgetting = Verifier::with_config(system, phi, config.clone()).verify();
    let keeping = Verifier::with_config(system, &observed, config).verify();
    assert_eq!(verdict(&forgetting), verdict(&keeping), "{label}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The generated property, `G ¬open(c)` for each child `c` of the root
    /// (violated only through the opening guards, which read root
    /// variables), and the planted property of one corpus plant.
    #[test]
    fn forgetting_root_variables_never_moves_a_verdict((params, plant) in arb_instance()) {
        let generated = params.generate();
        let system = &generated.system;
        assert_neutral(system, &generated.property, &generated.label);
        let root = system.root();
        for &child in &system.task(root).children {
            let mut rb = HltlBuilder::new(root);
            let open = rb.service(ServiceRef::Opening(child));
            let never = rb.finish(open.not().globally());
            assert_neutral(system, &never, &format!("{} G ¬open({child:?})", generated.label));
        }
        let planted = params.generate_planted(plant);
        assert_neutral(&planted.system, &planted.property, &planted.label);
    }
}
