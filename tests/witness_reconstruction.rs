//! Hierarchical counterexample reconstruction (DESIGN.md §5.7): per-task
//! witness trees, `ViolationKind::Returning` for violations carried by
//! returned sub-calls, the determinism of the chosen counterexample, and
//! witness *replay* — executing the reconstructed tree step by step in the
//! concrete simulator and re-judging it with the runtime monitor.

use has::arith::Rational;
use has::corpus::{replay_database, witness_script};
use has::ltl::hltl::HltlBuilder;
use has::model::{ArtifactSystem, Condition, ServiceRef, SetUpdate, SystemBuilder, TaskId};
use has::sim::{monitor_property, replay_with_retries, ExecutionConfig};
use has::verifier::{Verifier, VerifierConfig, ViolationKind};

/// Root opens `Child` (whose sub-formula `F cflag=1` every child run
/// violates — the child returns immediately without ever setting the flag)
/// and then idles forever. The property `G (open Child → [F cflag=1]_Child)`
/// is violated, and the violation is carried by the *returned* sub-call.
fn returned_subcall_instance() -> (ArtifactSystem, has::ltl::HltlFormula, TaskId) {
    let mut b = SystemBuilder::new("returning");
    let root = b.root_task("Main");
    b.internal_service(
        root,
        "idle",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    let child = b.child_task(root, "Child");
    let cflag = b.num_var(child, "cflag");
    b.internal_service(
        child,
        "noop",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    let system = b.build().unwrap();
    let child_id = system.schema.task_by_name("Child").unwrap();

    let mut cb = HltlBuilder::new(child_id);
    let set = cb.condition(Condition::eq_const(cflag, Rational::from_int(1)));
    let child_formula = cb.finish(set.eventually());

    let mut rb = HltlBuilder::new(system.root());
    let open = rb.service(ServiceRef::Opening(child_id));
    let sub = rb.child(child_id, child_formula);
    let property = rb.finish(open.implies(sub).globally());
    (system, property, child_id)
}

/// The returning-violation regression: `ViolationKind::Returning` must be
/// constructed by a real verification run — the violating root run is an
/// idle lasso, but what it violates is the guarantee about the *returned*
/// child call, so the reported kind is `Returning` and the origin names the
/// sub-task.
#[test]
fn violation_carried_by_a_returned_subcall_reports_returning() {
    let (system, property, child_id) = returned_subcall_instance();
    let config = VerifierConfig::default().with_witnesses(true);
    let outcome = Verifier::with_config(&system, &property, config).verify();
    assert!(!outcome.holds, "{outcome}");
    let violation = outcome.violation.as_ref().expect("witness");
    assert_eq!(violation.kind, ViolationKind::Returning, "{outcome}");
    assert_eq!(violation.origin(), child_id);
    assert_eq!(violation.origin_name(), Some("Child"));
    assert!(
        outcome
            .to_string()
            .contains("returning run originating in task `Child`"),
        "{outcome}"
    );

    let witness = violation.witness.as_ref().expect("tree");
    // The root node is still the root's own run: a lasso whose prefix opens
    // the child (which returns) and whose cycle idles.
    assert_eq!(witness.kind, ViolationKind::Lasso);
    let rendered = witness.to_string();
    assert!(rendered.contains("task `Main`"), "{rendered}");
    assert!(
        rendered.contains("open child `Child` (β=0) → returns"),
        "{rendered}"
    );
    assert!(
        rendered.contains("└ task `Child` — returning run"),
        "{rendered}"
    );
    assert!(rendered.contains("[violates φ0]"), "{rendered}");
    // The nested child node records its own run ending in the closing step.
    assert!(rendered.contains("close task"), "{rendered}");
}

/// Without the retention flag nothing changes: same verdict and stats as
/// with witnesses, no tree, and the kind stays the root's own path kind
/// (`Returning` requires reconstruction to be attributable).
#[test]
fn no_witness_mode_is_unchanged() {
    let (system, property, _) = returned_subcall_instance();
    let plain = Verifier::new(&system, &property).verify();
    assert!(!plain.holds);
    let violation = plain.violation.as_ref().expect("violation");
    assert!(violation.witness.is_none());
    assert_eq!(violation.kind, ViolationKind::Lasso);
    assert_eq!(
        violation.origin(),
        violation.task,
        "origin defaults to the root"
    );

    let with = Verifier::with_config(
        &system,
        &property,
        VerifierConfig::default().with_witnesses(true),
    )
    .verify();
    assert_eq!(plain.holds, with.holds);
    assert_eq!(
        plain.stats, with.stats,
        "retention must not change statistics"
    );
}

/// A three-level chain where the violation is carried through *two* levels
/// of returned calls: Root → Mid → Leaf, with `Leaf`'s returned run the one
/// violating its sub-formula. The origin must name the deepest task.
#[test]
fn origin_descends_through_nested_returned_calls() {
    let mut b = SystemBuilder::new("chain");
    let root = b.root_task("Root");
    b.internal_service(
        root,
        "idle",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    let mid = b.child_task(root, "Mid");
    let leaf = b.child_task(mid, "Leaf");
    let lflag = b.num_var(leaf, "lflag");
    b.internal_service(
        leaf,
        "noop",
        Condition::True,
        Condition::True,
        SetUpdate::None,
    );
    let system = b.build().unwrap();
    let mid_id = system.schema.task_by_name("Mid").unwrap();
    let leaf_id = system.schema.task_by_name("Leaf").unwrap();

    let mut lb = HltlBuilder::new(leaf_id);
    let set = lb.condition(Condition::eq_const(lflag, Rational::from_int(1)));
    let leaf_formula = lb.finish(set.eventually());

    let mut mb = HltlBuilder::new(mid_id);
    let open_leaf = mb.service(ServiceRef::Opening(leaf_id));
    let sub_leaf = mb.child(leaf_id, leaf_formula);
    let mid_formula = mb.finish(open_leaf.implies(sub_leaf).globally());

    let mut rb = HltlBuilder::new(system.root());
    let open_mid = rb.service(ServiceRef::Opening(mid_id));
    let sub_mid = rb.child(mid_id, mid_formula);
    let property = rb.finish(open_mid.implies(sub_mid).globally());

    let config = VerifierConfig::default().with_witnesses(true);
    let outcome = Verifier::with_config(&system, &property, config).verify();
    assert!(!outcome.holds, "{outcome}");
    let violation = outcome.violation.as_ref().expect("witness");
    assert_eq!(violation.kind, ViolationKind::Returning, "{outcome}");
    assert_eq!(violation.origin(), leaf_id, "{outcome}");
    assert_eq!(violation.origin_name(), Some("Leaf"));
    let rendered = violation.witness.as_ref().expect("tree").to_string();
    assert!(rendered.contains("└ task `Mid`"), "{rendered}");
    assert!(rendered.contains("└ task `Leaf`"), "{rendered}");
}

/// Lowers a reconstructed witness to a script, replays it in the concrete
/// executor on a replay-friendly database, and asserts the resulting tree of
/// runs *violates* the property under the runtime monitor — the symbolic
/// counterexample corresponds to an executable concrete run.
fn assert_witness_replays(
    system: &ArtifactSystem,
    property: &has::ltl::HltlFormula,
    config: VerifierConfig,
) {
    let outcome = Verifier::with_config(system, property, config.with_witnesses(true)).verify();
    assert!(!outcome.holds, "{outcome}");
    let witness = outcome
        .violation
        .as_ref()
        .and_then(|v| v.witness.as_ref())
        .expect("witness tree");
    let script = witness_script(system, witness, 2).expect("witness lowers to a script");
    let db = replay_database(&system.schema.database);
    let exec_config = ExecutionConfig {
        seed: 1,
        ..ExecutionConfig::default()
    };
    let tree = replay_with_retries(system, &db, &script, exec_config, 64)
        .expect("witness replays step by step in the simulator");
    assert!(
        !monitor_property(system, &db, &tree, property),
        "the replayed witness run must violate the property it witnesses"
    );
}

/// The orders workload's violated safety property: its reconstructed witness
/// replays as a concrete simulator run that the monitor rejects.
#[test]
fn orders_witness_replays_in_the_simulator() {
    let o = has::workloads::orders::order_fulfilment();
    let property = has::workloads::orders::never_enqueue_property(&o);
    assert_witness_replays(&o.system, &property, VerifierConfig::default());
}

/// The buggy travel booking's violated liveness property (the EXP-W1
/// walkthrough instance): its witness tree — prefix, pump cycle and nested
/// child runs — replays end to end.
#[test]
fn travel_witness_replays_in_the_simulator() {
    let t = has::workloads::travel::travel_booking(has::workloads::travel::TravelVariant::Buggy);
    let property = has::workloads::travel::travel_liveness_property(&t);
    let capped = VerifierConfig {
        max_successors: 24,
        max_control_states: 800,
        km_node_cap: 4_000,
        ..VerifierConfig::default()
    };
    assert_witness_replays(&t.system, &property, capped);
}

/// The returned-sub-call witness replays too: the replayed tree of runs has
/// the child opened *and* closed, and the monitor attributes the violation
/// exactly as the verifier did.
#[test]
fn returned_subcall_witness_replays_in_the_simulator() {
    let (system, property, _) = returned_subcall_instance();
    assert_witness_replays(&system, &property, VerifierConfig::default());
}

/// The witness choice is part of the determinism contract: the rendered
/// violation (tree included) is byte-identical at every thread count on the
/// returned-sub-call instance. (The travel workload and the deep-narrow
/// chain are covered by the witnesses-on case in
/// `tests/parallel_determinism.rs` — not repeated here.)
#[test]
fn witness_choice_is_byte_identical_across_thread_counts() {
    let capped = VerifierConfig {
        max_successors: 24,
        max_control_states: 800,
        km_node_cap: 4_000,
        ..VerifierConfig::default()
    }
    .with_witnesses(true);

    let (system, property, _) = returned_subcall_instance();
    let reference =
        Verifier::with_config(&system, &property, capped.clone().with_threads(1)).verify();
    for threads in [2usize, 8] {
        let outcome =
            Verifier::with_config(&system, &property, capped.clone().with_threads(threads))
                .verify();
        assert_eq!(
            format!("{reference:?}"),
            format!("{outcome:?}"),
            "witness at threads={threads} differs from threads=1"
        );
        let reference_tree = reference
            .violation
            .as_ref()
            .and_then(|v| v.witness.as_ref());
        let tree = outcome.violation.as_ref().and_then(|v| v.witness.as_ref());
        assert_eq!(
            reference_tree.map(ToString::to_string),
            tree.map(ToString::to_string),
            "rendered tree differs at threads={threads}"
        );
    }
}
