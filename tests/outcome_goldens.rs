//! Golden outcomes: the rendered verdict, violation kind, origin, input
//! description and witness tree of the travel Appendix A.2 instances, the
//! counter gadget and the twelve EXP-T2 grid rows, pinned byte for byte.
//! The rendering leaves `Stats` out on purpose — cost counters may move
//! when the search changes; what the verifier *concludes* and *reports*
//! must not.
//!
//! Separately, `goldens/stats.txt` pins the size of what the verifier built
//! for each instance: one line of graph and query counts per instance. A
//! change that only makes the build faster (memoization, a cheaper data
//! structure) must leave every line byte-identical; a change that alters
//! the search must re-record them and say why.
//!
//! The expected renderings live in `tests/goldens/`, one file per instance
//! (one file for the whole grid).

use has::model::SchemaClass;
use has::verifier::{Outcome, Stats, Verifier, VerifierConfig};
use has::workloads::counters::{counter_gadget, counter_liveness_property};
use has::workloads::generator::GeneratorParams;
use has::workloads::travel::{travel_booking, travel_property, TravelVariant};

/// Everything an outcome reports except its statistics.
fn render(outcome: &Outcome) -> String {
    let Some(v) = &outcome.violation else {
        return format!("holds: {}\n", outcome.holds);
    };
    let witness = v
        .witness
        .as_ref()
        .map_or_else(|| " none\n".to_string(), |w| format!("\n{w}"));
    format!(
        "holds: {}\nkind: {}\norigin: {}\ninput: {}\nwitness:{witness}",
        outcome.holds,
        v.kind,
        v.origin_name().unwrap_or("(root)"),
        v.input_description,
    )
}

fn assert_golden(golden: &str, outcome: &Outcome) {
    let actual = render(outcome);
    assert!(
        actual == golden,
        "rendered outcome differs from its golden:\n--- expected\n{golden}\n--- actual\n{actual}"
    );
}

/// The counts of `goldens/stats.txt`: the control-state graph, its counter
/// dimension and the query phase's work, which together pin the graph the
/// build produced.
fn render_stats(label: &str, stats: &Stats) -> String {
    format!(
        "{label} control_states={} transitions={} counter_dimensions={} coverability_nodes={} \
         rt_entries={} km_subsumed={} km_capped={} lasso_fallbacks={}",
        stats.control_states,
        stats.transitions,
        stats.counter_dimensions,
        stats.coverability_nodes,
        stats.rt_entries,
        stats.km_subsumed,
        stats.km_capped,
        stats.lasso_fallbacks,
    )
}

/// Checks an instance's statistics against its line in `goldens/stats.txt`.
fn assert_stats_golden(label: &str, stats: &Stats) {
    let golden = include_str!("goldens/stats.txt")
        .lines()
        .find(|line| line.split(' ').next() == Some(label))
        .unwrap_or_else(|| panic!("no stats golden for `{label}`"));
    let actual = render_stats(label, stats);
    assert!(
        actual == golden,
        "stats differ from their golden:\n--- expected\n{golden}\n--- actual\n{actual}"
    );
}

/// The `tests/a2_violation.rs` configuration: every cap at its default,
/// witnesses on.
fn a2_config() -> VerifierConfig {
    VerifierConfig::default().with_witnesses(true)
}

/// `has_bench::fast_config`'s caps, with witnesses on.
fn gadget_config() -> VerifierConfig {
    VerifierConfig {
        max_successors: 24,
        max_control_states: 800,
        km_node_cap: 4_000,
        ..VerifierConfig::default()
    }
    .with_witnesses(true)
}

/// perfbench's `grid` configuration: `has_bench::bench_config`'s caps, with
/// the cell decomposition on for the arithmetic rows.
fn grid_config(arithmetic: bool) -> VerifierConfig {
    VerifierConfig {
        max_successors: 48,
        max_control_states: 3_000,
        km_node_cap: 20_000,
        use_cells: arithmetic,
        ..VerifierConfig::default()
    }
}

fn travel_a2(variant: TravelVariant) -> Outcome {
    let t = travel_booking(variant);
    let property = travel_property(&t);
    Verifier::with_config(&t.system, &property, a2_config()).verify()
}

fn gadget(d: usize) -> Outcome {
    let g = counter_gadget(d);
    let property = counter_liveness_property(&g);
    Verifier::with_config(&g.system, &property, gadget_config()).verify()
}

#[test]
fn travel_a2_buggy_outcome_matches_golden() {
    let outcome = travel_a2(TravelVariant::Buggy);
    assert_golden(include_str!("goldens/travel_a2_buggy.txt"), &outcome);
    assert_stats_golden("travel-a2/buggy", &outcome.stats);
}

#[test]
fn travel_a2_fixed_outcome_matches_golden() {
    let outcome = travel_a2(TravelVariant::Fixed);
    assert_golden(include_str!("goldens/travel_a2_fixed.txt"), &outcome);
    assert_stats_golden("travel-a2/fixed", &outcome.stats);
}

#[test]
fn counter_gadget_outcomes_match_goldens() {
    let goldens = [
        include_str!("goldens/counter_gadget_d1.txt"),
        include_str!("goldens/counter_gadget_d2.txt"),
        include_str!("goldens/counter_gadget_d3.txt"),
    ];
    for (d, golden) in (1..=3).zip(goldens) {
        let outcome = gadget(d);
        assert_golden(golden, &outcome);
        assert_stats_golden(&format!("counter-gadget/d={d}"), &outcome.stats);
    }
}

/// perfbench's twelve `grid` rows (EXP-T1/T2 at d2w1): schema class ×
/// artifact relations × arithmetic. Their rendered outcomes are
/// concatenated into one golden, each under a `== label ==` header.
#[test]
fn grid_outcomes_match_goldens() {
    let mut rendered = String::new();
    for arithmetic in [false, true] {
        for schema_class in [
            SchemaClass::Acyclic,
            SchemaClass::LinearlyCyclic,
            SchemaClass::Cyclic,
        ] {
            for artifact_relations in [false, true] {
                let generated = GeneratorParams {
                    schema_class,
                    artifact_relations,
                    arithmetic,
                    depth: 2,
                    width: 1,
                    numeric_vars: if arithmetic { 2 } else { 1 },
                }
                .generate();
                let outcome = Verifier::with_config(
                    &generated.system,
                    &generated.property,
                    grid_config(arithmetic),
                )
                .verify();
                assert_stats_golden(&generated.label, &outcome.stats);
                rendered.push_str(&format!("== {} ==\n{}", generated.label, render(&outcome)));
            }
        }
    }
    let golden = include_str!("goldens/grid.txt");
    assert!(
        rendered == golden,
        "grid outcomes differ from their golden:\n--- expected\n{golden}\n--- actual\n{rendered}"
    );
}

/// The graph build enumerates an internal service's post-states once per
/// task and distinct input projection of the pre-state, not once per
/// symbolic state nor once per truth assignment β (DESIGN.md §5.13). On this
/// grid row, keying the memo on the full symbolic state made 1,386
/// enumerations; keyed on what the enumeration reads, one `(T, β)` pair at
/// a time, 46; shared by all of a task's β builds, 23. Every other lookup
/// is a hit. Forgetting unobservable variables (DESIGN.md §5.14) leaves
/// the 23 lists' keys alone (a key is the input pattern, which is never
/// forgotten) but merges the pre-states that differed only in forgotten
/// variables, so the build makes 422 lookups where it made 2,367. The 23
/// enumerations' merge refinements try 822 unions. Refining every state of
/// the variable loop, even one inside an earlier merge closure, tried
/// 3,493; skipping only states inside a closure that no `max_successors`
/// round cut, 1,254. Since no merge closure is cut, each one holds the
/// closures of all its members, and more states are skipped
/// (DESIGN.md §5.8).
#[test]
fn post_states_are_enumerated_once_per_task() {
    let generated = GeneratorParams {
        schema_class: SchemaClass::Cyclic,
        artifact_relations: true,
        arithmetic: true,
        depth: 2,
        width: 1,
        numeric_vars: 2,
    }
    .generate();
    assert_eq!(generated.label, "cyclic/+ar/+arith/d2w1v2");
    let stats = Verifier::with_config(&generated.system, &generated.property, grid_config(true))
        .verify()
        .stats;
    assert_eq!(stats.post_enumerations, 23);
    assert_eq!(stats.post_memo_hits, 399);
    assert_eq!(stats.post_enumerations + stats.post_memo_hits, 422);
    assert_eq!(stats.merge_unions, 822);
}
