//! The traced driver: `Verifier::verify`'s `threads = 1` path re-issued
//! through has-core's public API, with a span around every layer call.
//!
//! It cannot reach the private cell-decomposition pass (`use_cells`) or
//! witness reconstruction, so that work appears only in the gap between
//! the traced and the untraced wall time.

use has::analysis::{analyze, DeadServices, PresolveStats};
use has::ltl::HltlFormula;
use has::model::{ArtifactSystem, TaskId};
use has::verifier::task_verifier::{QueryCost, SummaryMap, TaskSummary, TaskVerifier};
use has::verifier::{PropertyContext, Stats, VerifierConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-layer spans and counts, summed over the instances of one sweep.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Traced wall time: every driver call, spans and glue.
    pub wall: Duration,
    /// `PropertyContext::new` + `precompute_automata`.
    pub ltl: Duration,
    /// `has_analysis::analyze`.
    pub analysis: Duration,
    /// `TaskVerifier::new`.
    pub pair_new: Duration,
    /// `TaskVerifier::build_graph`.
    pub build: Duration,
    /// `TaskVerifier::prepare_shared`.
    pub projection: Duration,
    /// `init_queries_shared` calls whose pre-solver skipped the Karp–Miller
    /// build.
    pub query_presolved: Duration,
    /// All other query calls.
    pub query_searched: Duration,
    /// `TaskVerifier::reduce_queries`.
    pub reduce: Duration,
    /// Deterministic counts of the same layers.
    pub counts: Counts,
}

/// The deterministic part of [`Layers`]: repeats exactly from sweep to
/// sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Dead services found by the analysis.
    pub dead_services: usize,
    /// `(T, β)` pairs.
    pub pairs: usize,
    /// Query calls.
    pub queries: usize,
    /// Control states built.
    pub control_states: usize,
    /// VASS transitions built.
    pub transitions: usize,
    /// Counter dimensions of the built VASS.
    pub counter_dims: usize,
    /// Query dimensions before projection.
    pub dims_before: usize,
    /// Query dimensions after projection.
    pub dims_after: usize,
    /// Pre-solver verdict counts.
    pub presolve: PresolveStats,
    /// Karp–Miller nodes built.
    pub km_nodes: usize,
    /// Karp–Miller nodes served from the shared arena.
    pub km_reused: usize,
    /// Karp–Miller successors pruned by subsumption.
    pub km_subsumed: usize,
    /// `R_T` entries after reduction.
    pub rt_entries: usize,
}

impl Layers {
    /// Time covered by the layer spans.
    pub fn attributed(&self) -> Duration {
        self.ltl
            + self.analysis
            + self.pair_new
            + self.build
            + self.projection
            + self.query()
            + self.reduce
    }

    /// Time in query calls.
    pub fn query(&self) -> Duration {
        self.query_presolved + self.query_searched
    }
}

/// Times one call into `layer`.
fn span<T>(layer: &mut Duration, call: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = call();
    *layer += start.elapsed();
    out
}

/// Bottom-up (children before parents) DFS postorder over the hierarchy,
/// the order `Verifier::verify` visits tasks in.
fn bottom_up_order(system: &ArtifactSystem) -> Vec<TaskId> {
    let schema = &system.schema;
    let mut order = Vec::new();
    let mut stack = vec![(schema.root, false)];
    while let Some((t, expanded)) = stack.pop() {
        if expanded {
            order.push(t);
        } else {
            stack.push((t, true));
            for &c in &schema.task(t).children {
                stack.push((c, false));
            }
        }
    }
    order
}

/// Verifies one instance the way `Verifier::verify` does at `threads = 1`
/// with the default projection, pre-solver and shared Karp–Miller arena,
/// recording spans and counts into `layers`. Returns the verdict and the
/// statistics `verify` would report, except `hcd_cells`; the fidelity check
/// in `main.rs` rejects the trace if they drift from `verify`'s.
pub fn verify(
    system: &ArtifactSystem,
    property: &HltlFormula,
    config: &VerifierConfig,
    layers: &mut Layers,
) -> (bool, Stats) {
    let start = Instant::now();
    property
        .validate(system)
        .expect("property must be well-formed for the system");
    let mut stats = Stats::default();
    let pc = span(&mut layers.ltl, || {
        let mut pc = PropertyContext::new(system, property, config.nav_depth);
        pc.precompute_automata();
        pc
    });
    let dead = span(&mut layers.analysis, || {
        analyze(system, Some(property)).dead
    });
    stats.dead_services_pruned = dead.values().map(DeadServices::count).sum();
    layers.counts.dead_services += stats.dead_services_pruned;

    let contexts = &*pc.contexts;
    let mut summaries: Arc<SummaryMap> = Arc::new(SummaryMap::new());
    for task in bottom_up_order(system) {
        let mut summary = TaskSummary::default();
        for beta in pc.assignments(task) {
            let buchi = pc.buchi_shared(task, &beta);
            let tv = span(&mut layers.pair_new, || {
                TaskVerifier::new(
                    system,
                    config,
                    &contexts[&task],
                    task,
                    beta.clone(),
                    pc.phi(task),
                    &buchi,
                    Arc::clone(&summaries),
                    contexts,
                    &dead,
                )
            });
            let graph = span(&mut layers.build, || tv.build_graph());
            let mut shared = span(&mut layers.projection, || tv.prepare_shared(&graph));
            let mut per_init: Vec<(Vec<_>, QueryCost)> = Vec::new();
            for pos in 0..graph.initial_count() {
                let begin = Instant::now();
                let result = tv.init_queries_shared(&graph, pos, &mut shared);
                let elapsed = begin.elapsed();
                if result.1.presolve.skipped_builds > 0 {
                    layers.query_presolved += elapsed;
                } else {
                    layers.query_searched += elapsed;
                }
                record_query(&mut layers.counts, &result.1);
                per_init.push(result);
            }
            let (entries, pair_stats) = span(&mut layers.reduce, || {
                TaskVerifier::reduce_queries(&graph, per_init)
            });
            let counts = &mut layers.counts;
            counts.pairs += 1;
            counts.control_states += pair_stats.control_states;
            counts.transitions += pair_stats.transitions;
            counts.counter_dims += pair_stats.counter_dimensions;
            counts.rt_entries += pair_stats.rt_entries;
            stats.absorb(&pair_stats);
            summary.entries.extend(entries);
        }
        let mut map = (*summaries).clone();
        map.insert(task, Arc::new(summary));
        summaries = Arc::new(map);
    }

    let (root_task, root_index) = pc.root();
    let holds = !summaries[&root_task]
        .entries
        .iter()
        .any(|e| e.output.is_none() && !e.beta.get(root_index).copied().unwrap_or(false));
    layers.wall += start.elapsed();
    (holds, stats)
}

fn record_query(counts: &mut Counts, cost: &QueryCost) {
    counts.queries += 1;
    counts.dims_before += cost.dims_before;
    counts.dims_after += cost.dims_after;
    counts.presolve.absorb(&cost.presolve);
    counts.km_nodes += cost.km_nodes;
    counts.km_reused += cost.km_reused;
    counts.km_subsumed += cost.km_subsumed;
}
