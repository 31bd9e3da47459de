//! Verification outcomes, witnesses and statistics.
//!
//! When witness reconstruction is enabled
//! ([`VerifierConfig::witnesses`](crate::verifier::VerifierConfig::witnesses)),
//! a violation carries a [`WitnessNode`] tree: the violating root run
//! (prefix + pump cycle or blocking point) with one nested node per child
//! call on the run, down to the task where the violation actually
//! originates. DESIGN.md §5.7 describes the reconstruction and how the
//! chosen counterexample stays byte-identical from run to run.

use has_model::TaskId;
use has_symbolic::{ProjectionKey, SymState};
use std::fmt;

/// How the reported violation manifests at the root task (the three path
/// kinds of Lemma 21).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// The root task has an infinite local run (a lasso in `V(T1, β)`).
    Lasso,
    /// The root task blocks forever on a child that never returns.
    Blocking,
    /// A returning path (only possible for non-root tasks; reported when a
    /// sub-call witnesses the violation).
    Returning,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Lasso => "infinite (lasso) run",
            ViolationKind::Blocking => "blocking run",
            ViolationKind::Returning => "returning run",
        };
        f.write_str(s)
    }
}

/// One step of a reconstructed symbolic run, with the names needed to render
/// it without access to the schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessStep {
    /// An internal service of the task fired.
    Internal {
        /// Name of the service.
        service: String,
    },
    /// A child task was opened, choosing one tuple of its `R_T` relation
    /// (the paper's Definition 18: the parent guesses the child run's input
    /// type, output type and truth assignment). The recorded choice is what
    /// lets witness reconstruction descend into the child's own run.
    OpenChild {
        /// The opened child task.
        child: TaskId,
        /// Its name.
        child_name: String,
        /// The chosen truth assignment over `Φ_child`.
        beta: Vec<bool>,
        /// The child-side input isomorphism-type key induced by the opening.
        input_key: ProjectionKey,
        /// The promised output state (`None` = a never-returning child run:
        /// the parent blocks on this call forever).
        output: Option<SymState>,
    },
    /// A previously opened child returned.
    CloseChild {
        /// The returning child task.
        child: TaskId,
        /// Its name.
        child_name: String,
    },
    /// The task applied its own closing service (returning runs only).
    CloseTask,
}

impl WitnessStep {
    /// Renders a truth assignment compactly (`β=10` for `[true, false]`).
    fn render_beta(beta: &[bool]) -> String {
        beta.iter().map(|&b| if b { '1' } else { '0' }).collect()
    }
}

/// Renders an input isomorphism-type key for humans: the equivalence-class
/// id of each projected expression in order, with `has-symbolic`'s
/// dead/unset sentinel (`u32::MAX`) shown as `-` instead of `4294967295`.
pub fn render_input_key(key: &[u32]) -> String {
    let cells: Vec<String> = key
        .iter()
        .map(|&class| {
            if class == u32::MAX {
                "-".to_string()
            } else {
                class.to_string()
            }
        })
        .collect();
    format!("[{}]", cells.join(", "))
}

impl fmt::Display for WitnessStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessStep::Internal { service } => write!(f, "internal service `{service}`"),
            WitnessStep::OpenChild {
                child_name,
                beta,
                output,
                ..
            } => {
                write!(f, "open child `{child_name}`")?;
                if !beta.is_empty() {
                    write!(f, " (β={})", Self::render_beta(beta))?;
                }
                match output {
                    Some(_) => write!(f, " → returns"),
                    None => write!(f, " → never returns"),
                }
            }
            WitnessStep::CloseChild { child_name, .. } => {
                write!(f, "child `{child_name}` returns")
            }
            WitnessStep::CloseTask => f.write_str("close task"),
        }
    }
}

/// One node of a reconstructed hierarchical counterexample: the symbolic run
/// of one task, with a nested node per child call made on that run.
///
/// The root node describes the violating run of the root task (always
/// non-returning: a lasso or a blocking run); child nodes describe the runs
/// chosen for the child calls the parent's run performs — [`ViolationKind::Returning`]
/// nodes for returned calls, lasso/blocking nodes for a call the parent
/// blocks on. [`WitnessNode::origin`] walks the carrier chain down to the
/// task where the violation actually originates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessNode {
    /// The task this run belongs to.
    pub task: TaskId,
    /// Its name.
    pub task_name: String,
    /// The Lemma 21 path kind of this node's run.
    pub kind: ViolationKind,
    /// Human-readable description of the run's input isomorphism type.
    pub input_description: String,
    /// The truth assignment over `Φ_task` this run realizes; the indices it
    /// assigns `false` are the sub-formulas the run *violates*
    /// ([`WitnessNode::violated`]).
    pub beta: Vec<bool>,
    /// The rendered run prefix: from the initial state to the blocking
    /// point (blocking), the pump cycle's entry (lasso), or the closing
    /// step (returning).
    pub prefix: Vec<WitnessStep>,
    /// The pump cycle of a lasso run (empty for other kinds): a closed
    /// sequence of steps with componentwise non-negative counter effect,
    /// repeatable forever.
    pub cycle: Vec<WitnessStep>,
    /// `true` when a pump cycle exists but exceeded the materialization cap
    /// (the run is still a proven lasso; only the explicit cycle rendering
    /// is omitted).
    pub cycle_truncated: bool,
    /// One node per distinct child call on the run, in run order.
    pub children: Vec<WitnessNode>,
}

impl WitnessNode {
    /// Indices of `Φ_task` this node's run *violates* — exactly the indices
    /// `beta` assigns `false`.
    pub fn violated(&self) -> Vec<usize> {
        self.beta
            .iter()
            .enumerate()
            .filter(|(_, b)| !**b)
            .map(|(i, _)| i)
            .collect()
    }

    /// The node where the violation actually originates: follows the
    /// carrier chain ([`WitnessNode::carrier`]) to its end.
    pub fn origin(&self) -> &WitnessNode {
        let mut node = self;
        while let Some(next) = node.carrier() {
            node = next;
        }
        node
    }

    /// The child call that carries this node's violation further down, if
    /// any: for a blocking run, the never-returning call the run blocks on;
    /// otherwise the first returned call whose run violates one of its own
    /// sub-formulas ([`WitnessNode::violated`] non-empty). `None` means the
    /// violation originates here.
    pub fn carrier(&self) -> Option<&WitnessNode> {
        if self.kind == ViolationKind::Blocking {
            if let Some(blocker) = self
                .children
                .iter()
                .find(|c| c.kind != ViolationKind::Returning)
            {
                return Some(blocker);
            }
        }
        self.children
            .iter()
            .find(|c| c.kind == ViolationKind::Returning && c.beta.iter().any(|b| !b))
    }

    /// Writes the node (and its subtree) at the given nesting depth.
    fn render(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "    ".repeat(depth);
        let marker = if depth == 0 { "" } else { "└ " };
        write!(
            f,
            "{pad}{marker}task `{}` — {} ({})",
            self.task_name, self.kind, self.input_description
        )?;
        let violated = self.violated();
        if !violated.is_empty() {
            let phis: Vec<String> = violated.iter().map(|i| format!("φ{i}")).collect();
            write!(f, " [violates {}]", phis.join(", "))?;
        }
        writeln!(f)?;
        let mut step_no = 0usize;
        if !self.prefix.is_empty() {
            writeln!(f, "{pad}  prefix:")?;
            for step in &self.prefix {
                step_no += 1;
                writeln!(f, "{pad}    {step_no}. {step}")?;
            }
        }
        if !self.cycle.is_empty() {
            writeln!(f, "{pad}  cycle (repeatable pump):")?;
            for step in &self.cycle {
                step_no += 1;
                writeln!(f, "{pad}    {step_no}. {step}")?;
            }
        }
        if self.cycle_truncated {
            writeln!(
                f,
                "{pad}  (pump cycle exists but exceeds the materialization cap)"
            )?;
        }
        for child in &self.children {
            child.render(f, depth + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for WitnessNode {
    /// Multi-line, indented rendering of the witness tree. Every line of a
    /// node at depth `d` is indented by `4·d` spaces; nested child runs are
    /// introduced with a `└` marker.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

/// A symbolic witness that the property can be violated.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The task at whose level the violating run was found (the root).
    pub task: TaskId,
    /// The kind of violating run. With witness reconstruction enabled this
    /// is refined to [`ViolationKind::Returning`] when a *returned*
    /// sub-call carries the violation (the witness tree's carrier chain
    /// starts with a returning node); without reconstruction it is the root
    /// run's own path kind (lasso or blocking).
    pub kind: ViolationKind,
    /// Human-readable description of the initial isomorphism type of the
    /// violating run.
    pub input_description: String,
    /// The reconstructed witness tree (`Some` only when
    /// [`VerifierConfig::witnesses`](crate::verifier::VerifierConfig::witnesses)
    /// is enabled).
    pub witness: Option<WitnessNode>,
}

impl Violation {
    /// The task where the violation actually originates: the end of the
    /// witness tree's carrier chain, or the root task when no witness tree
    /// was reconstructed.
    pub fn origin(&self) -> TaskId {
        self.witness.as_ref().map_or(self.task, |w| w.origin().task)
    }

    /// The originating task's name, when a witness tree is available.
    pub fn origin_name(&self) -> Option<&str> {
        self.witness.as_ref().map(|w| w.origin().task_name.as_str())
    }
}

/// Exploration statistics, the cost measures reported by the benchmarks
/// (EXP-T1 / EXP-T2 / EXP-F3 in DESIGN.md).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Symbolic control states constructed across all per-task VASS.
    pub control_states: usize,
    /// VASS actions (transitions) constructed.
    pub transitions: usize,
    /// Karp–Miller coverability-graph nodes explored.
    pub coverability_nodes: usize,
    /// Total vector dimension (TS-isomorphism types) across tasks.
    pub counter_dimensions: usize,
    /// Büchi automaton states across all `B(T, β)`.
    pub buchi_states: usize,
    /// Number of `(task, β)` pairs analysed.
    pub task_assignments: usize,
    /// Number of `R_T` entries computed.
    pub rt_entries: usize,
    /// Number of cells in the hierarchical cell decomposition (0 when
    /// arithmetic support is disabled).
    pub hcd_cells: usize,
    /// Counter dimensions summed over all coverability queries *before*
    /// cone-of-influence projection.
    pub counter_dims_before: usize,
    /// Counter dimensions summed over all coverability queries *after*
    /// projection. Every query is projected; the projection is
    /// verdict-neutral (DESIGN.md §5.9).
    pub counter_dims_after: usize,
    /// Service guards proven unsatisfiable and excluded from graph
    /// construction. Pruning always runs and adds precision over the
    /// optimistic arithmetic of DESIGN.md §5.5.
    pub dead_services_pruned: usize,
    /// Karp–Miller successors pruned by the per-query antichain (DESIGN.md
    /// §5.12) — covered on arrival or retro-pruned by a larger marking.
    pub km_subsumed: usize,
    /// Karp–Miller builds (pruned, or tier-3 exact) that hit
    /// [`km_node_cap`](crate::verifier::VerifierConfig::km_node_cap) and so
    /// under-approximate their query.
    pub km_capped: usize,
    /// Tier-3 exact Karp–Miller builds: lasso queries the pruned build's
    /// real and jump-augmented edges could not decide.
    pub lasso_fallbacks: usize,
    /// Internal-service post-state lists enumerated. A list is keyed on the
    /// task, the service and the pre-state's input projection, and is
    /// enumerated once per `verify` call: the task context's cache shares
    /// it between all of the task's `(T, β)` pairs (DESIGN.md §5.13). The
    /// aggregate is the number of distinct keys, and each enumeration is
    /// recorded by the first pair in canonical order that asks for it.
    pub post_enumerations: usize,
    /// Post-state lookups served without enumerating: from the pair's own
    /// memo, or from the task's cache after another pair (or an earlier
    /// lookup of this one) enumerated the list.
    pub post_memo_hits: usize,
}

impl Stats {
    /// Merges another statistics record into this one.
    ///
    /// The merge is associative and commutative (every field is a plain
    /// count, combined by addition), so the per-`(T, β)` statistics sum to
    /// the same aggregate in any grouping — see DESIGN.md §5.6 for the
    /// determinism contract this supports.
    pub fn absorb(&mut self, other: &Stats) {
        self.control_states += other.control_states;
        self.transitions += other.transitions;
        self.coverability_nodes += other.coverability_nodes;
        self.counter_dimensions += other.counter_dimensions;
        self.buchi_states += other.buchi_states;
        self.task_assignments += other.task_assignments;
        self.rt_entries += other.rt_entries;
        self.hcd_cells += other.hcd_cells;
        self.counter_dims_before += other.counter_dims_before;
        self.counter_dims_after += other.counter_dims_after;
        self.dead_services_pruned += other.dead_services_pruned;
        self.km_subsumed += other.km_subsumed;
        self.km_capped += other.km_capped;
        self.lasso_fallbacks += other.lasso_fallbacks;
        self.post_enumerations += other.post_enumerations;
        self.post_memo_hits += other.post_memo_hits;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "states={} transitions={} km-nodes={} dims={} buchi={} (T,β)={} R_T={} cells={} \
             proj={}->{} dead={} km-subsume={} km-capped={} lasso-fallbacks={} post-enum={} \
             post-hits={}",
            self.control_states,
            self.transitions,
            self.coverability_nodes,
            self.counter_dimensions,
            self.buchi_states,
            self.task_assignments,
            self.rt_entries,
            self.hcd_cells,
            self.counter_dims_before,
            self.counter_dims_after,
            self.dead_services_pruned,
            self.km_subsumed,
            self.km_capped,
            self.lasso_fallbacks,
            self.post_enumerations,
            self.post_memo_hits
        )
    }
}

/// The result of a verification run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `true` iff `Γ ⊨ φ` (no violating symbolic tree of runs exists).
    pub holds: bool,
    /// A symbolic witness when the property can be violated.
    pub violation: Option<Violation>,
    /// Exploration statistics.
    pub stats: Stats,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.holds {
            write!(f, "property HOLDS ({})", self.stats)
        } else {
            // Without a witness there is no kind segment at all — rendering
            // an empty one used to produce a dangling "(;".
            match self.violation.as_ref() {
                Some(v) => match v.origin_name().filter(|_| v.origin() != v.task) {
                    // A reconstructed witness that descends below the root
                    // names the originating sub-task inline; the full tree
                    // is available through `Violation::witness`.
                    Some(origin) => write!(
                        f,
                        "property VIOLATED ({} originating in task `{}`; {})",
                        v.kind, origin, self.stats
                    ),
                    None => write!(f, "property VIOLATED ({}; {})", v.kind, self.stats),
                },
                None => write!(f, "property VIOLATED ({})", self.stats),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = Stats {
            control_states: 1,
            transitions: 2,
            ..Stats::default()
        };
        let b = Stats {
            control_states: 10,
            coverability_nodes: 5,
            ..Stats::default()
        };
        a.absorb(&b);
        assert_eq!(a.control_states, 11);
        assert_eq!(a.transitions, 2);
        assert_eq!(a.coverability_nodes, 5);
        assert!(a.to_string().contains("states=11"));
    }

    #[test]
    fn stats_merge_is_associative_and_commutative() {
        let a = Stats {
            control_states: 3,
            coverability_nodes: 7,
            ..Stats::default()
        };
        let b = Stats {
            control_states: 11,
            transitions: 2,
            ..Stats::default()
        };
        let c = Stats {
            rt_entries: 5,
            transitions: 9,
            ..Stats::default()
        };
        let merged = |x: &Stats, y: &Stats| {
            let mut m = x.clone();
            m.absorb(y);
            m
        };
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        assert_eq!(left, right);
        let swapped = merged(&merged(&c, &b), &a);
        assert_eq!(left, swapped);
    }

    #[test]
    fn outcome_display_mentions_result() {
        let ok = Outcome {
            holds: true,
            violation: None,
            stats: Stats::default(),
        };
        assert!(ok.to_string().contains("HOLDS"));
        let bad = Outcome {
            holds: false,
            violation: Some(Violation {
                task: TaskId(0),
                kind: ViolationKind::Lasso,
                input_description: "x".into(),
                witness: None,
            }),
            stats: Stats::default(),
        };
        assert!(bad.to_string().contains("VIOLATED"));
        assert!(bad.to_string().contains("lasso"));
    }

    #[test]
    fn violated_outcome_without_witness_omits_the_kind_segment() {
        let bad = Outcome {
            holds: false,
            violation: None,
            stats: Stats::default(),
        };
        let rendered = bad.to_string();
        assert_eq!(
            rendered,
            format!("property VIOLATED ({})", Stats::default()),
            "no dangling separator when there is no violation witness"
        );
        assert!(!rendered.contains("(;"), "{rendered}");
    }

    #[test]
    fn violation_kinds_render_distinctly() {
        for (kind, needle) in [
            (ViolationKind::Lasso, "lasso"),
            (ViolationKind::Blocking, "blocking"),
            (ViolationKind::Returning, "returning"),
        ] {
            let outcome = Outcome {
                holds: false,
                violation: Some(Violation {
                    task: TaskId(0),
                    kind,
                    input_description: "x".into(),
                    witness: None,
                }),
                stats: Stats::default(),
            };
            assert!(outcome.to_string().contains(needle), "{kind:?}");
        }
    }

    // ------------------------------------------------------------------
    // Witness-tree rendering
    // ------------------------------------------------------------------

    fn leaf(name: &str, kind: ViolationKind, beta: Vec<bool>) -> WitnessNode {
        WitnessNode {
            task: TaskId(9),
            task_name: name.to_string(),
            kind,
            input_description: "input isomorphism type [0]".into(),
            beta,
            prefix: vec![WitnessStep::Internal {
                service: "spin".into(),
            }],
            cycle: Vec::new(),
            cycle_truncated: false,
            children: Vec::new(),
        }
    }

    #[test]
    fn witness_tree_indents_nested_runs() {
        let mut grandchild = leaf("GrandChild", ViolationKind::Returning, vec![false]);
        grandchild.prefix.push(WitnessStep::CloseTask);
        let mut child = leaf("Child", ViolationKind::Returning, vec![false]);
        child.children.push(grandchild);
        let mut root = leaf("Main", ViolationKind::Lasso, vec![false]);
        root.cycle = vec![WitnessStep::Internal {
            service: "idle".into(),
        }];
        root.children.push(child);

        let rendered = root.to_string();
        // Depth-proportional indentation: the root header at column 0, the
        // child header at one unit, the grandchild at two.
        assert!(rendered.contains("task `Main`"), "{rendered}");
        assert!(rendered.contains("\n    └ task `Child`"), "{rendered}");
        assert!(
            rendered.contains("\n        └ task `GrandChild`"),
            "{rendered}"
        );
        // Step lists are indented below their node and numbered across
        // prefix + cycle.
        assert!(
            rendered.contains("1. internal service `spin`"),
            "{rendered}"
        );
        assert!(rendered.contains("cycle (repeatable pump):"), "{rendered}");
        assert!(
            rendered.contains("2. internal service `idle`"),
            "{rendered}"
        );
        assert!(rendered.contains("[violates φ0]"), "{rendered}");
    }

    /// A structurally valid (if trivial) symbolic state for rendering tests.
    fn some_sym_state() -> SymState {
        let mut b = has_model::SystemBuilder::new("w");
        let root = b.root_task("Main");
        let _flag = b.num_var(root, "flag");
        let system = b.build().expect("well-formed");
        let ctx = has_symbolic::TaskContext::build(&system, root, &[], 0);
        SymState::blank(&ctx, &system.schema)
    }

    #[test]
    fn input_keys_render_the_dead_sentinel_as_a_dash() {
        assert_eq!(render_input_key(&[0, 1, 2]), "[0, 1, 2]");
        assert_eq!(render_input_key(&[0, u32::MAX, 1]), "[0, -, 1]");
        assert_eq!(render_input_key(&[]), "[]");
    }

    #[test]
    fn witness_step_segments_render_distinctly() {
        let open_ret = WitnessStep::OpenChild {
            child: TaskId(1),
            child_name: "Child".into(),
            beta: vec![true, false],
            input_key: vec![0, 1],
            output: Some(some_sym_state()),
        };
        assert_eq!(open_ret.to_string(), "open child `Child` (β=10) → returns");
        let open_block = WitnessStep::OpenChild {
            child: TaskId(1),
            child_name: "Child".into(),
            beta: Vec::new(),
            input_key: vec![],
            output: None,
        };
        assert_eq!(open_block.to_string(), "open child `Child` → never returns");
        assert_eq!(
            WitnessStep::CloseChild {
                child: TaskId(1),
                child_name: "Child".into()
            }
            .to_string(),
            "child `Child` returns"
        );
        assert_eq!(WitnessStep::CloseTask.to_string(), "close task");
    }

    #[test]
    fn blocking_lasso_and_returning_nodes_render_their_kind() {
        for (kind, needle) in [
            (ViolationKind::Lasso, "infinite (lasso) run"),
            (ViolationKind::Blocking, "blocking run"),
            (ViolationKind::Returning, "returning run"),
        ] {
            let node = leaf("T", kind, vec![]);
            assert!(node.to_string().contains(needle), "{kind:?}");
        }
        // A truncated pump cycle is announced instead of silently omitted.
        let mut node = leaf("T", ViolationKind::Lasso, vec![]);
        node.cycle_truncated = true;
        assert!(node.to_string().contains("materialization cap"));
    }

    #[test]
    fn origin_follows_the_carrier_chain() {
        let grandchild = leaf("GrandChild", ViolationKind::Returning, vec![true, false]);
        let mut child = leaf("Child", ViolationKind::Returning, vec![false]);
        child.children.push(grandchild);
        // An innocuous returned sibling (violates nothing) is not a carrier.
        let sibling = leaf("Sibling", ViolationKind::Returning, vec![true]);
        let mut root = leaf("Main", ViolationKind::Lasso, vec![false]);
        root.children.push(sibling);
        root.children.push(child);
        assert_eq!(root.origin().task_name, "GrandChild");

        // A blocking node's carrier is the never-returning call, preferred
        // over returned calls.
        let blocker = leaf("Spinner", ViolationKind::Lasso, vec![]);
        let mut blocked = leaf("Main", ViolationKind::Blocking, vec![false]);
        blocked
            .children
            .push(leaf("Done", ViolationKind::Returning, vec![false]));
        blocked.children.push(blocker);
        assert_eq!(blocked.origin().task_name, "Spinner");
    }

    #[test]
    fn outcome_display_names_a_sub_task_origin() {
        let child = leaf("Child", ViolationKind::Returning, vec![false]);
        let mut root = leaf("Main", ViolationKind::Lasso, vec![false]);
        root.task = TaskId(0);
        root.children.push(child);
        let outcome = Outcome {
            holds: false,
            violation: Some(Violation {
                task: TaskId(0),
                kind: ViolationKind::Returning,
                input_description: "x".into(),
                witness: Some(root),
            }),
            stats: Stats::default(),
        };
        let rendered = outcome.to_string();
        assert!(
            rendered.contains("returning run originating in task `Child`"),
            "{rendered}"
        );
        // The single-line format without a witness is unchanged.
        let plain = Outcome {
            holds: false,
            violation: Some(Violation {
                task: TaskId(0),
                kind: ViolationKind::Lasso,
                input_description: "x".into(),
                witness: None,
            }),
            stats: Stats::default(),
        };
        assert_eq!(
            plain.to_string(),
            format!(
                "property VIOLATED (infinite (lasso) run; {})",
                Stats::default()
            )
        );
    }
}
