//! Hierarchical Cell Decomposition (HCD).
//!
//! Section 5 of the paper constructs, bottom-up over the task hierarchy, a
//! per-task collection of non-empty cells such that consistency of a symbolic
//! run can be ensured by purely *local* compatibility checks between the cell
//! of a transition and the cells of its parent/child tasks — avoiding the
//! retroactive cell-intersection problem described there.
//!
//! Construction, per task `T` (children first):
//! 1. start from the polynomials appearing in `T`'s arithmetic conditions
//!    (services and property sub-formulas referring to `T`);
//! 2. for every child `Tc`, project each of `Tc`'s cells onto the numeric
//!    variables/expressions shared with `T` (input and return variables),
//!    rename them into `T`'s variable space, and add the polynomials of the
//!    resulting constraint systems — the Tarski–Seidenberg step, realized for
//!    the linear fragment with Fourier–Motzkin elimination;
//! 3. enumerate the non-empty cells of the resulting polynomial set.
//!
//! The generic parameters keep this module independent of the HAS model
//! crate: tasks are identified by an arbitrary `usize` index supplied by the
//! caller, and numeric "variables" are whatever expression type the verifier
//! uses (task variables or navigation expressions).

use crate::cells::CellSet;
use crate::linear::LinExpr;
use std::collections::BTreeSet;
use std::hash::Hash;

/// The cells associated with one task of the hierarchy.
#[derive(Clone, Debug)]
pub struct TaskCells<V: Ord> {
    /// Index of the task in the caller's numbering.
    pub task: usize,
    /// The polynomial set the cells are defined over (own polynomials plus
    /// the projections contributed by descendant tasks).
    pub cell_set: CellSet<V>,
}

/// A hierarchical cell decomposition: one [`TaskCells`] per task.
#[derive(Clone, Debug)]
pub struct HierarchicalCellDecomposition<V: Ord> {
    tasks: Vec<TaskCells<V>>,
}

impl<V: Ord + Clone + Hash> HierarchicalCellDecomposition<V> {
    /// The cells of the given task.
    ///
    /// # Panics
    /// Panics if the task index was not declared to the builder.
    pub fn task(&self, task: usize) -> &TaskCells<V> {
        self.tasks
            .iter()
            .find(|t| t.task == task)
            .expect("task not part of the decomposition")
    }

    /// Iterates over all per-task cell sets.
    pub fn iter(&self) -> impl Iterator<Item = &TaskCells<V>> {
        self.tasks.iter()
    }

    /// Total number of cells across all tasks (the quantity bounded in
    /// Appendix D and measured by experiment EXP-F4).
    pub fn total_cells(&self) -> usize {
        self.tasks.iter().map(|t| t.cell_set.len()).sum()
    }
}

/// Description of one task handed to the [`HcdBuilder`].
struct TaskSpec<V: Ord> {
    task: usize,
    parent: Option<usize>,
    polynomials: Vec<LinExpr<V>>,
    /// Variables shared with the parent (already expressed in the *child's*
    /// variable space) together with the renaming into the parent's space.
    shared_with_parent: Vec<(V, V)>,
}

/// Builder for a [`HierarchicalCellDecomposition`].
pub struct HcdBuilder<V: Ord> {
    specs: Vec<TaskSpec<V>>,
}

impl<V: Ord + Clone + Hash> Default for HcdBuilder<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Ord + Clone + Hash> HcdBuilder<V> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        HcdBuilder { specs: Vec::new() }
    }

    /// Declares a task.
    ///
    /// * `task` — caller-chosen index, unique per task;
    /// * `parent` — index of the parent task, `None` for the root;
    /// * `polynomials` — polynomials of the task's own arithmetic atoms;
    /// * `shared_with_parent` — pairs `(child_var, parent_var)` describing
    ///   the numeric variables passed on opening (input) or closing (return),
    ///   i.e. the variables on which cell compatibility must be checked.
    pub fn task(
        mut self,
        task: usize,
        parent: Option<usize>,
        polynomials: Vec<LinExpr<V>>,
        shared_with_parent: Vec<(V, V)>,
    ) -> Self {
        self.specs.push(TaskSpec {
            task,
            parent,
            polynomials,
            shared_with_parent,
        });
        self
    }

    /// Builds the decomposition bottom-up.
    ///
    /// # Panics
    /// Panics if a declared parent index is unknown or the parent/child graph
    /// has a cycle.
    pub fn build(self) -> HierarchicalCellDecomposition<V> {
        let n = self.specs.len();
        // Topologically order tasks children-first by repeatedly picking
        // tasks all of whose children are done.
        let mut done: Vec<bool> = vec![false; n];
        let mut order: Vec<usize> = Vec::with_capacity(n); // indices into specs
        while order.len() < n {
            let mut progressed = false;
            for i in 0..n {
                if done[i] {
                    continue;
                }
                let me = self.specs[i].task;
                let all_children_done = self
                    .specs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.parent == Some(me))
                    .all(|(j, _)| done[j]);
                if all_children_done {
                    done[i] = true;
                    order.push(i);
                    progressed = true;
                }
            }
            assert!(progressed, "cycle in task hierarchy passed to HcdBuilder");
        }

        let mut built: Vec<TaskCells<V>> = Vec::with_capacity(n);
        // Extra polynomials propagated from children, keyed by spec index.
        let mut contributions: Vec<Vec<LinExpr<V>>> = vec![Vec::new(); n];

        for &i in &order {
            let spec = &self.specs[i];
            let mut polys = spec.polynomials.clone();
            polys.extend(contributions[i].iter().cloned());
            let cell_set = CellSet::enumerate(&polys);

            // Propagate projections to the parent, if any.
            if let Some(parent) = spec.parent {
                let parent_idx = self
                    .specs
                    .iter()
                    .position(|s| s.task == parent)
                    .expect("unknown parent task in HcdBuilder");
                let shared_child_vars: BTreeSet<V> = spec
                    .shared_with_parent
                    .iter()
                    .map(|(c, _)| c.clone())
                    .collect();
                let rename = |v: &V| -> V {
                    spec.shared_with_parent
                        .iter()
                        .find(|(c, _)| c == v)
                        .map(|(_, p)| p.clone())
                        .expect("projection produced a non-shared variable")
                };
                let mut propagated: Vec<LinExpr<V>> = Vec::new();
                for (_, cell) in cell_set.iter() {
                    for system in cell.project(&shared_child_vars) {
                        for constraint in system {
                            let renamed = constraint.expr.rename(rename);
                            if !renamed.is_constant() {
                                propagated.push(renamed.normalized());
                            }
                        }
                    }
                }
                contributions[parent_idx].extend(propagated);
            }

            built.push(TaskCells {
                task: spec.task,
                cell_set,
            });
        }

        HierarchicalCellDecomposition { tasks: built }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Rational;

    fn var(name: &'static str) -> LinExpr<&'static str> {
        LinExpr::var(name)
    }
    fn c(n: i64) -> LinExpr<&'static str> {
        LinExpr::constant(Rational::from_int(n))
    }

    #[test]
    fn single_task_decomposition_matches_cellset() {
        let hcd = HcdBuilder::new()
            .task(0, None, vec![var("x")], vec![])
            .build();
        assert_eq!(hcd.task(0).cell_set.len(), 3);
        assert_eq!(hcd.total_cells(), 3);
    }

    #[test]
    fn child_polynomials_propagate_to_parent() {
        // Child constrains its input variable `cy` against 5; the parent has
        // no polynomial of its own over the shared variable `px`, but the
        // propagated projection must let the parent distinguish px vs 5.
        let child_poly = var("cy") - c(5);
        let hcd = HcdBuilder::new()
            .task(0, None, vec![], vec![])
            .task(1, Some(0), vec![child_poly], vec![("cy", "px")])
            .build();
        let parent = hcd.task(0);
        // Parent must now have at least the three cells induced by px - 5.
        assert!(parent.cell_set.len() >= 3, "{:?}", parent.cell_set);
        let has_px_poly = parent
            .cell_set
            .polynomials()
            .iter()
            .any(|p| p.coeff(&"px") != Rational::ZERO);
        assert!(has_px_poly);
    }

    #[test]
    fn grandchild_projections_reach_the_root_through_the_middle_task() {
        // Root(0) <- Mid(1) <- Leaf(2). Leaf constrains `z`; z is shared with
        // Mid as `m`, which is shared with Root as `r`.
        let hcd = HcdBuilder::new()
            .task(0, None, vec![], vec![])
            .task(1, Some(0), vec![], vec![("m", "r")])
            .task(2, Some(1), vec![var("z") - c(2)], vec![("z", "m")])
            .build();
        let root = hcd.task(0);
        let mentions_r = root
            .cell_set
            .polynomials()
            .iter()
            .any(|p| p.coeff(&"r") != Rational::ZERO);
        assert!(mentions_r, "{:?}", root.cell_set);
    }

    #[test]
    fn unrelated_child_variables_do_not_leak() {
        // Child constrains a private variable not shared with the parent:
        // the projection is trivial and the parent keeps a single cell.
        let hcd = HcdBuilder::new()
            .task(0, None, vec![], vec![])
            .task(
                1,
                Some(0),
                vec![var("private")],
                vec![("shared", "p_shared")],
            )
            .build();
        assert_eq!(hcd.task(0).cell_set.len(), 1);
    }

    #[test]
    #[should_panic]
    fn cyclic_hierarchy_is_rejected() {
        let _ = HcdBuilder::<&'static str>::new()
            .task(0, Some(1), vec![], vec![])
            .task(1, Some(0), vec![], vec![])
            .build();
    }
}
