//! Büchi automaton construction for LTL (the `B_φ` of Section 3).
//!
//! The construction is the classical tableau ("GPVW") algorithm: states are
//! maximal consistent sets of subformulas, built on the fly from the formula
//! in negation normal form, yielding a generalized Büchi automaton with one
//! acceptance set per *until* subformula; the result is then degeneralized
//! into an ordinary Büchi automaton.
//!
//! Two acceptance notions are exposed, because HLTL-FO formulas are evaluated
//! both on infinite local runs and on finite (returning) local runs
//! (Appendix B.2):
//!
//! * [`Buchi::accepting`] — the Büchi acceptance set for infinite words;
//! * [`Buchi::finite_accepting`] — the set `Q_fin`: a run over a finite word
//!   is accepting iff it ends in a state with no leftover next-step
//!   obligations.

use crate::ltl::Ltl;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::Hash;

/// Index of a state of a [`Buchi`] automaton.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BuchiState(pub usize);

/// A transition label: the conjunction of propositional literals required to
/// take the transition. An input letter (a truth assignment to propositions)
/// matches if it makes every positive literal true and every negative literal
/// false.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Label<P: Ord> {
    /// Propositions required to be true.
    pub pos: BTreeSet<P>,
    /// Propositions required to be false.
    pub neg: BTreeSet<P>,
}

impl<P: Ord> Default for Label<P> {
    fn default() -> Self {
        Label {
            pos: BTreeSet::new(),
            neg: BTreeSet::new(),
        }
    }
}

impl<P: Ord> Label<P> {
    /// Does a truth assignment satisfy this label?
    pub fn matches<F>(&self, mut assignment: F) -> bool
    where
        F: FnMut(&P) -> bool,
    {
        self.pos.iter().all(&mut assignment) && self.neg.iter().all(|p| !assignment(p))
    }

    /// Returns `true` if the label is internally contradictory (requires some
    /// proposition to be both true and false). Such transitions can never be
    /// taken and are dropped during construction.
    fn contradictory(&self) -> bool {
        self.pos.intersection(&self.neg).next().is_some()
    }
}

/// A (nondeterministic) Büchi automaton over truth assignments to
/// propositions of type `P`.
#[derive(Clone, Debug)]
pub struct Buchi<P: Ord> {
    /// Number of states.
    state_count: usize,
    /// Initial states.
    initial: BTreeSet<BuchiState>,
    /// Transitions `(from, label, to)`, grouped by source state.
    transitions: BTreeMap<BuchiState, Vec<(Label<P>, BuchiState)>>,
    /// Büchi (infinite-word) accepting states.
    accepting: BTreeSet<BuchiState>,
    /// Finite-word accepting states (`Q_fin`).
    finite_accepting: BTreeSet<BuchiState>,
    /// Per-node entry labels plus the degeneralization factor `k`; the label
    /// of state `s` is `entry_labels.0[s.0 / k]`. Used to match the first
    /// letter of a word against initial states.
    entry_labels: Option<(Vec<Label<P>>, usize)>,
}

/// A tableau node of the GPVW construction.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Node<P: Ord> {
    incoming: BTreeSet<usize>, // node ids; usize::MAX denotes the virtual init node
    new: BTreeSet<Ltl<P>>,
    old: BTreeSet<Ltl<P>>,
    next: BTreeSet<Ltl<P>>,
    /// The subset of `next` whose obligations are *strong*: they stem from a
    /// strong `X` or from the unfolding of an `U`, and therefore forbid the
    /// word from ending at this node. Nodes with an empty strong set form the
    /// finite-word accepting set `Q_fin`.
    next_strong: BTreeSet<Ltl<P>>,
}

const INIT: usize = usize::MAX;

impl<P: Clone + Eq + Hash + Ord> Buchi<P> {
    /// Builds the Büchi automaton of an LTL formula.
    // The degeneralization loop reads `fair_sets[counter]` while computing
    // the successor counter; indexing is the clearer form.
    #[allow(clippy::needless_range_loop)]
    pub fn from_ltl(formula: &Ltl<P>) -> Self {
        let nnf = formula.nnf();
        let mut nodes: Vec<Node<P>> = Vec::new();

        let start = Node {
            incoming: BTreeSet::from([INIT]),
            new: BTreeSet::from([nnf.clone()]),
            old: BTreeSet::new(),
            next: BTreeSet::new(),
            next_strong: BTreeSet::new(),
        };
        Self::expand(start, &mut nodes);

        // Until subformulas of the NNF determine the generalized acceptance
        // sets: for (a U b), a node is fair if it does not contain (a U b) in
        // `old`, or contains b in `old`.
        let untils: Vec<Ltl<P>> = Self::subformulas(&nnf)
            .into_iter()
            .filter(|f| matches!(f, Ltl::Until(_, _)))
            .collect();

        // Build the generalized automaton's transition structure: a
        // transition q -> n exists for q in n.incoming, labeled by the
        // literals of n.old.
        let labels: Vec<Label<P>> = nodes
            .iter()
            .map(|n| {
                let mut label = Label::default();
                for f in &n.old {
                    match f {
                        Ltl::Prop(p) => {
                            label.pos.insert(p.clone());
                        }
                        Ltl::Not(inner) => {
                            if let Ltl::Prop(p) = &**inner {
                                label.neg.insert(p.clone());
                            }
                        }
                        _ => {}
                    }
                }
                label
            })
            .collect();

        let fair_sets: Vec<BTreeSet<usize>> = untils
            .iter()
            .map(|u| {
                let Ltl::Until(_, b) = u else { unreachable!() };
                nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| !n.old.contains(u) || n.old.contains(b))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();

        // Degeneralize: states are (node, counter). With k = 0 acceptance
        // sets every state is accepting and the counter collapses to 0.
        let k = fair_sets.len().max(1);
        let trivially_fair = fair_sets.is_empty();
        let state_index = |node: usize, counter: usize| node * k + counter;
        let state_count = nodes.len() * k;

        let mut transitions: BTreeMap<BuchiState, Vec<(Label<P>, BuchiState)>> = BTreeMap::new();
        let mut initial = BTreeSet::new();
        let mut accepting = BTreeSet::new();
        let mut finite_accepting = BTreeSet::new();

        for (target_idx, node) in nodes.iter().enumerate() {
            let label = &labels[target_idx];
            if label.contradictory() {
                continue;
            }
            for &source in &node.incoming {
                for counter in 0..k {
                    // Counter update: from counter i, if the *source* node is
                    // in fair set i, advance to i+1 (mod k); the accepting
                    // states are those with counter 0 that belong to fair set
                    // 0 — the standard degeneralization.
                    let next_counter = if trivially_fair {
                        0
                    } else if source != INIT && fair_sets[counter].contains(&source) {
                        (counter + 1) % k
                    } else {
                        counter
                    };
                    if source == INIT {
                        // Transitions out of the virtual initial node become
                        // initial states entered by reading the first letter;
                        // we model this by making (target, counter=0) initial
                        // and *also* recording the entry label so that
                        // `initial_successors` can check it.
                        if counter == 0 {
                            initial.insert(BuchiState(state_index(target_idx, 0)));
                        }
                    } else {
                        transitions
                            .entry(BuchiState(state_index(source, counter)))
                            .or_default()
                            .push((
                                label.clone(),
                                BuchiState(state_index(target_idx, next_counter)),
                            ));
                    }
                }
            }
        }

        for (node_idx, node) in nodes.iter().enumerate() {
            for counter in 0..k {
                let s = BuchiState(state_index(node_idx, counter));
                if node.next_strong.is_empty() {
                    finite_accepting.insert(s);
                }
                let fair = if trivially_fair {
                    true
                } else {
                    counter == 0 && fair_sets[0].contains(&node_idx)
                };
                if fair {
                    accepting.insert(s);
                }
            }
        }

        Buchi {
            state_count,
            initial,
            transitions,
            accepting,
            finite_accepting,
            entry_labels: Some((labels, k)),
        }
    }

    /// All subformulas of a formula (including itself).
    fn subformulas(f: &Ltl<P>) -> BTreeSet<Ltl<P>> {
        let mut out = BTreeSet::new();
        fn rec<P: Clone + Eq + Hash + Ord>(f: &Ltl<P>, out: &mut BTreeSet<Ltl<P>>) {
            out.insert(f.clone());
            match f {
                Ltl::True | Ltl::False | Ltl::Prop(_) => {}
                Ltl::Not(a) | Ltl::Next(a) | Ltl::WeakNext(a) => rec(a, out),
                Ltl::And(a, b) | Ltl::Or(a, b) | Ltl::Until(a, b) | Ltl::Release(a, b) => {
                    rec(a, out);
                    rec(b, out);
                }
            }
        }
        rec(f, &mut out);
        out
    }

    /// GPVW node expansion.
    fn expand(node: Node<P>, nodes: &mut Vec<Node<P>>) {
        let mut node = node;
        let Some(f) = node.new.iter().next().cloned() else {
            // New set empty: merge with an existing node or add.
            if let Some(existing) = nodes.iter_mut().find(|n| {
                n.old == node.old && n.next == node.next && n.next_strong == node.next_strong
            }) {
                existing.incoming.extend(node.incoming);
                return;
            }
            let id = nodes.len();
            nodes.push(node.clone());
            let succ = Node {
                incoming: BTreeSet::from([id]),
                new: node.next.clone(),
                old: BTreeSet::new(),
                next: BTreeSet::new(),
                next_strong: BTreeSet::new(),
            };
            Self::expand(succ, nodes);
            return;
        };
        node.new.remove(&f);
        match &f {
            Ltl::False => { /* inconsistent: drop this node */ }
            Ltl::True => {
                // Record `true` in `old` so that the fairness check
                // "goal of the until is in old" also works for untils whose
                // goal is the constant true (e.g. F true inside G F true).
                node.old.insert(Ltl::True);
                Self::expand(node, nodes);
            }
            Ltl::Prop(_) | Ltl::Not(_) => {
                // (Negations are only over propositions after NNF.)
                let negated = match &f {
                    Ltl::Prop(p) => Ltl::Not(Box::new(Ltl::Prop(p.clone()))),
                    Ltl::Not(inner) => (**inner).clone(),
                    _ => unreachable!(),
                };
                if node.old.contains(&negated) {
                    // Contradiction: drop.
                    return;
                }
                node.old.insert(f);
                Self::expand(node, nodes);
            }
            Ltl::And(a, b) => {
                for g in [&**a, &**b] {
                    if !node.old.contains(g) {
                        node.new.insert(g.clone());
                    }
                }
                node.old.insert(f.clone());
                Self::expand(node, nodes);
            }
            Ltl::Or(a, b) => {
                let mut n1 = node.clone();
                if !n1.old.contains(&**a) {
                    n1.new.insert((**a).clone());
                }
                n1.old.insert(f.clone());
                let mut n2 = node;
                if !n2.old.contains(&**b) {
                    n2.new.insert((**b).clone());
                }
                n2.old.insert(f.clone());
                Self::expand(n1, nodes);
                Self::expand(n2, nodes);
            }
            Ltl::Next(a) => {
                node.old.insert(f.clone());
                node.next.insert((**a).clone());
                node.next_strong.insert((**a).clone());
                Self::expand(node, nodes);
            }
            Ltl::WeakNext(a) => {
                node.old.insert(f.clone());
                node.next.insert((**a).clone());
                Self::expand(node, nodes);
            }
            Ltl::Until(a, b) => {
                // f = a U b : (b) ∨ (a ∧ X f)  — the unfolding obligation is
                // strong: an until that has not yet reached its goal cannot
                // end the word here.
                let mut n1 = node.clone();
                if !n1.old.contains(&**a) {
                    n1.new.insert((**a).clone());
                }
                n1.next.insert(f.clone());
                n1.next_strong.insert(f.clone());
                n1.old.insert(f.clone());
                let mut n2 = node;
                if !n2.old.contains(&**b) {
                    n2.new.insert((**b).clone());
                }
                n2.old.insert(f.clone());
                Self::expand(n1, nodes);
                Self::expand(n2, nodes);
            }
            Ltl::Release(a, b) => {
                // f = a R b : (a ∧ b) ∨ (b ∧ X f)
                let mut n1 = node.clone();
                if !n1.old.contains(&**b) {
                    n1.new.insert((**b).clone());
                }
                n1.next.insert(f.clone());
                n1.old.insert(f.clone());
                let mut n2 = node;
                for g in [&**a, &**b] {
                    if !n2.old.contains(g) {
                        n2.new.insert(g.clone());
                    }
                }
                n2.old.insert(f.clone());
                Self::expand(n1, nodes);
                Self::expand(n2, nodes);
            }
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// The Büchi (infinite-word) accepting states.
    pub fn accepting(&self) -> &BTreeSet<BuchiState> {
        &self.accepting
    }

    /// The finite-word accepting states `Q_fin`.
    pub fn finite_accepting(&self) -> &BTreeSet<BuchiState> {
        &self.finite_accepting
    }

    /// The initial states, in ascending state order. This is the order
    /// [`Buchi::initial_successors`] filters, which makes it the canonical
    /// order for compiled representations that must reproduce it.
    pub fn initial(&self) -> impl Iterator<Item = BuchiState> + '_ {
        self.initial.iter().copied()
    }

    /// The outgoing transitions of a state, in construction order — the
    /// order [`Buchi::step`] filters. Compiled representations must preserve
    /// this order to keep downstream explorations deterministic.
    pub fn transitions_from(&self, state: BuchiState) -> &[(Label<P>, BuchiState)] {
        self.transitions
            .get(&state)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// The literal label that must hold when a run *enters* `state` — the
    /// label [`Buchi::initial_successors`] checks against the first letter.
    pub fn entry_label(&self, state: BuchiState) -> &Label<P> {
        self.state_label(state)
    }

    /// States reachable by reading the *first* letter of a word.
    pub fn initial_successors<F>(&self, mut assignment: F) -> Vec<BuchiState>
    where
        F: FnMut(&P) -> bool,
    {
        self.initial
            .iter()
            .copied()
            .filter(|s| self.state_label(*s).matches(&mut assignment))
            .collect()
    }

    /// Successor states of `state` when reading a letter.
    pub fn step<F>(&self, state: BuchiState, mut assignment: F) -> Vec<BuchiState>
    where
        F: FnMut(&P) -> bool,
    {
        self.transitions
            .get(&state)
            .map(|outs| {
                outs.iter()
                    .filter(|(label, _)| label.matches(&mut assignment))
                    .map(|(_, to)| *to)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The literal label that must hold when a run *enters* this state.
    fn state_label(&self, state: BuchiState) -> &Label<P> {
        let (labels, k) = self
            .entry_labels
            .as_ref()
            .expect("entry labels recorded at construction");
        &labels[state.0 / k]
    }

    /// Checks whether the automaton accepts the finite word given as a
    /// sequence of truth assignments (`word[i]` decides proposition truth at
    /// position `i`).
    pub fn accepts_finite<F>(&self, len: usize, holds: &F) -> bool
    where
        F: Fn(usize, &P) -> bool,
    {
        if len == 0 {
            return false;
        }
        let mut frontier: BTreeSet<BuchiState> = self
            .initial_successors(|p| holds(0, p))
            .into_iter()
            .collect();
        for i in 1..len {
            let mut next = BTreeSet::new();
            for s in &frontier {
                next.extend(self.step(*s, |p| holds(i, p)));
            }
            frontier = next;
            if frontier.is_empty() {
                return false;
            }
        }
        frontier.iter().any(|s| self.finite_accepting.contains(s))
    }

    /// Checks whether the automaton accepts the ultimately-periodic word
    /// `w[0..loop_start] (w[loop_start..len])^ω`.
    ///
    /// Implemented by building the product of the automaton with the lasso
    /// positions and looking for a reachable cycle through an accepting
    /// state.
    pub fn accepts_lasso<F>(&self, len: usize, loop_start: usize, holds: &F) -> bool
    where
        F: Fn(usize, &P) -> bool,
    {
        assert!(len > 0 && loop_start < len);
        let succ_pos = |i: usize| if i + 1 < len { i + 1 } else { loop_start };
        // Product nodes: (state, position-just-read).
        let mut reachable: BTreeSet<(BuchiState, usize)> = BTreeSet::new();
        let mut stack: Vec<(BuchiState, usize)> = self
            .initial_successors(|p| holds(0, p))
            .into_iter()
            .map(|s| (s, 0))
            .collect();
        while let Some(node) = stack.pop() {
            if !reachable.insert(node) {
                continue;
            }
            let (s, i) = node;
            let j = succ_pos(i);
            for t in self.step(s, |p| holds(j, p)) {
                stack.push((t, j));
            }
        }
        // For each reachable accepting product node inside the loop part,
        // check whether it can reach itself.
        for &(s, i) in reachable.iter() {
            if i < loop_start || !self.accepting.contains(&s) {
                continue;
            }
            // DFS from (s, i) looking for a cycle back to (s, i).
            let mut seen: BTreeSet<(BuchiState, usize)> = BTreeSet::new();
            let j0 = succ_pos(i);
            let mut stack: Vec<(BuchiState, usize)> = self
                .step(s, |p| holds(j0, p))
                .into_iter()
                .map(|t| (t, j0))
                .collect();
            while let Some(node) = stack.pop() {
                if node == (s, i) {
                    return true;
                }
                if !seen.insert(node) {
                    continue;
                }
                let (t, k) = node;
                let j = succ_pos(k);
                for u in self.step(t, |p| holds(j, p)) {
                    stack.push((u, j));
                }
            }
        }
        false
    }
}

impl<P: Ord> Buchi<P> {
    /// Total number of transitions (for statistics).
    pub fn transition_count(&self) -> usize {
        self.transitions.values().map(Vec::len).sum()
    }
}

impl<P: Ord + fmt::Debug> fmt::Display for Buchi<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Buchi({} states, {} transitions, {} accepting, {} finite-accepting)",
            self.state_count,
            self.transition_count(),
            self.accepting.len(),
            self.finite_accepting.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type L = Ltl<char>;

    fn p(c: char) -> L {
        Ltl::prop(c)
    }

    fn holds<'a>(trace: &'a [&'a str]) -> impl Fn(usize, &char) -> bool + 'a {
        move |j, c| trace[j].contains(*c)
    }

    #[test]
    fn automaton_agrees_with_finite_semantics_on_examples() {
        let formulas = vec![
            p('a'),
            p('a').not(),
            p('a').next(),
            p('a').until(p('b')),
            p('a').globally(),
            p('b').eventually(),
            p('a').implies(p('b').next()).globally(),
            p('a').until(p('b')).not(),
        ];
        let traces: Vec<Vec<&str>> = vec![
            vec!["a"],
            vec!["a", "b"],
            vec!["", "ab", "b"],
            vec!["a", "a", "b"],
            vec!["b", "a"],
            vec!["a", "a", "a"],
        ];
        for f in &formulas {
            let b = Buchi::from_ltl(f);
            for t in &traces {
                let h = holds(t);
                assert_eq!(
                    b.accepts_finite(t.len(), &h),
                    f.eval_finite(t.len(), &h),
                    "formula {f} on trace {t:?}"
                );
            }
        }
    }

    #[test]
    fn automaton_agrees_with_lasso_semantics_on_examples() {
        let formulas = vec![
            p('a').globally(),
            p('a').eventually().globally(), // G F a
            p('a').globally().eventually(), // F G a
            p('a').until(p('b')),
            p('a').implies(p('b').eventually()).globally(),
            p('a').globally().not(),
        ];
        // (prefix, full trace, loop_start)
        let lassos: Vec<(Vec<&str>, usize)> = vec![
            (vec!["a"], 0),
            (vec!["a", "b"], 1),
            (vec!["a", ""], 1),
            (vec!["b", "a"], 0),
            (vec!["", "a", "ab"], 1),
        ];
        for f in &formulas {
            let b = Buchi::from_ltl(f);
            for (t, ls) in &lassos {
                let h = holds(t);
                assert_eq!(
                    b.accepts_lasso(t.len(), *ls, &h),
                    f.eval_lasso(t.len(), *ls, &h),
                    "formula {f} on lasso {t:?} loop {ls}"
                );
            }
        }
    }

    #[test]
    fn globally_a_rejects_finite_trace_with_violation() {
        let b = Buchi::from_ltl(&p('a').globally());
        assert!(b.accepts_finite(2, &holds(&["a", "a"])));
        assert!(!b.accepts_finite(2, &holds(&["a", "b"])));
    }

    #[test]
    fn eventually_rejects_lasso_that_never_reaches_goal() {
        let b = Buchi::from_ltl(&p('b').eventually());
        assert!(!b.accepts_lasso(1, 0, &holds(&["a"])));
        assert!(b.accepts_lasso(2, 1, &holds(&["a", "b"])));
    }

    #[test]
    fn next_at_end_of_finite_word_fails() {
        let b = Buchi::from_ltl(&p('a').next());
        assert!(!b.accepts_finite(1, &holds(&["a"])));
        assert!(b.accepts_finite(2, &holds(&["", "a"])));
    }

    #[test]
    fn statistics_are_positive() {
        let b = Buchi::from_ltl(&p('a').until(p('b')));
        assert!(b.state_count() > 0);
        assert!(b.transition_count() > 0);
        assert!(!b.accepting().is_empty());
        assert!(!b.finite_accepting().is_empty());
        let display = format!("{b}");
        assert!(display.contains("states"));
    }
}
