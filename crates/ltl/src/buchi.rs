//! Büchi automaton construction for LTL (the `B_φ` of Section 3).
//!
//! The construction is the classical tableau ("GPVW") algorithm: states are
//! maximal consistent sets of subformulas, built on the fly from the formula
//! in negation normal form, yielding a generalized Büchi automaton with one
//! acceptance set per *until* subformula; the result is then degeneralized
//! into an ordinary Büchi automaton.
//!
//! The tableau runs over subformula indices (DESIGN.md §5.15): the NNF's
//! subformulas are sorted once into a closure table in `Ltl`'s `Ord`, and a
//! node's `new`, `old`, `next` and `next_strong` sets are bitmasks of
//! ⌈closure/64⌉ words over it. Taking the lowest set bit of `new` takes the
//! first formula a `BTreeSet` would yield, and the merge test compares the
//! same three sets, so the automaton is the one the set-based formulation
//! builds; that formulation is kept as the test-only
//! `Buchi::from_ltl_reference`, which the property tests compare against.
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

/// The subformulas of a formula in negation normal form, sorted by `Ltl`'s
/// derived `Ord` — the order a `BTreeSet<Ltl<P>>` iterates in — so that the
/// lowest index in a mask is the first element of the set it stands for.
struct Closure<'f, P> {
    formulas: Vec<&'f Ltl<P>>,
    kinds: Vec<Kind>,
    /// Index of the formula itself.
    root: usize,
    /// Mask length in `u64` words: ⌈formulas / 64⌉.
    words: usize,
}

/// How the tableau expands a closure entry; operands are closure indices.
#[derive(Clone, Copy)]
enum Kind {
    True,
    False,
    /// `p` or `¬p`, with the index of its negation (`None` when the closure
    /// lacks it, so that no node can hold it).
    Literal(Option<usize>),
    And(usize, usize),
    Or(usize, usize),
    Next(usize),
    WeakNext(usize),
    Until(usize, usize),
    Release(usize, usize),
}

impl<'f, P: Ord> Closure<'f, P> {
    fn new(nnf: &'f Ltl<P>) -> Self {
        fn collect<'f, P>(f: &'f Ltl<P>, out: &mut Vec<&'f Ltl<P>>) {
            out.push(f);
            match f {
                Ltl::True | Ltl::False | Ltl::Prop(_) => {}
                Ltl::Not(a) | Ltl::Next(a) | Ltl::WeakNext(a) => collect(a, out),
                Ltl::And(a, b) | Ltl::Or(a, b) | Ltl::Until(a, b) | Ltl::Release(a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
            }
        }
        let mut formulas = Vec::new();
        collect(nnf, &mut formulas);
        formulas.sort_unstable();
        formulas.dedup();
        let index = |g: &Ltl<P>| {
            formulas
                .binary_search(&g)
                .expect("every subformula lies in the closure")
        };
        let kinds = formulas
            .iter()
            .map(|&f| match f {
                Ltl::True => Kind::True,
                Ltl::False => Kind::False,
                Ltl::Prop(_) => Kind::Literal(
                    formulas
                        .iter()
                        .position(|g| matches!(g, Ltl::Not(x) if **x == *f)),
                ),
                Ltl::Not(a) => Kind::Literal(Some(index(a))),
                Ltl::And(a, b) => Kind::And(index(a), index(b)),
                Ltl::Or(a, b) => Kind::Or(index(a), index(b)),
                Ltl::Next(a) => Kind::Next(index(a)),
                Ltl::WeakNext(a) => Kind::WeakNext(index(a)),
                Ltl::Until(a, b) => Kind::Until(index(a), index(b)),
                Ltl::Release(a, b) => Kind::Release(index(a), index(b)),
            })
            .collect();
        let root = index(nnf);
        let words = formulas.len().div_ceil(64);
        Closure {
            formulas,
            kinds,
            root,
            words,
        }
    }
}

fn has(mask: &[u64], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 == 1
}

fn add(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

/// The set bits of a mask, ascending.
fn bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(k, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                k * 64 + bit
            })
        })
    })
}

/// The GPVW tableau over a [`Closure`]: its nodes' `old`, `next` and
/// `next_strong` sets as masks. `next_strong` is the subset of `next` whose
/// obligations are *strong*: they stem from a strong `X` or from the
/// unfolding of an `U`, and therefore forbid the word from ending at the
/// node. Nodes with an empty strong set form the finite-word accepting set
/// `Q_fin`.
struct Tableau {
    words: usize,
    /// Node `n`'s three masks, `old`, `next`, `next_strong`, are the
    /// `3 * words` words from `3 * words * n` on.
    sets: Vec<u64>,
    /// Each node's predecessors, ascending with [`INIT`] last.
    incoming: Vec<Vec<usize>>,
}

/// The virtual predecessor of the initial nodes.
const INIT: usize = usize::MAX;

impl Tableau {
    /// Expands the node `new = {root}` entered from [`INIT`]. The node under
    /// expansion is one buffer of four masks, `new`, `old`, `next` and
    /// `next_strong`; set `s` holds formula `i` at bit `64 * words * s + i`.
    /// A split's second branch waits on a stack, so everything the first
    /// branch leads to is expanded before it, as in the recursive GPVW
    /// formulation.
    fn expand<P>(closure: &Closure<'_, P>) -> Self {
        let w = closure.words;
        let [new, old, next, strong] = [0, 1, 2, 3].map(|s| 64 * w * s);
        let require = |node: &mut [u64], g: usize| {
            if !has(node, old + g) {
                add(node, new + g);
            }
        };
        let mut tableau = Tableau {
            words: w,
            sets: Vec::new(),
            incoming: Vec::new(),
        };
        let mut node = vec![0; 4 * w];
        add(&mut node, new + closure.root);
        let mut incoming = INIT;
        let mut pending: Vec<u64> = Vec::new();
        let mut pending_incoming: Vec<usize> = Vec::new();
        loop {
            let first = bits(&node[..w]).next();
            let live = match first {
                None => tableau.settle(&mut node, &mut incoming),
                Some(i) => {
                    node[i / 64] &= !(1 << (i % 64));
                    match closure.kinds[i] {
                        Kind::False => false,
                        Kind::True => {
                            // Recorded in `old` so that the fairness check
                            // "goal of the until is in old" also works for
                            // untils whose goal is the constant true (e.g.
                            // F true inside G F true).
                            add(&mut node, old + i);
                            true
                        }
                        Kind::Literal(negation) => {
                            let clash = negation.is_some_and(|n| has(&node, old + n));
                            if !clash {
                                add(&mut node, old + i);
                            }
                            !clash
                        }
                        Kind::And(a, b) => {
                            require(&mut node, a);
                            require(&mut node, b);
                            add(&mut node, old + i);
                            true
                        }
                        Kind::Next(a) => {
                            add(&mut node, old + i);
                            add(&mut node, next + a);
                            add(&mut node, strong + a);
                            true
                        }
                        Kind::WeakNext(a) => {
                            add(&mut node, old + i);
                            add(&mut node, next + a);
                            true
                        }
                        kind @ (Kind::Or(a, b) | Kind::Until(a, b) | Kind::Release(a, b)) => {
                            pending.extend_from_slice(&node);
                            pending_incoming.push(incoming);
                            let start = pending.len() - node.len();
                            let second = &mut pending[start..];
                            match kind {
                                // a ∨ b
                                Kind::Or(..) => {
                                    require(&mut node, a);
                                    require(second, b);
                                }
                                // a U b = b ∨ (a ∧ X(a U b)); the unfolding
                                // obligation is strong: an until that has not
                                // yet reached its goal cannot end the word.
                                Kind::Until(..) => {
                                    require(&mut node, a);
                                    add(&mut node, next + i);
                                    add(&mut node, strong + i);
                                    require(second, b);
                                }
                                // a R b = (a ∧ b) ∨ (b ∧ X(a R b))
                                _ => {
                                    require(&mut node, b);
                                    add(&mut node, next + i);
                                    require(second, a);
                                    require(second, b);
                                }
                            }
                            add(&mut node, old + i);
                            add(second, old + i);
                            true
                        }
                    }
                }
            };
            if !live {
                let Some(from) = pending_incoming.pop() else {
                    break;
                };
                let start = pending.len() - node.len();
                node.copy_from_slice(&pending[start..]);
                pending.truncate(start);
                incoming = from;
            }
        }
        for list in &mut tableau.incoming {
            list.sort_unstable();
            list.dedup();
        }
        tableau
    }

    /// A node whose `new` set is empty: merges it into the node with the
    /// same `old`, `next` and `next_strong` sets, or adds it and turns
    /// `node` into its successor (`new` = its `next`, the rest empty).
    /// Returns whether `node` is still to be expanded.
    fn settle(&mut self, node: &mut [u64], incoming: &mut usize) -> bool {
        let w = self.words;
        let sets = &node[w..];
        if let Some(id) = self.sets.chunks_exact(3 * w).position(|n| n == sets) {
            self.incoming[id].push(*incoming);
            return false;
        }
        self.sets.extend_from_slice(sets);
        self.incoming.push(vec![*incoming]);
        *incoming = self.incoming.len() - 1;
        node.copy_within(2 * w..3 * w, 0);
        node[w..].fill(0);
        true
    }

    fn len(&self) -> usize {
        self.incoming.len()
    }

    fn old(&self, n: usize) -> &[u64] {
        let start = 3 * self.words * n;
        &self.sets[start..start + self.words]
    }

    fn next_strong(&self, n: usize) -> &[u64] {
        let start = 3 * self.words * n;
        &self.sets[start + 2 * self.words..start + 3 * self.words]
    }
}

impl<P: Clone + Eq + Hash + Ord> Buchi<P> {
    /// Builds the Büchi automaton of an LTL formula.
    pub fn from_ltl(formula: &Ltl<P>) -> Self {
        let nnf = formula.nnf();
        let closure = Closure::new(&nnf);
        let tableau = Tableau::expand(&closure);
        let nodes = 0..tableau.len();

        // A transition into a node is labeled by the literals of its `old`.
        let labels = nodes
            .clone()
            .map(|n| {
                let mut label = Label::default();
                for i in bits(tableau.old(n)) {
                    match closure.formulas[i] {
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

        // The until subformulas, in closure order, determine the generalized
        // acceptance sets: for (a U b), a node is fair if it does not contain
        // (a U b) in `old`, or contains b in `old`.
        let fair_sets: Vec<Vec<bool>> = closure
            .kinds
            .iter()
            .enumerate()
            .filter_map(|(u, kind)| match *kind {
                Kind::Until(_, b) => Some((u, b)),
                _ => None,
            })
            .map(|(u, b)| {
                nodes
                    .clone()
                    .map(|n| !has(tableau.old(n), u) || has(tableau.old(n), b))
                    .collect()
            })
            .collect();
        let finite: Vec<bool> = nodes
            .map(|n| tableau.next_strong(n).iter().all(|&word| word == 0))
            .collect();
        Self::degeneralize(labels, &tableau.incoming, &fair_sets, &finite)
    }

    /// Degeneralizes a generalized Büchi automaton given by its tableau
    /// nodes: node `n` is entered by reading `labels[n]` from each of
    /// `incoming[n]` (ascending, [`INIT`] last), lies in acceptance set `u`
    /// iff `fair_sets[u][n]`, and is finite-accepting iff `finite[n]`.
    // The degeneralization loop reads `fair_sets[counter]` while computing
    // the successor counter; indexing is the clearer form.
    #[allow(clippy::needless_range_loop)]
    fn degeneralize(
        labels: Vec<Label<P>>,
        incoming: &[Vec<usize>],
        fair_sets: &[Vec<bool>],
        finite: &[bool],
    ) -> Self {
        // States are (node, counter). With k = 0 acceptance sets every state
        // is accepting and the counter collapses to 0.
        let k = fair_sets.len().max(1);
        let trivially_fair = fair_sets.is_empty();
        let state_index = |node: usize, counter: usize| node * k + counter;
        let state_count = labels.len() * k;

        let mut transitions: BTreeMap<BuchiState, Vec<(Label<P>, BuchiState)>> = BTreeMap::new();
        let mut initial = BTreeSet::new();
        let mut accepting = BTreeSet::new();
        let mut finite_accepting = BTreeSet::new();

        // A transition q -> n exists for q in n's incoming set, labeled by
        // n's label.
        for (target_idx, sources) in incoming.iter().enumerate() {
            let label = &labels[target_idx];
            if label.contradictory() {
                continue;
            }
            for &source in sources {
                for counter in 0..k {
                    // Counter update: from counter i, if the *source* node is
                    // in fair set i, advance to i+1 (mod k); the accepting
                    // states are those with counter 0 that belong to fair set
                    // 0 — the standard degeneralization.
                    let next_counter = if trivially_fair {
                        0
                    } else if source != INIT && fair_sets[counter][source] {
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

        for (node_idx, &node_finite) in finite.iter().enumerate() {
            for counter in 0..k {
                let s = BuchiState(state_index(node_idx, counter));
                if node_finite {
                    finite_accepting.insert(s);
                }
                let fair = if trivially_fair {
                    true
                } else {
                    counter == 0 && fair_sets[0][node_idx]
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

/// A tableau node of the set-based GPVW construction that
/// [`Buchi::from_ltl_reference`] runs.
#[cfg(test)]
#[derive(Clone, Debug, PartialEq, Eq)]
struct Node<P: Ord> {
    incoming: BTreeSet<usize>, // node ids; INIT denotes the virtual init node
    new: BTreeSet<Ltl<P>>,
    old: BTreeSet<Ltl<P>>,
    next: BTreeSet<Ltl<P>>,
    next_strong: BTreeSet<Ltl<P>>,
}

#[cfg(test)]
impl<P: Clone + Eq + Hash + Ord> Buchi<P> {
    /// The construction [`Buchi::from_ltl`] replaced: the same tableau over
    /// sets of formulas, each split cloning them. The property tests compare
    /// the two field by field.
    fn from_ltl_reference(formula: &Ltl<P>) -> Self {
        let nnf = formula.nnf();
        let mut nodes: Vec<Node<P>> = Vec::new();

        let start = Node {
            incoming: BTreeSet::from([INIT]),
            new: BTreeSet::from([nnf.clone()]),
            old: BTreeSet::new(),
            next: BTreeSet::new(),
            next_strong: BTreeSet::new(),
        };
        Self::expand_reference(start, &mut nodes);

        let untils: Vec<Ltl<P>> = Self::subformulas_reference(&nnf)
            .into_iter()
            .filter(|f| matches!(f, Ltl::Until(_, _)))
            .collect();

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

        let fair_sets: Vec<Vec<bool>> = untils
            .iter()
            .map(|u| {
                let Ltl::Until(_, b) = u else { unreachable!() };
                nodes
                    .iter()
                    .map(|n| !n.old.contains(u) || n.old.contains(b))
                    .collect()
            })
            .collect();
        let incoming: Vec<Vec<usize>> = nodes
            .iter()
            .map(|n| n.incoming.iter().copied().collect())
            .collect();
        let finite: Vec<bool> = nodes.iter().map(|n| n.next_strong.is_empty()).collect();
        Self::degeneralize(labels, &incoming, &fair_sets, &finite)
    }

    /// All subformulas of a formula (including itself).
    fn subformulas_reference(f: &Ltl<P>) -> BTreeSet<Ltl<P>> {
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

    /// GPVW node expansion over sets.
    fn expand_reference(node: Node<P>, nodes: &mut Vec<Node<P>>) {
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
            Self::expand_reference(succ, nodes);
            return;
        };
        node.new.remove(&f);
        match &f {
            Ltl::False => { /* inconsistent: drop this node */ }
            Ltl::True => {
                node.old.insert(Ltl::True);
                Self::expand_reference(node, nodes);
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
                Self::expand_reference(node, nodes);
            }
            Ltl::And(a, b) => {
                for g in [&**a, &**b] {
                    if !node.old.contains(g) {
                        node.new.insert(g.clone());
                    }
                }
                node.old.insert(f.clone());
                Self::expand_reference(node, nodes);
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
                Self::expand_reference(n1, nodes);
                Self::expand_reference(n2, nodes);
            }
            Ltl::Next(a) => {
                node.old.insert(f.clone());
                node.next.insert((**a).clone());
                node.next_strong.insert((**a).clone());
                Self::expand_reference(node, nodes);
            }
            Ltl::WeakNext(a) => {
                node.old.insert(f.clone());
                node.next.insert((**a).clone());
                Self::expand_reference(node, nodes);
            }
            Ltl::Until(a, b) => {
                // f = a U b : (b) ∨ (a ∧ X f), the unfolding strong.
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
                Self::expand_reference(n1, nodes);
                Self::expand_reference(n2, nodes);
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
                Self::expand_reference(n1, nodes);
                Self::expand_reference(n2, nodes);
            }
        }
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
    use proptest::prelude::*;

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

    /// Asserts that the mask tableau built the set-based reference's
    /// automaton, field by field.
    fn assert_matches_reference<P: Clone + Eq + Hash + Ord + fmt::Debug>(formula: &Ltl<P>) {
        let got = Buchi::from_ltl(formula);
        let want = Buchi::from_ltl_reference(formula);
        assert_eq!(got.state_count, want.state_count, "state count");
        assert_eq!(got.initial, want.initial, "initial states");
        assert_eq!(got.transitions, want.transitions, "transition lists");
        assert_eq!(got.accepting, want.accepting, "accepting states");
        assert_eq!(
            got.finite_accepting, want.finite_accepting,
            "finite-accepting states"
        );
        assert_eq!(got.entry_labels, want.entry_labels, "entry labels");
    }

    /// Formulas over propositions 0..5, built with the raw constructors so
    /// that constants and negations of compound formulas survive into NNF.
    fn arb_formula() -> impl Strategy<Value = Ltl<u8>> {
        let leaf = prop_oneof![
            Just(Ltl::True),
            Just(Ltl::False),
            (0u8..5).prop_map(Ltl::Prop),
        ];
        leaf.prop_recursive(4, 32, 2, |inner| {
            let pair = || (inner.clone(), inner.clone());
            prop_oneof![
                inner.clone().prop_map(|f| Ltl::Not(Box::new(f))),
                pair().prop_map(|(a, b)| Ltl::And(Box::new(a), Box::new(b))),
                pair().prop_map(|(a, b)| Ltl::Or(Box::new(a), Box::new(b))),
                inner.clone().prop_map(|f| Ltl::Next(Box::new(f))),
                inner.clone().prop_map(|f| Ltl::WeakNext(Box::new(f))),
                pair().prop_map(|(a, b)| Ltl::Until(Box::new(a), Box::new(b))),
                pair().prop_map(|(a, b)| Ltl::Release(Box::new(a), Box::new(b))),
                inner.clone().prop_map(|f: Ltl<u8>| f.eventually()),
                inner.prop_map(|f: Ltl<u8>| f.globally()),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn mask_tableau_equals_the_set_reference(f in arb_formula()) {
            assert_matches_reference(&f);
        }
    }

    /// The literals `l_i` over propositions `from..to`: `¬p_i` when
    /// `i + polarity` is odd, `p_i` otherwise.
    fn literals(from: u8, to: u8, polarity: usize) -> Vec<Ltl<u8>> {
        (from..to)
            .map(|i| {
                let p = Ltl::Prop(i);
                if (i as usize + polarity) % 2 == 1 {
                    Ltl::Not(Box::new(p))
                } else {
                    p
                }
            })
            .collect()
    }

    /// `f_0 ∘ (f_1 ∘ (… ∘ f_n))` for the binary connective `∘` = `join`.
    fn nest(fs: Vec<Ltl<u8>>, join: fn(Ltl<u8>, Ltl<u8>) -> Ltl<u8>) -> Ltl<u8> {
        fs.into_iter()
            .rev()
            .reduce(|rest, f| join(f, rest))
            .expect("at least one formula")
    }

    /// `Xⁿ p0`.
    fn next_chain(n: usize) -> Ltl<u8> {
        (0..n).fold(Ltl::Prop(0), |f, _| Ltl::Next(Box::new(f)))
    }

    /// `G(F p0 ∨ F p1)`.
    fn fairness() -> Ltl<u8> {
        Ltl::Or(
            Box::new(Ltl::Prop(0).eventually()),
            Box::new(Ltl::Prop(1).eventually()),
        )
        .globally()
    }

    #[test]
    fn closures_wider_than_one_mask_word_match_the_reference() {
        // X⁷⁰ p: 71 subformulas, a chain of 71 tableau nodes.
        let next_chain = next_chain(70);
        // A 40-literal conjunction with 20 negated literals: 99 subformulas.
        let conjunction = nest(literals(0, 40, 0), Ltl::and);
        // The conjunction until the disjunction of the opposite literals:
        // every literal's negation lies in the closure, most in another word.
        let until = Ltl::Until(
            Box::new(conjunction.clone()),
            Box::new(nest(literals(0, 40, 1), Ltl::or)),
        );
        // A release whose split lands in the second word, with weak nexts.
        let release = Ltl::Release(
            Box::new(nest(literals(20, 60, 1), Ltl::or)),
            Box::new(Ltl::WeakNext(Box::new(conjunction.clone()))),
        );
        // G(F p0 ∨ F p1) ∧ the conjunction: `Ord` puts every `Or`, `Until`
        // and `Release` after the literals and conjunctions, so each split
        // of this tableau is chosen from the second mask word.
        let fair_conjunction = Ltl::And(Box::new(fairness()), Box::new(conjunction.clone()));
        for formula in [next_chain, conjunction, until, release, fair_conjunction] {
            let closure_len = Closure::new(&formula.nnf()).formulas.len();
            assert!(closure_len > 64, "closure of {closure_len} fits one word");
            assert_matches_reference(&formula);
        }
    }

    #[test]
    fn long_next_chains_under_branching_build_without_recursion() {
        // The set-based reference recurses once per expansion step and
        // overflows a debug test thread's stack on this formula.
        let formula = Ltl::And(Box::new(fairness()), Box::new(next_chain(70)));
        assert_eq!(Buchi::from_ltl(&formula).state_count(), 1_138);
    }
}
