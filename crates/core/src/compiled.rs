//! Bitset compilation of a task's Büchi automaton over the canonical
//! proposition order.
//!
//! A `(T, β)` exploration steps its Büchi automaton once per transition of
//! `V(T, β)` — the innermost loop of
//! [`crate::task_verifier::TaskVerifier::build_graph`]. The generic
//! [`Buchi`] matches each transition label by probing `BTreeSet`s of
//! propositions; compiled, a [`Letter`] is a three-valued assignment packed
//! into two word masks over the verifier's sorted proposition list and a
//! label is a `(pos, neg)` mask pair, so a match is two AND-compare sweeps
//! over a handful of `u64`s.
//!
//! Three-valued matching is exact: a label matches a letter iff it matches
//! at least one completion of the letter's undetermined propositions, so one
//! step yields the union of the successors of every completion (DESIGN.md
//! §5.5). For a label with `pos ∩ neg = ∅`, setting every undetermined `pos`
//! bit true and every other undetermined bit false is such a completion
//! whenever `pos ⊆ bits ∪ unknown` and `neg ∩ bits = ∅`; a label with
//! `pos ∩ neg ≠ ∅` matches no completion and is dropped at compile time.
//!
//! A label can also be unmatchable although each of its literals alone is
//! not: `x > 5 ∧ x < 3` over two arithmetic propositions that every state
//! leaves undetermined. Labels with a condition proposition holding an
//! arithmetic atom are decided once, when the automaton is compiled: the
//! conjunction of their condition literals (negated where negative) goes to
//! the exact Fourier–Motzkin decision [`has_analysis::guard_status`], and a
//! label it proves `Unsatisfiable` is dropped — no valuation satisfies it,
//! so no concrete step could take it (DESIGN.md §5.5).
//!
//! Determinism: successor order is the construction order of the source
//! automaton — transitions keep their per-state `Vec` order and initial
//! states their ascending order ([`Buchi::transitions_from`],
//! [`Buchi::initial`]), exactly the orders the generic `step` /
//! `initial_successors` filter. Labels whose positive propositions fall
//! outside the proposition list are dropped at compile time: a letter never
//! sets such a bit, so the generic automaton could never take them either.

use has_analysis::{guard_status, GuardStatus};
use has_ltl::buchi::{Buchi, BuchiState, Label};
use has_ltl::hltl::TaskProp;
use has_model::{ArtifactSchema, Atom, Condition};
use has_vass::BitSet;
use std::collections::HashMap;

/// One step's truth assignment over the proposition list, three-valued: bit
/// `i` of `bits` set ⇔ `props[i]` holds, bit `i` of `unknown` set ⇔ the
/// abstraction leaves `props[i]` undetermined; every other proposition is
/// false. The two masks are disjoint and [`CompiledBuchi::words`] long.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Letter {
    pub bits: Box<[u64]>,
    pub unknown: Box<[u64]>,
}

impl Letter {
    /// The letter over `words` words with every proposition false.
    pub fn new(words: usize) -> Self {
        Letter {
            bits: vec![0; words].into_boxed_slice(),
            unknown: vec![0; words].into_boxed_slice(),
        }
    }

    /// Whether some completion of the letter matches the compiled label
    /// `(pos, neg)`: `pos ⊆ bits ∪ unknown` and `neg ∩ bits = ∅`.
    fn matches(&self, pos: &[u64], neg: &[u64]) -> bool {
        pos.iter()
            .zip(self.bits.iter().zip(self.unknown.iter()))
            .all(|(p, (b, u))| p & !(b | u) == 0)
            && neg.iter().zip(self.bits.iter()).all(|(n, b)| n & b == 0)
    }
}

/// Compiles one label to its `(pos, neg)` masks over `props`, or `None` when
/// no letter can match it: a positive literal over a proposition outside
/// `props` (letters read those as false), or a proposition required both
/// true and false. A negative literal outside `props` always holds and is
/// left out of the masks.
fn compile_label(
    label: &Label<TaskProp>,
    props: &[TaskProp],
    words: usize,
) -> Option<(Vec<u64>, Vec<u64>)> {
    let mut pos = vec![0u64; words];
    let mut neg = vec![0u64; words];
    for p in &label.pos {
        let bit = props.binary_search(p).ok()?;
        pos[bit / 64] |= 1u64 << (bit % 64);
    }
    for p in &label.neg {
        if let Ok(bit) = props.binary_search(p) {
            neg[bit / 64] |= 1u64 << (bit % 64);
        }
    }
    pos.iter()
        .zip(&neg)
        .all(|(p, n)| p & n == 0)
        .then_some((pos, neg))
}

/// The labels of one automaton whose condition literals are jointly
/// unsatisfiable over the rationals, decided once per distinct compiled
/// label and only for labels over an arithmetic proposition (see the module
/// docs).
struct Feasibility<'a> {
    schema: &'a ArtifactSchema,
    props: &'a [TaskProp],
    /// Bit `i` set ⇔ `props[i]` is a condition with an arithmetic atom.
    arith: Vec<u64>,
    decided: HashMap<(Vec<u64>, Vec<u64>), bool>,
}

impl<'a> Feasibility<'a> {
    fn new(schema: &'a ArtifactSchema, props: &'a [TaskProp], words: usize) -> Self {
        let mut arith = vec![0u64; words];
        for (bit, p) in props.iter().enumerate() {
            if let TaskProp::Condition(c) = p {
                if c.atoms().iter().any(|a| matches!(a, Atom::Arith(_))) {
                    arith[bit / 64] |= 1u64 << (bit % 64);
                }
            }
        }
        Feasibility {
            schema,
            props,
            arith,
            decided: HashMap::new(),
        }
    }

    /// Whether some valuation satisfies the condition literals of the
    /// compiled label `(pos, neg)`.
    fn feasible(&mut self, pos: &[u64], neg: &[u64]) -> bool {
        let mut masks = pos.iter().zip(neg).zip(&self.arith);
        if masks.all(|((p, n), a)| (p | n) & a == 0) {
            return true;
        }
        let Feasibility {
            schema,
            props,
            decided,
            ..
        } = self;
        *decided
            .entry((pos.to_vec(), neg.to_vec()))
            .or_insert_with(|| {
                let literal = |mask: &[u64], bit: usize| mask[bit / 64] >> (bit % 64) & 1 == 1;
                let mut literals = Condition::True;
                for (bit, p) in props.iter().enumerate() {
                    let TaskProp::Condition(c) = p else { continue };
                    if literal(pos, bit) {
                        literals = literals.and(c.clone());
                    } else if literal(neg, bit) {
                        literals = literals.and(c.clone().negate());
                    }
                }
                guard_status(schema, &literals) != GuardStatus::Unsatisfiable
            })
    }
}

/// A [`Buchi`] automaton over [`TaskProp`] compiled to bitset masks over a
/// fixed, sorted proposition list (the verifier's `props`).
pub struct CompiledBuchi {
    /// Number of `u64` words per mask/letter.
    words: usize,
    /// CSR offsets into the edge arrays, one entry per state plus a
    /// terminator.
    offsets: Vec<u32>,
    /// Positive masks, `words` u64s per edge.
    pos: Vec<u64>,
    /// Negative masks, `words` u64s per edge.
    neg: Vec<u64>,
    /// Edge targets, parallel to the mask arrays.
    targets: Vec<u32>,
    /// Initial states in ascending order, with their compiled entry labels
    /// stored flat like the edge masks.
    init_states: Vec<u32>,
    init_pos: Vec<u64>,
    init_neg: Vec<u64>,
    /// Büchi (infinite-word) accepting states.
    accepting: BitSet,
    /// Finite-word accepting states (`Q_fin`).
    finite_accepting: BitSet,
}

impl CompiledBuchi {
    /// Compiles `buchi` over the sorted, deduplicated proposition list
    /// `props` (bit `i` of a letter's masks is about `props[i]`), dropping
    /// the labels whose condition literals no valuation over `schema`'s
    /// variables satisfies (see the module docs).
    pub fn new(buchi: &Buchi<TaskProp>, props: &[TaskProp], schema: &ArtifactSchema) -> Self {
        let words = props.len().div_ceil(64);
        let mut feasibility = Feasibility::new(schema, props, words);
        let mut compile = |label: &Label<TaskProp>| {
            compile_label(label, props, words).filter(|(p, n)| feasibility.feasible(p, n))
        };

        let state_count = buchi.state_count();
        let mut offsets = vec![0u32; state_count + 1];
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        let mut targets = Vec::new();
        for s in 0..state_count {
            for (label, to) in buchi.transitions_from(BuchiState(s)) {
                if let Some((p, n)) = compile(label) {
                    pos.extend_from_slice(&p);
                    neg.extend_from_slice(&n);
                    targets.push(to.0 as u32);
                }
            }
            offsets[s + 1] = targets.len() as u32;
        }

        let mut init_states = Vec::new();
        let mut init_pos = Vec::new();
        let mut init_neg = Vec::new();
        for s in buchi.initial() {
            if let Some((p, n)) = compile(buchi.entry_label(s)) {
                init_states.push(s.0 as u32);
                init_pos.extend_from_slice(&p);
                init_neg.extend_from_slice(&n);
            }
        }

        let mut accepting = BitSet::new(state_count);
        for s in buchi.accepting() {
            accepting.insert(s.0);
        }
        let mut finite_accepting = BitSet::new(state_count);
        for s in buchi.finite_accepting() {
            finite_accepting.insert(s.0);
        }

        CompiledBuchi {
            words,
            offsets,
            pos,
            neg,
            targets,
            init_states,
            init_pos,
            init_neg,
            accepting,
            finite_accepting,
        }
    }

    /// Number of `u64` words per letter mask; letters passed to
    /// [`CompiledBuchi::step`] / [`CompiledBuchi::initial_successors`] must
    /// have exactly this length.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Writes into `out` (cleared first) the states reachable by reading
    /// the *first* letter of a word under some completion of it, in
    /// ascending state order (the order of [`Buchi::initial_successors`]).
    /// The caller owns and reuses `out`, so stepping allocates nothing once
    /// it has grown.
    pub fn initial_successors(&self, letter: &Letter, out: &mut Vec<BuchiState>) {
        let w = self.words;
        out.clear();
        out.extend(
            self.init_states
                .iter()
                .enumerate()
                .filter(|&(i, _)| {
                    letter.matches(
                        &self.init_pos[i * w..(i + 1) * w],
                        &self.init_neg[i * w..(i + 1) * w],
                    )
                })
                .map(|(_, &s)| BuchiState(s as usize)),
        );
    }

    /// Writes into `out` (cleared first) the successor states of `state`
    /// when reading a letter under some completion of it, in the source
    /// automaton's transition order (the order of [`Buchi::step`]).
    pub fn step(&self, state: BuchiState, letter: &Letter, out: &mut Vec<BuchiState>) {
        let w = self.words;
        let lo = self.offsets[state.0] as usize;
        let hi = self.offsets[state.0 + 1] as usize;
        out.clear();
        out.extend(
            (lo..hi)
                .filter(|&e| {
                    letter.matches(&self.pos[e * w..(e + 1) * w], &self.neg[e * w..(e + 1) * w])
                })
                .map(|e| BuchiState(self.targets[e] as usize)),
        );
    }

    /// Whether `state` is Büchi (infinite-word) accepting.
    pub fn is_accepting(&self, state: BuchiState) -> bool {
        self.accepting.contains(state.0)
    }

    /// Whether `state` is finite-word accepting (in `Q_fin`).
    pub fn is_finite_accepting(&self, state: BuchiState) -> bool {
        self.finite_accepting.contains(state.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use has_arith::{LinExpr, LinearConstraint, Rational};
    use has_ltl::Ltl;
    use has_model::{ServiceRef, SystemBuilder, TaskId, VarId};

    /// A schema with one numeric variable `x`, and the variable.
    fn schema_with_x() -> (ArtifactSchema, VarId) {
        let mut b = SystemBuilder::new("compiled");
        let root = b.root_task("Main");
        let x = b.num_var(root, "x");
        (b.build().unwrap().schema, x)
    }

    fn schema() -> ArtifactSchema {
        schema_with_x().0
    }

    fn prop(name: usize) -> TaskProp {
        // Distinct Service propositions are cheap to fabricate and ordered.
        TaskProp::Service(ServiceRef::Internal(TaskId(0), name))
    }

    /// Packs a three-valued assignment into a letter: proposition `i` holds
    /// if `truth[i]`, is undetermined if `unknown[i]`, and is false else.
    fn letter(truth: &[bool], unknown: &[bool]) -> Letter {
        let mut l = Letter::new(truth.len().div_ceil(64));
        for (i, (&t, &u)) in truth.iter().zip(unknown).enumerate() {
            if t {
                l.bits[i / 64] |= 1 << (i % 64);
            }
            if u {
                l.unknown[i / 64] |= 1 << (i % 64);
            }
        }
        l
    }

    #[test]
    fn compiled_stepping_matches_generic_stepping() {
        let a = prop(0);
        let b = prop(1);
        let f: Ltl<TaskProp> = Ltl::prop(a.clone()).until(Ltl::prop(b.clone()));
        let buchi = Buchi::from_ltl(&f);
        let props = vec![a.clone(), b.clone()];
        let compiled = CompiledBuchi::new(&buchi, &props, &schema());

        // One buffer across every call: each call must clear what the
        // previous one left behind.
        let mut out = vec![BuchiState(usize::MAX)];
        for mask in 0..4usize {
            let truth = [mask & 1 != 0, mask & 2 != 0];
            let l = letter(&truth, &[false; 2]);
            let assignment = |p: &TaskProp| {
                props
                    .iter()
                    .position(|q| q == p)
                    .map(|i| truth[i])
                    .unwrap_or(false)
            };
            compiled.initial_successors(&l, &mut out);
            assert_eq!(
                out,
                buchi.initial_successors(assignment),
                "initial successors under {truth:?}"
            );
            for s in 0..buchi.state_count() {
                compiled.step(BuchiState(s), &l, &mut out);
                assert_eq!(
                    out,
                    buchi.step(BuchiState(s), assignment),
                    "successors of state {s} under {truth:?}"
                );
            }
        }
        for s in 0..buchi.state_count() {
            let q = BuchiState(s);
            assert_eq!(compiled.is_accepting(q), buchi.accepting().contains(&q));
            assert_eq!(
                compiled.is_finite_accepting(q),
                buchi.finite_accepting().contains(&q)
            );
        }
    }

    /// Every split of three propositions into (true, unknown, false): one
    /// three-valued step yields exactly the union of the generic steps over
    /// every completion of the unknown propositions.
    #[test]
    fn three_valued_stepping_is_the_union_over_completions() {
        use std::collections::BTreeSet;
        let props = vec![prop(0), prop(1), prop(2)];
        let [a, b, c] = [0, 1, 2].map(|i| Ltl::prop(props[i].clone()));
        let f = (a.clone().until(b.clone().and(c.clone().not())))
            .or(a.implies(c.next()).globally().and(b.eventually()));
        let buchi = Buchi::from_ltl(&f);
        let compiled = CompiledBuchi::new(&buchi, &props, &schema());
        let index = |p: &TaskProp| props.iter().position(|q| q == p).unwrap();

        let mut out = Vec::new();
        for split in 0..27usize {
            // Digit `i` of `split` in base 3: 0 false, 1 true, 2 unknown.
            let digit = |i: u32| split / 3usize.pow(i) % 3;
            let truth = [0, 1, 2].map(|i| digit(i) == 1);
            let unknown = [0, 1, 2].map(|i| digit(i) == 2);
            let l = letter(&truth, &unknown);
            let completions: Vec<[bool; 3]> = (0..8usize)
                .map(|m| [0, 1, 2].map(|i| truth[i] || (unknown[i] && m & (1 << i) != 0)))
                .collect();
            compiled.initial_successors(&l, &mut out);
            assert_eq!(
                out.iter().copied().collect::<BTreeSet<_>>(),
                completions
                    .iter()
                    .flat_map(|c| buchi.initial_successors(|p| c[index(p)]))
                    .collect::<BTreeSet<_>>(),
                "initial successors under true {truth:?}, unknown {unknown:?}"
            );
            for s in 0..buchi.state_count() {
                compiled.step(BuchiState(s), &l, &mut out);
                assert_eq!(
                    out.iter().copied().collect::<BTreeSet<_>>(),
                    completions
                        .iter()
                        .flat_map(|c| buchi.step(BuchiState(s), |p| c[index(p)]))
                        .collect::<BTreeSet<_>>(),
                    "successors of state {s} under true {truth:?}, unknown {unknown:?}"
                );
            }
        }
    }

    /// A label holding `p ∧ ¬p` is dropped at compile time, so it matches no
    /// letter, not even one that leaves `p` undetermined.
    #[test]
    fn contradictory_label_matches_nothing() {
        let props = vec![prop(0), prop(1)];
        let label = |pos: &[usize], neg: &[usize]| Label {
            pos: pos.iter().map(|&i| props[i].clone()).collect(),
            neg: neg.iter().map(|&i| props[i].clone()).collect(),
        };
        assert_eq!(compile_label(&label(&[0], &[0]), &props, 1), None);
        assert_eq!(compile_label(&label(&[0, 1], &[1]), &props, 1), None);
        let (pos, neg) = compile_label(&label(&[0], &[1]), &props, 1).expect("satisfiable");
        assert_eq!((pos, neg), (vec![0b01], vec![0b10]));
        assert!(letter(&[false, false], &[true, true]).matches(&[0b01], &[0b10]));
    }

    /// `x > 5 ∧ x < 3` is unmatchable although each literal alone is not:
    /// the label over both is dropped when the automaton is compiled, while
    /// `x > 5 ∧ ¬(x < 3)` and labels without arithmetic stay.
    #[test]
    fn arithmetically_contradictory_label_matches_nothing() {
        let (schema, x) = schema_with_x();
        let cmp = |ge: bool, c: i64| {
            let (x, c) = (LinExpr::var(x), LinExpr::constant(Rational::from_int(c)));
            let constraint = if ge {
                LinearConstraint::gt(x, c)
            } else {
                LinearConstraint::lt(x, c)
            };
            TaskProp::Condition(Condition::arith(constraint))
        };
        let mut props = vec![cmp(true, 5), cmp(false, 3), prop(0)];
        props.sort();
        let bit = |p: &TaskProp| 1u64 << props.iter().position(|q| q == p).unwrap();
        let (above, below, service) = (bit(&cmp(true, 5)), bit(&cmp(false, 3)), bit(&prop(0)));
        let mut feasibility = Feasibility::new(&schema, &props, 1);
        assert!(!feasibility.feasible(&[above | below], &[0]));
        assert!(!feasibility.feasible(&[above | below | service], &[0]));
        assert!(feasibility.feasible(&[above], &[below]));
        assert!(feasibility.feasible(&[service], &[above | below]));
        assert!(feasibility.feasible(&[service], &[0]));
        assert_eq!(
            feasibility.decided.len(),
            4,
            "labels without arithmetic are not decided"
        );

        // `G ¬(x>5 ∧ x<3)` negated: its automaton needs a step where both
        // hold, and no letter, even one leaving both undetermined, offers it.
        let [p, q] = [cmp(true, 5), cmp(false, 3)].map(Ltl::prop);
        let buchi = Buchi::from_ltl(&p.and(q).eventually());
        let compiled = CompiledBuchi::new(&buchi, &props, &schema);
        let unknown = Letter {
            bits: vec![0].into_boxed_slice(),
            unknown: vec![above | below].into_boxed_slice(),
        };
        let mut frontier = Vec::new();
        compiled.initial_successors(&unknown, &mut frontier);
        let mut seen: std::collections::BTreeSet<BuchiState> = frontier.iter().copied().collect();
        let mut out = Vec::new();
        while let Some(s) = frontier.pop() {
            compiled.step(s, &unknown, &mut out);
            for &t in &out {
                if seen.insert(t) {
                    frontier.push(t);
                }
            }
        }
        assert!(
            !seen.iter().any(|&s| compiled.is_accepting(s)),
            "no accepting state is reachable"
        );
    }
}
