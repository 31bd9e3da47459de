//! Bitset compilation of a task's Büchi automaton over the canonical
//! proposition order.
//!
//! A `(T, β)` exploration steps its Büchi automaton once per enumerated
//! letter per transition of `V(T, β)` — the innermost loop of
//! [`crate::task_verifier::TaskVerifier::build_graph`]. The generic
//! [`Buchi`] matches each transition label by probing `BTreeSet`s of
//! propositions; compiled, a letter is a word-packed truth assignment over
//! the verifier's sorted proposition list and a label is a `(pos, neg)`
//! mask pair, so a match is two AND-compare sweeps over a handful of
//! `u64`s.
//!
//! Determinism: successor order is the construction order of the source
//! automaton — transitions keep their per-state `Vec` order and initial
//! states their ascending order ([`Buchi::transitions_from`],
//! [`Buchi::initial`]), exactly the orders the generic `step` /
//! `initial_successors` filter. Labels whose positive propositions fall
//! outside the proposition list are dropped at compile time: the letter
//! enumeration never sets such a bit, so the generic automaton could never
//! take them either.

use has_ltl::buchi::{Buchi, BuchiState, Label};
use has_ltl::hltl::TaskProp;
use has_vass::BitSet;

/// One compiled transition label: `words` `u64`s of required-true bits in
/// `pos`, required-false bits in `neg`, stored flat in the parent arrays.
/// A letter `l` matches iff `l & pos == pos` and `l & neg == 0`.
fn matches(letter: &[u64], pos: &[u64], neg: &[u64]) -> bool {
    pos.iter().zip(letter).all(|(p, l)| p & l == *p)
        && neg.iter().zip(letter).all(|(n, l)| n & l == 0)
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
    /// `props` (bit `i` of a letter is the truth value of `props[i]`).
    pub fn new(buchi: &Buchi<TaskProp>, props: &[TaskProp]) -> Self {
        let words = props.len().div_ceil(64);
        let compile = |label: &Label<TaskProp>| -> Option<(Vec<u64>, Vec<u64>)> {
            let mut pos = vec![0u64; words];
            let mut neg = vec![0u64; words];
            for p in &label.pos {
                // A positive literal over a proposition the letters never
                // set can never be satisfied: drop the transition.
                let bit = props.binary_search(p).ok()?;
                pos[bit / 64] |= 1u64 << (bit % 64);
            }
            for p in &label.neg {
                // A negative literal over an absent proposition is always
                // satisfied (letters default absent propositions to false).
                if let Ok(bit) = props.binary_search(p) {
                    neg[bit / 64] |= 1u64 << (bit % 64);
                }
            }
            Some((pos, neg))
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

    /// Number of `u64` words per letter; letters passed to
    /// [`CompiledBuchi::step`] / [`CompiledBuchi::initial_successors`] must
    /// have exactly this length.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Writes into `out` (cleared first) the states reachable by reading
    /// the *first* letter of a word, in ascending state order (the order of
    /// [`Buchi::initial_successors`]). The caller owns and reuses `out`, so
    /// stepping allocates nothing once it has grown.
    pub fn initial_successors(&self, letter: &[u64], out: &mut Vec<BuchiState>) {
        let w = self.words;
        out.clear();
        out.extend(
            self.init_states
                .iter()
                .enumerate()
                .filter(|&(i, _)| {
                    matches(
                        letter,
                        &self.init_pos[i * w..(i + 1) * w],
                        &self.init_neg[i * w..(i + 1) * w],
                    )
                })
                .map(|(_, &s)| BuchiState(s as usize)),
        );
    }

    /// Writes into `out` (cleared first) the successor states of `state`
    /// when reading a letter, in the source automaton's transition order
    /// (the order of [`Buchi::step`]).
    pub fn step(&self, state: BuchiState, letter: &[u64], out: &mut Vec<BuchiState>) {
        let w = self.words;
        let lo = self.offsets[state.0] as usize;
        let hi = self.offsets[state.0 + 1] as usize;
        out.clear();
        out.extend(
            (lo..hi)
                .filter(|&e| {
                    matches(
                        letter,
                        &self.pos[e * w..(e + 1) * w],
                        &self.neg[e * w..(e + 1) * w],
                    )
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
    use has_ltl::Ltl;
    use has_model::ServiceRef;
    use has_model::TaskId;

    fn prop(name: usize) -> TaskProp {
        // Distinct Service propositions are cheap to fabricate and ordered.
        TaskProp::Service(ServiceRef::Internal(TaskId(0), name))
    }

    /// Packs a truth assignment over `props` into letter words.
    fn letter(props: &[TaskProp], truth: &[bool]) -> Vec<u64> {
        let mut l = vec![0u64; props.len().div_ceil(64)];
        for (i, &b) in truth.iter().enumerate() {
            if b {
                l[i / 64] |= 1 << (i % 64);
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
        let compiled = CompiledBuchi::new(&buchi, &props);

        // One buffer across every call: each call must clear what the
        // previous one left behind.
        let mut out = vec![BuchiState(usize::MAX)];
        for mask in 0..4usize {
            let truth = [mask & 1 != 0, mask & 2 != 0];
            let l = letter(&props, &truth);
            let assignment = |p: &TaskProp| {
                props.iter().position(|q| q == p).map(|i| truth[i]).unwrap_or(false)
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
}
