//! Deterministic hashing and dense interning primitives for the hot loops.
//!
//! The coverability construction (this crate) and the symbolic product
//! construction (`has-core`) both spend their time canonicalizing
//! structured keys — extended markings, symbolic control states — into
//! dense integer ids. The ordered maps they previously used pay an
//! O(log n) *deep* comparison per probe; the interners here pay one hash
//! of the key and O(1) expected probes, and they assign ids in insertion
//! order, so every downstream iteration order is exactly the order in
//! which the deterministic worklists first produced each key. That is the
//! determinism contract of DESIGN.md §5.6/§5.8: canonical orders come from
//! the interners (first-insertion order), never from map iteration.
//!
//! Everything is hand-rolled on purpose: the workspace builds without
//! registry dependencies, and the standard library's `RandomState` is
//! seeded per process, which would make any accidentally order-dependent
//! consumer nondeterministic *across runs*. [`FxBuildHasher`] is fixed-seed
//! (the FxHash multiply-mix used by rustc), so even debugging sessions see
//! identical hashes run over run.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// The FxHash multiplication constant (as used by the rustc hasher).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fixed-seed FxHash-style hasher: not DoS-resistant, but fast on the
/// short integer-shaped keys the verifier hashes, and byte-for-byte
/// reproducible across runs and platforms.
#[derive(Clone, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// The [`BuildHasher`] for [`FxHasher`]: zero-sized and fixed-seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` with the deterministic [`FxBuildHasher`]. Safe wherever the
/// map is *lookup-only* (never iterated for output); see the module docs.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Hashes one value with the deterministic hasher.
#[inline]
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// An insertion-ordered interner: assigns dense ids `0, 1, 2, …` to
/// distinct values in first-insertion order and stores each value exactly
/// once (the open-addressing table holds ids, not keys, so a hit clones
/// nothing and a miss moves the value into the arena).
#[derive(Clone, Debug)]
pub struct Interner<T> {
    items: Vec<T>,
    /// Cached hash per item, so growth never rehashes the values.
    hashes: Vec<u64>,
    /// Open-addressing slots holding `id + 1` (`0` = empty); length is a
    /// power of two.
    table: Vec<u32>,
    mask: usize,
}

impl<T: Hash + Eq> Default for Interner<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Hash + Eq> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            items: Vec::new(),
            hashes: Vec::new(),
            table: vec![0; 16],
            mask: 15,
        }
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The value with the given dense id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn get(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    /// All interned values, indexed by id (insertion order).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consumes the interner, returning the arena of values indexed by id
    /// (insertion order). Used when construction is done and only the dense
    /// arena is kept.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// The id of `value` if it has been interned.
    pub fn lookup(&self, value: &T) -> Option<u32> {
        let hash = fx_hash(value);
        let mut slot = (hash as usize) & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == 0 {
                return None;
            }
            let id = entry - 1;
            if self.hashes[id as usize] == hash && self.items[id as usize] == *value {
                return Some(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Interns `value`: returns its dense id and whether it was newly
    /// inserted. On a hit the passed value is dropped; on a miss it is
    /// moved into the arena — no clone either way.
    pub fn intern(&mut self, value: T) -> (u32, bool) {
        let hash = fx_hash(&value);
        let mut slot = (hash as usize) & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == 0 {
                break;
            }
            let id = entry - 1;
            if self.hashes[id as usize] == hash && self.items[id as usize] == value {
                return (id, false);
            }
            slot = (slot + 1) & self.mask;
        }
        let id =
            u32::try_from(self.items.len()).expect("interner overflow: more than u32::MAX values");
        self.items.push(value);
        self.hashes.push(hash);
        self.table[slot] = id + 1;
        if (self.items.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
        (id, true)
    }

    fn grow(&mut self) {
        let new_len = self.table.len() * 2;
        self.mask = new_len - 1;
        self.table.clear();
        self.table.resize(new_len, 0);
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & self.mask;
            while self.table[slot] != 0 {
                slot = (slot + 1) & self.mask;
            }
            self.table[slot] = id as u32 + 1;
        }
    }
}

/// A fixed-capacity bitset over `0..bits`, one `u64` word per 64 bits.
///
/// Replaces `BTreeSet<usize>` membership sets in the hot loops: `contains`
/// is one shift and mask instead of an ordered-tree probe. Iteration order
/// is not offered — consumers that need a canonical order keep their dense
/// id order (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with capacity for bits `0..bits`.
    pub fn new(bits: usize) -> Self {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Inserts a bit.
    ///
    /// # Panics
    /// Panics if `bit` is beyond the capacity given at construction.
    pub fn insert(&mut self, bit: usize) {
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Whether a bit is set; bits beyond the capacity are unset.
    pub fn contains(&self, bit: usize) -> bool {
        self.words
            .get(bit / 64)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_insert_contains_and_count() {
        let mut b = BitSet::new(130);
        assert!(!b.any());
        for bit in [0, 63, 64, 129] {
            b.insert(bit);
            assert!(b.contains(bit));
        }
        assert!(!b.contains(1));
        assert!(!b.contains(1000)); // beyond capacity: unset, no panic
        assert!(b.any());
        assert_eq!(b.count(), 4);
    }

    #[test]
    fn ids_are_assigned_in_insertion_order() {
        let mut i: Interner<String> = Interner::new();
        assert_eq!(i.intern("b".to_string()), (0, true));
        assert_eq!(i.intern("a".to_string()), (1, true));
        assert_eq!(i.intern("b".to_string()), (0, false));
        assert_eq!(i.lookup(&"a".to_string()), Some(1));
        assert_eq!(i.lookup(&"c".to_string()), None);
        assert_eq!(i.items(), &["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn growth_preserves_ids() {
        let mut i: Interner<u64> = Interner::new();
        for v in 0..10_000u64 {
            let (id, new) = i.intern(v * 7919);
            assert_eq!(id as u64, v);
            assert!(new);
        }
        for v in 0..10_000u64 {
            assert_eq!(i.lookup(&(v * 7919)), Some(v as u32));
        }
        assert_eq!(i.len(), 10_000);
    }

    #[test]
    fn fx_hash_is_stable_across_calls() {
        let a = fx_hash(&(3usize, vec![1u64, 2, 3]));
        let b = fx_hash(&(3usize, vec![1u64, 2, 3]));
        assert_eq!(a, b);
        assert_ne!(a, fx_hash(&(3usize, vec![1u64, 2, 4])));
    }
}
