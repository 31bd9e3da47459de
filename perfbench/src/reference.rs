//! A fixed reference computation, timed beside the verifier to gauge how
//! fast the machine runs at that moment.
//!
//! On a shared host the speed of a core drifts by up to 2× within seconds.
//! Every end-to-end time is therefore scaled to a nominal machine: it is
//! multiplied by ([`NOMINAL_S`] / mean pass time)^[`SENSITIVITY`], the mean
//! taken over the reference passes run around it. The reference is this
//! file's own code, so a change to the verifier moves the scaled times
//! exactly as it moves the raw ones.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Keys per pass; sized so that one pass takes about 3 ms.
const KEYS: usize = 1 << 14;

/// Seconds one reference pass takes on the nominal machine (about its time
/// on one vCPU of a 2.0 GHz Xeon virtual machine).
pub const NOMINAL_S: f64 = 0.003;

/// How much more than the reference the verifier slows when the host is
/// loaded, as the exponent of a power law: regressing the log of each call's
/// time on the log of the passes around it gave slopes of 1.1 to 1.9 across
/// the workloads (2-vCPU shared VM), and 1.5 left the least run-to-run
/// spread on all three.
const SENSITIVITY: f64 = 1.5;

/// One pass of the reference work: hashing, ordered-map inserts, sorting
/// and small allocations, the operations the verifier spends its time in.
fn work() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut keys = Vec::with_capacity(KEYS);
    for _ in 0..KEYS {
        let k = next() % (4 * KEYS as u64);
        keys.push(k);
        *map.entry(k).or_insert(0) += 1;
    }
    let mut acc = 0u64;
    for k in &keys {
        acc = acc.wrapping_add(map.get(&(k ^ 1)).copied().unwrap_or(0));
    }
    let mut tree = BTreeMap::new();
    for (i, k) in keys.iter().enumerate().step_by(3) {
        tree.insert(*k, i);
    }
    keys.sort_unstable();
    let rows: Vec<Vec<u32>> = keys
        .iter()
        .take(KEYS / 8)
        .map(|k| (0..(k % 24) as u32).collect())
        .collect();
    for row in &rows {
        acc = acc.wrapping_add(row.iter().map(|v| u64::from(*v)).sum::<u64>());
    }
    acc.wrapping_add(tree.range(..keys[KEYS / 2]).count() as u64)
}

/// Reference passes timed so far.
#[derive(Default)]
pub struct Gauge {
    total: Duration,
    passes: u32,
}

impl Gauge {
    /// Times one reference pass.
    pub fn pass(&mut self) {
        let start = Instant::now();
        black_box(work());
        self.total += start.elapsed();
        self.passes += 1;
    }

    /// Adds another gauge's passes to this one.
    pub fn absorb(&mut self, other: &Gauge) {
        self.total += other.total;
        self.passes += other.passes;
    }

    /// Mean seconds per pass.
    pub fn mean_s(&self) -> f64 {
        self.total.as_secs_f64() / f64::from(self.passes)
    }

    /// The factor that scales a time measured among these passes to the
    /// nominal machine.
    pub fn scale(&self) -> f64 {
        (NOMINAL_S / self.mean_s()).powf(SENSITIVITY)
    }
}
