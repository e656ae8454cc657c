//! How fast the machine ran around each campaign.
//!
//! On a shared host the same instructions can take half again as long from
//! one minute to the next: other tenants on the same cores and caches slow
//! every instruction, in bursts of tens of milliseconds whose share drifts
//! over minutes. No amount of work inside one run averages that out,
//! because the drift is slower than a run.
//!
//! So the untraced run also times a fixed reference kernel, which shares
//! no code with the program, right before and right after every campaign.
//! It reports each campaign's times scaled to the speed at which the kernel
//! takes exactly [`NOMINAL`]: wall clock × `NOMINAL` / the median kernel
//! time of the two batches around the campaign. A change to the program
//! cannot move the kernel; a slower stretch of the machine slows both
//! alike. The kernel mixes what the program's hot paths do: dependent
//! reads and writes in a table larger than one core's level-2 cache,
//! hash-map lookups and inserts, and floating-point `ln`/`exp` passes. It
//! allocates nothing while timed, so the state the program leaves in the
//! allocator cannot change its time. Each batch starts with an untimed
//! run, and each run first reads the whole table, so neither can what the
//! program left in the caches.

use std::collections::HashMap;
use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

/// What one reference kernel run takes on the nominal machine.
pub const NOMINAL: Duration = Duration::from_micros(500);

/// Timed kernel runs per batch.
const SAMPLES: usize = 2;

/// Words of the kernel's table: 4 MiB, past a 2 MiB level-2 cache.
const TABLE_WORDS: usize = 1 << 20;

/// Table steps of one kernel run.
const STEPS: usize = 30_000;

/// Hash-map operations of one kernel run, over `KEYS` distinct keys.
const LOOKUPS: usize = 6_000;
const KEYS: u64 = 1_500;

/// Entries of the floating-point array, and passes over it per run.
const FLOATS: usize = 2_048;
const PASSES: usize = 6;

/// Reference kernel samples taken over one run.
pub struct Sampler {
    table: Vec<u32>,
    map: HashMap<u64, u64>,
    floats: Vec<f64>,
    samples: Vec<f64>,
}

impl Sampler {
    /// A sampler with no samples yet.
    pub fn new() -> Sampler {
        Sampler {
            table: vec![1; TABLE_WORDS],
            map: HashMap::with_capacity(2 * KEYS as usize),
            floats: vec![0.0; FLOATS],
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once untimed, so that the timed runs start from the
    /// state the kernel leaves rather than the one the program left, and
    /// then [`SAMPLES`] times timed. Returns which samples the batch took.
    pub fn batch(&mut self) -> Range<usize> {
        kernel(&mut self.table, &mut self.map, &mut self.floats);
        let start = self.samples.len();
        for _ in 0..SAMPLES {
            let t = kernel(&mut self.table, &mut self.map, &mut self.floats);
            self.samples.push(t.as_secs_f64());
        }
        start..self.samples.len()
    }

    /// The factor that turns wall clock timed between the batches `before`
    /// and `after` into nominal seconds.
    pub fn scale(&self, before: &Range<usize>, after: &Range<usize>) -> f64 {
        let around: Vec<f64> = self.samples[before.clone()]
            .iter()
            .chain(&self.samples[after.clone()])
            .copied()
            .collect();
        NOMINAL.as_secs_f64() / crate::metrics::median(&around)
    }

    /// Samples taken.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The median kernel time of the run, in seconds.
    pub fn median(&self) -> f64 {
        crate::metrics::median(&self.samples)
    }
}

/// One run of the reference kernel. Untimed, it reads every cache line of
/// `table`, empties `map` (keeping its capacity) and resets `floats`. Timed,
/// it makes xorshift steps with dependent reads and writes into `table`,
/// looks up and inserts keys in `map`, and makes `ln`/`exp` normalisation
/// passes over `floats`.
fn kernel(table: &mut [u32], map: &mut HashMap<u64, u64>, floats: &mut [f64]) -> Duration {
    let warm = table.iter().step_by(16).fold(0, |a, &w| a ^ w);
    black_box(warm);
    map.clear();
    for (i, f) in floats.iter_mut().enumerate() {
        *f = 0.5 + i as f64 / (2 * FLOATS) as f64;
    }
    let mask = table.len() - 1;
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u32;
    for _ in 0..STEPS {
        let r = next();
        let i = (r as usize) & mask;
        table[i] = table[i].wrapping_add(r as u32);
        acc ^= table[((r >> 23) as usize) & mask];
    }
    let mut hits = 0u64;
    for _ in 0..LOOKUPS {
        let r = next();
        match map.get(&(r % KEYS)) {
            Some(v) => hits = hits.wrapping_add(*v),
            None => {
                map.insert(r % KEYS, r);
            }
        }
    }
    for _ in 0..PASSES {
        let mean = floats.iter().map(|v| v.ln()).sum::<f64>() / FLOATS as f64;
        for v in floats.iter_mut() {
            *v = (v.ln() - mean).exp() * 0.5 + 0.5;
        }
    }
    black_box((acc, hits, floats[7]));
    start.elapsed()
}
