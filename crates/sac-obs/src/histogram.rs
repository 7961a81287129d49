//! Lock-free log-bucketed latency histogram.
//!
//! Bucket upper bounds follow a base-2 grid with one midpoint per octave —
//! `1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, …` microseconds — i.e. 2 buckets
//! per octave, spanning 1µs to 2^26µs (~67s, comfortably past a 60s request
//! timeout), plus one overflow bucket. Everything on the record path is a
//! relaxed atomic add, so any number of worker threads can record
//! concurrently while another thread snapshots.
//!
//! ## Quantile error bound
//!
//! A reported percentile is the **upper bound** of the bucket holding the
//! rank-`⌈p·n⌉` observation, so it never understates the true value, and it
//! overstates it by at most the bucket's width ratio. Two buckets per octave
//! on an ideal geometric grid would mean a ratio of √2 per bucket, i.e.
//! ≤ ~41% relative error; this grid keeps the bounds integral by alternating
//! ratios of 1.5 (`2^e → 3·2^(e-1)`) and 4/3 (`3·2^(e-1) → 2^(e+1)`), so
//! the worst case is **≤ 50%** (on the `(2^e, 3·2^(e-1)]` buckets; ≤ 33% on
//! the others). Sub-microsecond observations pin to the 1µs bucket, and the
//! top rank and the overflow bucket report the exact tracked maximum. The
//! bound is pinned by a property test against a sorted-vec oracle in
//! `tests/proptest_histogram.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Largest octave exponent on the bucket grid: the last finite bucket upper
/// bound is `2^MAX_EXP` microseconds (~67s).
const MAX_EXP: u32 = 26;

/// Number of finite buckets: bound `1`, then two per octave (`2^e` and
/// `3·2^(e-1)`) for `e = 1..MAX_EXP`, then the final `2^MAX_EXP`.
const FINITE_BUCKETS: usize = 2 * MAX_EXP as usize;

/// Total buckets including the `+Inf` overflow bucket.
pub const NUM_BUCKETS: usize = FINITE_BUCKETS + 1;

/// The finite bucket upper bounds in microseconds, ascending.
const BOUNDS: [u64; FINITE_BUCKETS] = build_bounds();

const fn build_bounds() -> [u64; FINITE_BUCKETS] {
    let mut bounds = [0u64; FINITE_BUCKETS];
    bounds[0] = 1;
    let mut e = 1u32;
    while e < MAX_EXP {
        bounds[2 * e as usize - 1] = 1u64 << e;
        bounds[2 * e as usize] = 3u64 << (e - 1);
        e += 1;
    }
    bounds[2 * MAX_EXP as usize - 1] = 1u64 << MAX_EXP;
    bounds
}

/// The finite bucket upper bounds in microseconds, ascending. The overflow
/// (`+Inf`) bucket is implicit after the last entry.
pub fn bucket_bounds() -> &'static [u64] {
    &BOUNDS
}

/// Maps a value in microseconds to its bucket index: the smallest bucket
/// whose upper bound is ≥ the value, with values above `2^26`µs landing in
/// the overflow bucket (`NUM_BUCKETS - 1`).
///
/// ```
/// use sac_obs::{bucket_bounds, bucket_index};
///
/// assert_eq!(bucket_bounds()[bucket_index(1)], 1);
/// assert_eq!(bucket_bounds()[bucket_index(5)], 6);
/// assert_eq!(bucket_bounds()[bucket_index(1000)], 1024);
/// assert_eq!(bucket_index(u64::MAX), bucket_bounds().len()); // overflow
/// ```
pub fn bucket_index(micros: u64) -> usize {
    if micros <= 1 {
        return 0;
    }
    let e = 63 - micros.leading_zeros() as u64; // floor(log2(micros)) ≥ 1
    let base = 1u64 << e;
    let idx = if micros == base {
        2 * e as usize - 1
    } else if micros <= base + (base >> 1) {
        2 * e as usize
    } else {
        2 * e as usize + 1
    };
    idx.min(FINITE_BUCKETS)
}

/// A lock-free latency histogram: ~2 log-spaced buckets per octave from 1µs
/// to >60s, plus exact running `count`, `sum` and `max`.
///
/// Recording is wait-free (relaxed atomic adds); snapshots can be taken
/// concurrently and merged across histograms with identical bucket layouts
/// (the layout is global, so all `Histogram`s merge).
///
/// ```
/// use sac_obs::Histogram;
///
/// let h = Histogram::new();
/// for micros in [3, 40, 41, 2_000] {
///     h.record(micros);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 4);
/// assert_eq!(snap.max(), 2_000);
/// assert_eq!(snap.percentile(0.50), 48); // bucket upper bound of the median
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// `false` for a silent histogram, whose `record` is a no-op.
    recording: bool,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::with_recording(true)
    }

    /// An empty histogram; with `recording == false` it is silent (records
    /// nothing), as a registry built without timings hands out
    /// ([`crate::MetricsRegistry::with_timings`]).
    pub(crate) fn with_recording(recording: bool) -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            recording,
        }
    }

    /// Records one observation in microseconds (a no-op on a silent
    /// histogram). Wait-free; safe from any number of threads.
    pub fn record(&self, micros: u64) {
        if !self.recording {
            return;
        }
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.max.fetch_max(micros, Ordering::Relaxed);
    }

    /// Clears every bucket and the running totals back to zero.
    ///
    /// Not atomic with respect to concurrent [`Histogram::record`] calls: a
    /// racing recorder may land partially before and partially after the
    /// reset, skewing one observation. The windowed ring
    /// ([`crate::WindowedHistogram`]) serialises resets behind its rotation
    /// lock and publishes them with a release store, so the race is bounded
    /// to recorders already past the tick check — at most a one-sample skew
    /// per rotation, which windowed summaries tolerate by design. Cumulative
    /// histograms should never be reset.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the bucket counts and totals.
    ///
    /// Concurrent `record` calls may or may not be included, but the
    /// snapshot never panics and never goes backwards: once all writers
    /// have finished, a snapshot observes every recorded value exactly once.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state: mergeable, and the thing
/// percentiles are extracted from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations in microseconds.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation in microseconds (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket observation counts, aligned with [`bucket_bounds`] (the
    /// final entry is the overflow bucket).
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// Folds another snapshot into this one. Merging is associative and
    /// commutative: merging per-shard (or per-thread) histograms yields the
    /// same distribution as recording into one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The latency value at percentile `p` (`0.0..=1.0`), in microseconds.
    ///
    /// Returns the upper bound of the bucket containing the rank-`⌈p·n⌉`
    /// observation — exact at bucket resolution (≤50% relative error). For
    /// ranks landing in the overflow bucket, and for `p = 1.0`, the exact
    /// recorded maximum is returned. Empty snapshots return 0.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i < FINITE_BUCKETS {
                    BOUNDS[i].min(self.max)
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_pinned() {
        // The head of the grid, spelled out: 2 buckets per octave.
        assert_eq!(
            &BOUNDS[..13],
            &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96]
        );
        // Strictly ascending all the way up.
        assert!(BOUNDS.windows(2).all(|w| w[0] < w[1]));
        // The last finite bound covers a 60s timeout.
        assert_eq!(BOUNDS[FINITE_BUCKETS - 1], 1 << 26);
        assert!(BOUNDS[FINITE_BUCKETS - 1] > 60_000_000);
        assert_eq!(NUM_BUCKETS, FINITE_BUCKETS + 1);
    }

    #[test]
    fn bucket_index_matches_linear_scan() {
        // The branch-free index must agree with the definition: smallest
        // bucket whose upper bound is >= the value.
        let probe = |v: u64| match BOUNDS.iter().position(|&b| v <= b) {
            Some(i) => i,
            None => FINITE_BUCKETS,
        };
        let mut cases: Vec<u64> = (0..=1025).collect();
        for e in 10..=27 {
            let base = 1u64 << e;
            cases.extend([base - 1, base, base + 1, base + base / 2, 2 * base - 1]);
        }
        cases.push(u64::MAX);
        for v in cases {
            assert_eq!(bucket_index(v), probe(v), "value {v}");
        }
    }

    #[test]
    fn percentiles_track_bucket_upper_bounds() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050);
        assert_eq!(s.max(), 100);
        // rank 50 → value 50 → bucket (48, 64].
        assert_eq!(s.percentile(0.50), 64);
        // rank 95 → value 95 → bucket (64, 96].
        assert_eq!(s.percentile(0.95), 96);
        // rank 99 → value 99 → bucket (96, 128], clamped to max.
        assert_eq!(s.percentile(0.99), 100);
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(s.percentile(0.0), 1);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 900]);
        let b = mk(&[2, 2, 70_000_000]);
        let c = mk(&[400]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        let mut ba = b.clone();
        ba.merge(&a);
        ba.merge(&c);

        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c, ba);
        assert_eq!(ab_c, mk(&[1, 5, 900, 2, 2, 70_000_000, 400]));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i + 1);
                        if i % 1000 == 0 {
                            // Snapshots taken mid-stream must never panic.
                            let s = h.snapshot();
                            assert!(s.count() <= THREADS * PER_THREAD);
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let s = h.snapshot();
        let n = THREADS * PER_THREAD;
        assert_eq!(s.count(), n);
        assert_eq!(s.buckets().iter().sum::<u64>(), n);
        assert_eq!(s.sum(), n * (n + 1) / 2);
        assert_eq!(s.max(), n);
    }
}
