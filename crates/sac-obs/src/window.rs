//! Windowed telemetry: a rotating ring of mergeable histogram windows.
//!
//! A [`WindowedHistogram`] keeps `N` fixed-width time windows (by default the
//! engine uses 10×1s) each backed by a lock-free [`Histogram`]. Recording
//! lands in the window covering the observation's wall-clock tick; reading
//! merges the live windows into one [`WindowedSnapshot`], which answers
//! "p50/p99/qps over the last `N·width`" alongside the cumulative series —
//! the recency signals load shedding and adaptive repartitioning key off.
//!
//! The record fast path is one relaxed atomic load (the slot's tick tag)
//! plus a [`Histogram::record`]; a mutex is taken only on the first record
//! of each new tick, when the expiring slot is reset and re-tagged. Time is
//! injectable (`record_at`/`snapshot_at` take microseconds since an
//! arbitrary origin) so rollover behaviour is deterministic under test; the
//! clock-reading convenience methods ([`WindowedHistogram::record`],
//! [`WindowedHistogram::snapshot`]) use a monotonic [`Instant`] anchored at
//! construction.
//!
//! ```
//! use sac_obs::WindowedHistogram;
//!
//! // 4 windows of 1s each: summaries cover at most the last 4 seconds.
//! let w = WindowedHistogram::new(4, 1_000_000);
//! w.record_at(100, 700);
//! w.record_at(1_200_000, 900); // next window
//! let snap = w.snapshot_at(1_500_000);
//! assert_eq!(snap.histogram.count(), 2);
//! assert_eq!(snap.span_micros, 1_500_000); // younger than the full ring
//! ```

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::LatencySummary;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tick tag meaning "this slot has never held a window".
const UNUSED: u64 = u64::MAX;

/// One ring slot: the window's tick number plus its histogram.
#[derive(Debug)]
struct WindowSlot {
    /// Which tick (`at_micros / width`) this slot currently holds; `UNUSED`
    /// before the slot's first use. Stored with `Release` after the reset so
    /// a recorder that observes the new tag also observes the cleared
    /// buckets.
    tick: AtomicU64,
    hist: Histogram,
}

/// A rotating ring of `N` fixed-width histogram windows.
#[derive(Debug)]
pub struct WindowedHistogram {
    width_micros: u64,
    slots: Vec<WindowSlot>,
    /// Serialises slot rotation (reset + re-tag); never taken on the record
    /// fast path once a tick's slot is current.
    rotate: Mutex<()>,
    /// Origin for the wall-clock convenience methods.
    origin: Instant,
    /// `false` for a silent ring, whose `record` is a no-op.
    recording: bool,
}

/// The merged view of a [`WindowedHistogram`]'s live windows: a mergeable
/// distribution plus the wall-clock span it covers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowedSnapshot {
    /// The merged distribution over the live windows.
    pub histogram: HistogramSnapshot,
    /// Wall-clock span the live windows cover, in microseconds (capped at
    /// the ring span; smaller while the process is younger than the ring).
    pub span_micros: u64,
}

impl WindowedSnapshot {
    /// Observations per second over the covered span (0 for an empty span).
    pub fn qps(&self) -> f64 {
        if self.span_micros == 0 {
            return 0.0;
        }
        self.histogram.count() as f64 * 1e6 / self.span_micros as f64
    }

    /// The fixed p50/p95/p99/max summary of the merged distribution.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_snapshot(&self.histogram)
    }
}

impl WindowedHistogram {
    /// Creates a ring of `windows` slots of `width_micros` each, with the
    /// wall clock anchored now. `windows` is clamped to ≥ 1 and
    /// `width_micros` to ≥ 1.
    pub fn new(windows: usize, width_micros: u64) -> Self {
        WindowedHistogram::with_recording(windows, width_micros, true)
    }

    /// Like [`WindowedHistogram::new`]; with `recording == false` the ring
    /// is silent (records nothing), as a registry built without timings
    /// hands out ([`crate::MetricsRegistry::with_timings`]).
    pub(crate) fn with_recording(windows: usize, width_micros: u64, recording: bool) -> Self {
        WindowedHistogram {
            width_micros: width_micros.max(1),
            slots: (0..windows.max(1))
                .map(|_| WindowSlot {
                    tick: AtomicU64::new(UNUSED),
                    hist: Histogram::new(),
                })
                .collect(),
            rotate: Mutex::new(()),
            origin: Instant::now(),
            recording,
        }
    }

    /// Number of windows in the ring.
    pub fn windows(&self) -> usize {
        self.slots.len()
    }

    /// Records one observation at the current wall-clock time (a no-op on
    /// a silent ring, which does not read the clock either).
    pub fn record(&self, value: u64) {
        if self.recording {
            self.record_at(self.origin.elapsed().as_micros() as u64, value);
        }
    }

    /// Records one observation as of `at_micros` (microseconds since the
    /// ring's origin). Out-of-order timestamps within the live ring land in
    /// their own window; timestamps older than the ring land in the oldest
    /// live window (a bounded misattribution, never a panic).
    pub fn record_at(&self, at_micros: u64, value: u64) {
        if !self.recording {
            return;
        }
        let tick = at_micros / self.width_micros;
        let slot = &self.slots[(tick % self.slots.len() as u64) as usize];
        if slot.tick.load(Ordering::Acquire) != tick {
            let _guard = self.rotate.lock().unwrap_or_else(|e| e.into_inner());
            // Re-check under the lock: another recorder may have rotated
            // this slot already. Only advance forward — a straggler with an
            // older tick records into whatever window now owns the slot
            // rather than clobbering fresher data.
            let current = slot.tick.load(Ordering::Acquire);
            if current == UNUSED || current < tick {
                slot.hist.reset();
                slot.tick.store(tick, Ordering::Release);
            }
        }
        slot.hist.record(value);
    }

    /// Merges the live windows as of the current wall-clock time.
    pub fn snapshot(&self) -> WindowedSnapshot {
        self.snapshot_at(self.origin.elapsed().as_micros() as u64)
    }

    /// Merges the windows still live as of `at_micros`: the in-progress
    /// window plus the `N-1` most recent complete ones. The reported
    /// `span_micros` is the wall-clock interval those windows cover —
    /// `(N-1)·width` plus the elapsed part of the current window, capped at
    /// `at_micros` while the process is younger than the ring — so
    /// [`WindowedSnapshot::qps`] stays honest at startup.
    pub fn snapshot_at(&self, at_micros: u64) -> WindowedSnapshot {
        let tick = at_micros / self.width_micros;
        let oldest_live = (tick + 1).saturating_sub(self.slots.len() as u64);
        let mut histogram = HistogramSnapshot::default();
        for slot in &self.slots {
            let slot_tick = slot.tick.load(Ordering::Acquire);
            if slot_tick != UNUSED && (oldest_live..=tick).contains(&slot_tick) {
                histogram.merge(&slot.hist.snapshot());
            }
        }
        let in_progress = at_micros % self.width_micros;
        let span_micros =
            (self.width_micros * (self.slots.len() as u64 - 1) + in_progress).min(at_micros);
        WindowedSnapshot {
            histogram,
            span_micros,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000;

    #[test]
    fn empty_ring_reports_zero() {
        let w = WindowedHistogram::new(10, SEC);
        let snap = w.snapshot_at(0);
        assert_eq!(snap.histogram.count(), 0);
        assert_eq!(snap.span_micros, 0);
        assert_eq!(snap.qps(), 0.0);
        assert_eq!(snap.summary(), LatencySummary::default());
        // Later, still with no records: empty windows merge to nothing but
        // the span reflects elapsed time (capped at the ring span).
        let snap = w.snapshot_at(3 * SEC + SEC / 2);
        assert_eq!(snap.histogram.count(), 0);
        assert_eq!(snap.span_micros, 3 * SEC + SEC / 2);
        let snap = w.snapshot_at(100 * SEC);
        assert_eq!(
            snap.span_micros,
            9 * SEC,
            "span caps at N-1 full + 0 partial"
        );
    }

    #[test]
    fn records_straddling_a_rotation_split_across_windows() {
        let w = WindowedHistogram::new(4, SEC);
        // Two observations bracketing the 1s boundary.
        w.record_at(SEC - 1, 10);
        w.record_at(SEC, 20);
        w.record_at(SEC + 1, 30);
        let snap = w.snapshot_at(SEC + 2);
        assert_eq!(snap.histogram.count(), 3, "both sides of the edge are live");
        // Advance until the first window expires: only the post-boundary
        // records remain.
        let snap = w.snapshot_at(4 * SEC);
        assert_eq!(snap.histogram.count(), 2);
        assert_eq!(snap.histogram.max(), 30);
    }

    #[test]
    fn old_windows_age_out_and_slots_are_reused() {
        let w = WindowedHistogram::new(3, SEC);
        w.record_at(100, 1_000);
        assert_eq!(w.snapshot_at(200).histogram.count(), 1);
        // 2 windows later the record is still live (ring of 3)...
        assert_eq!(w.snapshot_at(2 * SEC + 1).histogram.count(), 1);
        // ...3 windows later it has aged out even though nothing overwrote
        // its slot yet.
        assert_eq!(w.snapshot_at(3 * SEC + 1).histogram.count(), 0);
        // Reusing the expired slot resets it: tick 3 maps onto tick 0's slot.
        w.record_at(3 * SEC + 10, 2_000);
        let snap = w.snapshot_at(3 * SEC + 20);
        assert_eq!(snap.histogram.count(), 1);
        assert_eq!(snap.histogram.max(), 2_000);
    }

    #[test]
    fn qps_uses_the_covered_span() {
        let w = WindowedHistogram::new(10, SEC);
        for i in 0..100 {
            w.record_at(i * 10_000, 5); // 100 records over 1s
        }
        let snap = w.snapshot_at(2 * SEC);
        assert_eq!(snap.histogram.count(), 100);
        assert_eq!(snap.span_micros, 2 * SEC);
        assert!((snap.qps() - 50.0).abs() < 1e-9);
        // Once the ring is saturated the span stays at the ring cap.
        let snap = w.snapshot_at(20 * SEC + SEC / 2);
        assert_eq!(snap.span_micros, 9 * SEC + SEC / 2);
        assert_eq!(snap.histogram.count(), 0, "old samples aged out");
    }

    #[test]
    fn stale_recorder_cannot_clobber_a_fresher_window() {
        let w = WindowedHistogram::new(2, SEC);
        w.record_at(2 * SEC + 1, 50); // tick 2 occupies slot 0
        w.record_at(10, 60); // straggler from tick 0 (same slot, older tick)
        let snap = w.snapshot_at(2 * SEC + 2);
        // Both records are present: the straggler joined the live window
        // instead of resetting it back to tick 0.
        assert_eq!(snap.histogram.count(), 2);
        assert_eq!(snap.histogram.max(), 60);
    }

    #[test]
    fn wall_clock_methods_record_and_read() {
        let w = WindowedHistogram::new(10, SEC);
        w.record(123);
        w.record(456);
        let snap = w.snapshot();
        assert_eq!(snap.histogram.count(), 2);
        assert_eq!(snap.histogram.max(), 456);
        assert_eq!(w.windows(), 10);
    }

    #[test]
    fn concurrent_recording_across_rotations_loses_nothing() {
        use std::sync::Arc;
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let w = Arc::new(WindowedHistogram::new(8, 1_000));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // All threads walk the same forward time-line, so
                        // every record lands in a live window.
                        w.record_at(i, t * PER_THREAD + i + 1);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let snap = w.snapshot_at(PER_THREAD - 1);
        assert_eq!(snap.histogram.count(), THREADS * PER_THREAD);
    }
}
