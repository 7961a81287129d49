//! Fixed-capacity slow-query ring buffer.

use crate::trace::TraceNode;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One slow query: the full trace timings plus the plan label, correlated
/// by `query_id`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SlowQueryRecord {
    /// Monotonic per-engine query id (matches `QueryTrace::query_id`).
    pub query_id: u64,
    /// End-to-end dispatch latency in microseconds.
    pub total_micros: u64,
    /// Stable plan label (e.g. `app_inc`, `infeasible(cache)`, `rejected`).
    pub plan: String,
    /// Latency tier the query ran under (`interactive`/`standard`/`batch`).
    pub tier: String,
    /// Epoch the query executed against.
    pub epoch: u64,
    /// Planning time in microseconds.
    pub plan_micros: u64,
    /// Execution time in microseconds.
    pub exec_micros: u64,
    /// Whether the k-core cache served the plan.
    pub cache_hit: bool,
    /// Radius-probe count from the trace.
    pub probe_count: u64,
    /// Candidate-vertex count from the trace.
    pub candidate_count: u64,
    /// Full span tree for the query (slow queries always get one — the
    /// record closure runs off the fast path, so materialising it is free
    /// for queries that never trip the threshold).
    pub trace: Option<TraceNode>,
}

/// A fixed-capacity ring buffer of [`SlowQueryRecord`]s for queries over a
/// configurable latency threshold (0 disables capture). When full, the
/// oldest entry is evicted and counted in [`SlowQueryLog::dropped`].
///
/// The threshold is fixed at construction and its check is one integer
/// compare, so a disabled (or rarely-tripped) slow log costs nothing on the
/// dispatch path; only actual slow queries take the ring's mutex.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_micros: u64,
    capacity: usize,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<SlowQueryRecord>>,
}

impl SlowQueryLog {
    /// Creates a log holding at most `capacity` entries with the capture
    /// threshold `threshold_micros` (0 = disabled).
    pub fn new(capacity: usize, threshold_micros: u64) -> Self {
        SlowQueryLog {
            threshold_micros,
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Current capture threshold in microseconds (0 = disabled).
    pub fn threshold_micros(&self) -> u64 {
        self.threshold_micros
    }

    /// Number of entries evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Captures `record` if `total_micros` meets the threshold. The record
    /// is built lazily so fast queries pay only the threshold compare.
    pub fn observe<F: FnOnce() -> SlowQueryRecord>(&self, total_micros: u64, record: F) {
        let threshold = self.threshold_micros();
        if threshold == 0 || total_micros < threshold {
            return;
        }
        self.push(record());
    }

    /// Unconditionally appends a record (evicting the oldest when full).
    pub fn push(&self, record: SlowQueryRecord) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Copies out the current entries, oldest first.
    pub fn snapshot(&self) -> Vec<SlowQueryRecord> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().cloned().collect()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all entries (the drop counter is preserved).
    pub fn clear(&self) {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, micros: u64) -> SlowQueryRecord {
        SlowQueryRecord {
            query_id: id,
            total_micros: micros,
            plan: "app_inc".into(),
            tier: "standard".into(),
            ..SlowQueryRecord::default()
        }
    }

    #[test]
    fn threshold_gates_capture() {
        let log = SlowQueryLog::new(4, 100);
        log.observe(99, || rec(1, 99));
        log.observe(100, || rec(2, 100));
        log.observe(5_000, || rec(3, 5_000));
        let entries = log.snapshot();
        assert_eq!(
            entries.iter().map(|r| r.query_id).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn zero_threshold_disables() {
        let log = SlowQueryLog::new(4, 0);
        log.observe(u64::MAX, || panic!("record must not be built"));
        assert!(log.is_empty());
    }

    #[test]
    fn ring_evicts_oldest() {
        let log = SlowQueryLog::new(2, 1);
        for id in 1..=5 {
            log.observe(10, || rec(id, 10));
        }
        let ids: Vec<u64> = log.snapshot().iter().map(|r| r.query_id).collect();
        assert_eq!(ids, vec![4, 5]);
        assert_eq!(log.dropped(), 3);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 3);
    }
}
