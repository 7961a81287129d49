//! Structured engine event log: a sequence-numbered ring of control-plane
//! events (epoch swaps, commits, checkpoints, batch strategy choices) that
//! clients tail incrementally with a cursor.
//!
//! Every published event gets the next value of a monotonically increasing
//! sequence number; the ring keeps the most recent `capacity` events.
//! [`EventLog::since`] returns everything at or after a cursor plus the next
//! cursor to poll with, and reports how many events the ring had already
//! evicted past the cursor — so a slow consumer sees a gap, never silently
//! stale data. Publication takes a mutex and allocates the detail string;
//! events are control-plane-rate (commits, epoch swaps, checkpoints), never
//! per-fast-path-query.
//!
//! ```
//! use sac_obs::EventLog;
//!
//! let log = EventLog::new(128);
//! log.publish("epoch_swap", "epoch=2 carried=1 invalidated=0".to_string());
//! let batch = log.since(0);
//! assert_eq!(batch.events[0].kind, "epoch_swap");
//! assert_eq!(log.since(batch.next_seq).events.len(), 0); // tail is drained
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// One published event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic sequence number (the first event is 0).
    pub seq: u64,
    /// Microseconds since the log was created (volatile — timing-gated on
    /// the wire).
    pub at_micros: u64,
    /// Stable event kind, e.g. `epoch_swap`, `checkpoint`.
    pub kind: &'static str,
    /// Deterministic `key=value` detail text (no timings, so deterministic
    /// transports stay byte-comparable).
    pub detail: String,
}

/// The result of tailing the log from a cursor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventBatch {
    /// Events with `seq >= cursor`, oldest first.
    pub events: Vec<EventRecord>,
    /// Cursor to pass to the next [`EventLog::since`] call.
    pub next_seq: u64,
    /// Events that were evicted from the ring after the cursor but before
    /// the oldest returned event (0 when the consumer kept up).
    pub missed: u64,
}

#[derive(Debug, Default)]
struct EventLogState {
    next_seq: u64,
    ring: VecDeque<EventRecord>,
}

/// A fixed-capacity, sequence-numbered ring of [`EventRecord`]s.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    origin: Instant,
    state: Mutex<EventLogState>,
}

impl EventLog {
    /// Creates a log keeping the most recent `capacity` events (clamped to
    /// ≥ 1).
    pub fn new(capacity: usize) -> Self {
        EventLog {
            capacity: capacity.max(1),
            origin: Instant::now(),
            state: Mutex::new(EventLogState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EventLogState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes an event stamped with the current wall-clock offset;
    /// returns its sequence number.
    pub fn publish(&self, kind: &'static str, detail: String) -> u64 {
        self.publish_at(self.origin.elapsed().as_micros() as u64, kind, detail)
    }

    /// Publishes an event with an explicit timestamp (microseconds since the
    /// log's origin) — the deterministic entry point tests drive.
    pub fn publish_at(&self, at_micros: u64, kind: &'static str, detail: String) -> u64 {
        let mut state = self.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
        }
        state.ring.push_back(EventRecord {
            seq,
            at_micros,
            kind,
            detail,
        });
        seq
    }

    /// Returns every retained event with `seq >= cursor`, oldest first,
    /// plus the next cursor and the count of events already evicted past the
    /// cursor. A cursor beyond the tail (including one from a log that has
    /// since restarted smaller) returns an empty batch with the current
    /// tail cursor, so pollers always resynchronise.
    pub fn since(&self, cursor: u64) -> EventBatch {
        let state = self.lock();
        let events: Vec<EventRecord> = state
            .ring
            .iter()
            .filter(|e| e.seq >= cursor)
            .cloned()
            .collect();
        let missed = match state.ring.front() {
            // Everything from `cursor` up to the oldest retained seq is gone.
            Some(front) if front.seq > cursor => front.seq - cursor,
            // Ring is empty: any events before next_seq were evicted.
            None => state.next_seq.saturating_sub(cursor),
            _ => 0,
        };
        EventBatch {
            events,
            next_seq: state.next_seq,
            missed,
        }
    }

    /// Sequence number the next published event will get.
    pub fn next_seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Whether the ring currently holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(log: &EventLog, n: u64) {
        for i in 0..n {
            log.publish_at(i * 10, "test", format!("n={i}"));
        }
    }

    #[test]
    fn sequences_are_dense_and_cursor_tails() {
        let log = EventLog::new(8);
        assert!(log.is_empty());
        assert_eq!(log.publish_at(1, "a", "x=1".into()), 0);
        assert_eq!(log.publish_at(2, "b", "x=2".into()), 1);
        let batch = log.since(0);
        assert_eq!(batch.events.len(), 2);
        assert_eq!(batch.events[0].seq, 0);
        assert_eq!(batch.events[1].kind, "b");
        assert_eq!(batch.next_seq, 2);
        assert_eq!(batch.missed, 0);
        // Tailing from the returned cursor sees only what came after.
        assert_eq!(log.publish_at(3, "c", "x=3".into()), 2);
        let tail = log.since(batch.next_seq);
        assert_eq!(tail.events.len(), 1);
        assert_eq!(tail.events[0].detail, "x=3");
        assert_eq!(tail.missed, 0);
    }

    #[test]
    fn cursor_past_wraparound_reports_the_gap() {
        let log = EventLog::new(4);
        fill(&log, 10); // seqs 0..10; ring retains 6..=9
        assert_eq!(log.len(), 4);
        let batch = log.since(0);
        assert_eq!(batch.missed, 6, "seqs 0..=5 were evicted");
        assert_eq!(batch.events.first().unwrap().seq, 6);
        assert_eq!(batch.events.last().unwrap().seq, 9);
        assert_eq!(batch.next_seq, 10);
        // A cursor inside the evicted range sees a partial gap.
        let batch = log.since(4);
        assert_eq!(batch.missed, 2);
        assert_eq!(batch.events.len(), 4);
        // A cursor at the retention edge sees no gap.
        let batch = log.since(6);
        assert_eq!(batch.missed, 0);
        assert_eq!(batch.events.len(), 4);
    }

    #[test]
    fn cursor_beyond_the_tail_resynchronises() {
        let log = EventLog::new(4);
        fill(&log, 3);
        let batch = log.since(99);
        assert!(batch.events.is_empty());
        assert_eq!(batch.next_seq, 3);
        assert_eq!(batch.missed, 0);
        // Polling with the corrected cursor then behaves normally.
        log.publish_at(50, "late", "x=1".into());
        let batch = log.since(batch.next_seq);
        assert_eq!(batch.events.len(), 1);
        assert_eq!(batch.events[0].seq, 3);
    }

    #[test]
    fn empty_ring_after_eviction_counts_everything_missed() {
        let log = EventLog::new(1);
        fill(&log, 5); // only seq 4 retained
        let batch = log.since(2);
        assert_eq!(batch.missed, 2, "seqs 2 and 3 evicted, 4 still present");
        assert_eq!(batch.events.len(), 1);
    }

    #[test]
    fn publication_is_thread_safe() {
        use std::sync::Arc;
        let log = Arc::new(EventLog::new(1024));
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        log.publish("spam", format!("t={t} i={i}"));
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let batch = log.since(0);
        assert_eq!(batch.events.len(), 400);
        assert_eq!(batch.next_seq, 400);
        // Sequence numbers are dense and strictly increasing.
        for (i, event) in batch.events.iter().enumerate() {
            assert_eq!(event.seq, i as u64);
        }
    }
}
