//! # sac-obs
//!
//! The observability substrate of the SAC serving stack: hand-rolled (the
//! build environment has no external crates), allocation-free on the hot
//! path, and safe to hammer from every worker thread at once.
//!
//! Seven primitives:
//!
//! * [`Histogram`] — a **lock-free log-bucketed latency histogram**: atomic
//!   `u64` buckets at 2 buckets per octave from 1µs to >60s, mergeable
//!   [`HistogramSnapshot`]s, and percentile extraction (p50/p95/p99/max)
//!   that is exact at bucket resolution (≤50% relative error per bucket —
//!   see the `histogram` module docs for the derivation);
//! * [`WindowedHistogram`] — a rotating ring of histogram windows (e.g.
//!   10×1s) whose merged [`WindowedSnapshot`] answers "p50/p99/qps over the
//!   last N seconds" alongside the cumulative series;
//! * [`MetricsRegistry`] — named counters, gauges, histograms and windowed
//!   histograms with label sets, plus readers of values their owners keep,
//!   rendered as Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]); it carries the timings
//!   switch ([`MetricsRegistry::with_timings`]);
//! * [`Span`] — a lightweight stage timer that records elapsed microseconds
//!   into a histogram when finished (or dropped);
//! * [`TraceNode`] — a nested per-query span tree (query→{plan, exec};
//!   commit pipeline stages), built lazily off-path for sampled, requested
//!   and slow queries;
//! * [`SlowQueryLog`] — a fixed-capacity ring buffer capturing a
//!   [`SlowQueryRecord`] (query id, trace timings, plan label, full trace
//!   tree) for every query slower than a configurable threshold;
//! * [`EventLog`] — a sequence-numbered ring of control-plane events (epoch
//!   swaps, commits, checkpoints, batch strategy choices) tailed with a
//!   cursor.
//!
//! Recording into a counter or histogram is a single relaxed atomic RMW —
//! no locks, no allocation — so instrumentation stays effectively free on
//! the query dispatch path (the bench gate in `crates/bench` pins the
//! overhead at ≤1.05x). Registration and snapshotting take a mutex, but
//! those run at construction and scrape time, never per query.
//!
//! ```
//! use sac_obs::{MetricsRegistry, Span};
//!
//! let registry = MetricsRegistry::new();
//! let latency = registry.histogram(
//!     "sac_query_latency_micros",
//!     "End-to-end query latency",
//!     &[("tier", "interactive")],
//! );
//! let queries = registry.counter("sac_queries_total", "Queries served", &[]);
//!
//! // Hot path: one span per query, one counter bump.
//! let span = Span::start(&latency);
//! queries.inc();
//! span.finish();
//!
//! // Scrape path: Prometheus text exposition.
//! let text = registry.render_prometheus();
//! assert!(text.contains("sac_queries_total 1"));
//! assert!(text.contains("sac_query_latency_micros_count{tier=\"interactive\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod histogram;
mod registry;
mod slowlog;
mod span;
mod trace;
mod window;

pub use events::{EventBatch, EventLog, EventRecord};
pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use slowlog::{SlowQueryLog, SlowQueryRecord};
pub use span::Span;
pub use trace::TraceNode;
pub use window::{WindowedHistogram, WindowedSnapshot};

/// A compact percentile summary of one histogram, in microseconds — the
/// shape `EngineStats` exposes per tier and per algorithm.
///
/// All fields are integers so the containing stats types keep `Eq`-style
/// comparability; percentiles are bucket upper bounds (exact at the
/// histogram's ~2-buckets-per-octave resolution), `max` is exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Median latency in microseconds (bucket upper bound).
    pub p50_micros: u64,
    /// 95th-percentile latency in microseconds (bucket upper bound).
    pub p95_micros: u64,
    /// 99th-percentile latency in microseconds (bucket upper bound).
    pub p99_micros: u64,
    /// Maximum recorded latency in microseconds (exact).
    pub max_micros: u64,
}

impl LatencySummary {
    /// Summarises a snapshot into the fixed p50/p95/p99/max shape.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        LatencySummary {
            count: snap.count(),
            p50_micros: snap.percentile(0.50),
            p95_micros: snap.percentile(0.95),
            p99_micros: snap.percentile(0.99),
            max_micros: snap.max(),
        }
    }
}
