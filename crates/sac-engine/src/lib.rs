//! # sac-engine
//!
//! A concurrent, cache-aware query-serving engine for spatial-aware community
//! (SAC) search — the serving layer on top of the `sac-core` algorithms of
//!
//! > Fang, Cheng, Li, Luo, Hu. *Effective Community Search over Large Spatial
//! > Graphs.* PVLDB 10(6), 2017.
//!
//! The library crates answer one query at a time from scratch; a production
//! deployment answers millions over one slowly-changing graph.  This crate
//! adds the engine-level machinery that gap requires:
//!
//! * **Epoch-published immutable snapshots** — the engine serves an
//!   `Arc<SpatialGraph>` behind a hand-rolled atomic epoch pointer
//!   ([`EpochCell`], an `RwLock<Arc>` pointer swap — no `arc-swap` dependency); all
//!   query state is read-only and every entry point takes `&self`, so one
//!   engine serves any number of threads (see [`SacEngine`]).  The live-update
//!   layer (`sac-live`) publishes new epochs via [`SacEngine::publish`] while
//!   in-flight queries finish on the snapshot they started with, and the
//!   per-`k` index cache is *selectively* invalidated: only the `k` entries a
//!   delta actually touched are dropped, the rest carry over.
//! * **A k-core index cache** — the `O(m)` core decomposition and the per-`k`
//!   connected-core labellings are memoised per snapshot ([`KCoreCache`]),
//!   turning the structural phase of repeated queries into cache hits.
//! * **A budget planner** — each request carries a [`QueryBudget`] (worst
//!   acceptable approximation ratio + latency tier); the [`Planner`] is one
//!   `match` from the budget to a [`sac_core::Algorithm`] — the paper's
//!   Table 3 inverted — with a workload-aware upgrade to exact search when
//!   the cached candidate set is tiny ([`Plan`]).
//! * **A validating request API** — [`SacRequest::builder`] rejects invalid
//!   budgets with typed errors at construction time, and every
//!   [`SacResponse`] carries per-request trace metadata ([`QueryTrace`]:
//!   epoch, phase timings, cache state, guaranteed ratio).
//! * **A concurrent executor** — [`SacEngine::execute_batch`] fans a batch of
//!   [`SacRequest`]s across a thread pool with dynamic load balancing.
//! * **Transports** — the `sac-proto` crate defines the typed wire protocol;
//!   the `sac-serve` (LDJSON) and `sac-http` (HTTP/1.1) binaries in
//!   `sac-live` are thin shells over it (see the repository README).
//!
//! ## Example
//!
//! ```
//! use sac_engine::{QueryBudget, SacEngine, SacRequest};
//!
//! let engine = SacEngine::new(sac_core::fixtures::figure3_graph());
//! let requests: Vec<SacRequest> = (0..8)
//!     .map(|i| {
//!         SacRequest::builder(sac_core::fixtures::figure3::Q, 2)
//!             .id(i)
//!             .budget(QueryBudget::balanced())
//!             .build()
//!     })
//!     .collect::<Result<_, _>>()
//!     .unwrap();
//! let responses = engine.execute_batch(&requests, 4);
//! assert!(responses.iter().all(|r| r.community().is_some()));
//! // After the first query the k-core indexes are served from cache.
//! assert!(engine.stats().cache.components.hits > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod epoch;
mod planner;

pub use cache::{CacheCounters, CacheLayerStats, CacheStats, KCoreCache};
pub use engine::{
    EngineConfig, EngineStats, LatencyStats, PublishReport, QueryTrace, SacEngine, SacRequest,
    SacRequestBuilder, SacResponse,
};
pub use epoch::EpochCell;
pub use planner::{LatencyTier, Plan, PlanContext, PlannedQuery, Planner, QueryBudget};
// Observability primitives, re-exported so the serving layers above see one
// coherent API (the engine owns the registry the whole stack records into).
pub use sac_obs::{
    EventBatch, EventLog, EventRecord, LatencySummary, MetricsRegistry, SlowQueryLog,
    SlowQueryRecord, TraceNode,
};
