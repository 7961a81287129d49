//! The serving engine: epoch-published immutable graph snapshots, the shared
//! k-core cache, the planner, and a concurrent batch executor.

use crate::cache::{CacheCounters, CacheStats, KCoreCache};
use crate::epoch::EpochCell;
use crate::planner::{LatencyTier, Plan, PlanContext, PlannedQuery, Planner, QueryBudget};
use sac_core::{Algorithm, AlgorithmRegistry, Community, SacError, SearchContext};
use sac_graph::{CoreDecomposition, KCoreComponents, SpatialGraph, SweepStats, VertexId};
use sac_obs::{
    Counter, EventLog, Histogram, LatencySummary, MetricsRegistry, SlowQueryLog, SlowQueryRecord,
    Span, TraceNode, WindowedHistogram,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Tunables of a [`SacEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Connected-k-core size at or below which the planner upgrades any
    /// unconstrained budget to `Exact+` (the candidate set is so small that an
    /// exact answer costs no more than an approximate one).
    pub small_exact_threshold: usize,
    /// Whether the engine keeps timings and traces: latency histograms and
    /// stage spans (see [`SacEngine::metrics`]), head-sampled trace trees,
    /// the slow-query log and the event ring.  On by default — recording is
    /// a handful of relaxed atomic adds per query (the bench gate pins the
    /// dispatch overhead at ≤1.05x) — but the overhead benchmark itself, and
    /// any caller that wants the absolute minimum hot path, can switch it
    /// off.  Counters always count: `stats`, `/healthz` and `/metrics` read
    /// the same values either way.  Read once, when the engine builds its
    /// registry, slow log, event ring and trace sampler.
    pub observe: bool,
    /// Queries slower than this many microseconds end-to-end are captured in
    /// the slow-query ring buffer ([`SacEngine::slow_log`]); `0` disables
    /// capture.  Ignored when `observe` is off.
    pub slow_query_micros: u64,
    /// Capacity of the slow-query ring buffer: when full, the oldest entry
    /// is evicted (and counted in `sac_slow_queries_dropped_total`).  Sized
    /// for the scrape interval — a scraper that polls every few seconds only
    /// needs the ring to hold the slow queries of one interval.
    pub slowlog_capacity: usize,
    /// Head-sampling rate for per-query trace trees: every `N`th query (by
    /// engine query id) gets a full [`TraceNode`] span tree attached to its
    /// [`QueryTrace::tree`]; `0` disables sampling.  Requests that set
    /// [`SacRequest::trace`] and queries that trip the slow-query threshold
    /// are always traced regardless.  Trees are assembled off the hot path
    /// from stage timings the engine measures anyway, so sampled queries pay
    /// one small allocation after their response is already timed.
    pub trace_sample_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            small_exact_threshold: 48,
            observe: true,
            slow_query_micros: 10_000,
            slowlog_capacity: 128,
            trace_sample_every: 64,
        }
    }
}

/// Number of windows in the engine's rotating latency telemetry ring.
const TELEMETRY_WINDOWS: usize = 10;
/// Width of one telemetry window in microseconds (1s; the ring spans 10s).
const TELEMETRY_WINDOW_MICROS: u64 = 1_000_000;
/// Capacity of the engine's control-plane event ring.
const EVENT_LOG_CAPACITY: usize = 1024;

/// One SAC query against the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SacRequest {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Query vertex.
    pub q: VertexId,
    /// Minimum degree constraint.
    pub k: u32,
    /// Accuracy/latency budget driving plan selection.
    pub budget: QueryBudget,
    /// Explicit algorithm override: when set, the planner dispatches the
    /// [`Algorithm`] of this name directly (default parameters, no
    /// small-core upgrade, no cache-infeasibility short-circuit), which makes
    /// otherwise unreachable algorithms — e.g. the `global`/`local`
    /// baselines — A/B-testable against the planned path.
    pub algorithm: Option<String>,
    /// Requests a full [`TraceNode`] span tree on the response regardless of
    /// the engine's head-sampling rate ([`EngineConfig::trace_sample_every`]).
    pub trace: bool,
}

impl SacRequest {
    /// A validating builder for a request against vertex `q` with degree
    /// bound `k` (see [`SacRequestBuilder`]).
    pub fn builder(q: VertexId, k: u32) -> SacRequestBuilder {
        SacRequestBuilder {
            id: 0,
            q,
            k,
            budget: QueryBudget::default(),
            algorithm: None,
            trace: false,
        }
    }
}

/// A validating builder for [`SacRequest`]: budget nonsense (`max_ratio < 1`,
/// non-finite or non-positive `theta`) is rejected with typed errors at
/// construction time, before the request ever reaches an engine.
///
/// ```
/// use sac_engine::{LatencyTier, SacRequest};
/// use sac_core::SacError;
///
/// let request = SacRequest::builder(17, 4)
///     .id(1)
///     .ratio(1.5)
///     .tier(LatencyTier::Interactive)
///     .build()
///     .unwrap();
/// assert_eq!(request.budget.max_ratio, 1.5);
///
/// // Invalid budgets never become requests.
/// assert_eq!(
///     SacRequest::builder(17, 4).ratio(0.5).build(),
///     Err(SacError::InvalidRatio(0.5))
/// );
/// assert_eq!(
///     SacRequest::builder(17, 4).theta(0.0).build(),
///     Err(SacError::InvalidTheta(0.0))
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SacRequestBuilder {
    id: u64,
    q: VertexId,
    k: u32,
    budget: QueryBudget,
    algorithm: Option<String>,
    trace: bool,
}

impl SacRequestBuilder {
    /// Sets the caller-chosen request id (echoed in the response).
    pub fn id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Forces the named algorithm instead of planner selection (see
    /// [`SacRequest::algorithm`]); an unknown name is reported by the engine
    /// as [`SacError::UnknownAlgorithm`].
    pub fn algorithm(mut self, algorithm: impl Into<String>) -> Self {
        self.algorithm = Some(algorithm.into());
        self
    }

    /// Sets the largest acceptable approximation ratio (`>= 1`).
    pub fn ratio(mut self, max_ratio: f64) -> Self {
        self.budget.max_ratio = max_ratio;
        self
    }

    /// Sets the latency tier.
    pub fn tier(mut self, tier: LatencyTier) -> Self {
        self.budget.tier = tier;
        self
    }

    /// Requests the θ-SAC variant with radius constraint `theta` (`> 0`).
    pub fn theta(mut self, theta: f64) -> Self {
        self.budget.theta = Some(theta);
        self
    }

    /// Replaces the whole budget.
    pub fn budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Requests a span tree on the response (see [`SacRequest::trace`]).
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Validates the budget and builds the request.
    ///
    /// Typed errors: [`SacError::InvalidRatio`] for `max_ratio < 1` (or
    /// non-finite), [`SacError::InvalidTheta`] for `theta <= 0` (or
    /// non-finite).  An unknown query vertex is reported by the engine — the
    /// builder has no graph to check against — as the equally typed
    /// [`SacError::QueryVertexOutOfRange`].
    pub fn build(self) -> Result<SacRequest, SacError> {
        self.budget.validate()?;
        Ok(SacRequest {
            id: self.id,
            q: self.q,
            k: self.k,
            budget: self.budget,
            algorithm: self.algorithm,
            trace: self.trace,
        })
    }
}

/// Per-request trace metadata: where and how a response was produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    /// Monotonically increasing per-engine query id (1, 2, 3, …), assigned
    /// at execution time — the correlation key between responses, slow-log
    /// entries and transport logs.
    pub query_id: u64,
    /// Epoch (snapshot generation) the query was answered against.
    pub epoch: u64,
    /// Microseconds spent planning (budget validation, cache feasibility
    /// lookup, algorithm choice).
    pub plan_micros: u64,
    /// Microseconds spent executing the selected algorithm.
    pub exec_micros: u64,
    /// Whether the k-core cache was already warm when the query arrived.
    pub cache_hit: bool,
    /// The approximation ratio the dispatched plan guarantees, when any.
    pub guaranteed_ratio: Option<f64>,
    /// Connected-k-core feasibility probes the executed algorithm issued
    /// (radius-sweep prefix probes, arbitrary-circle probes and collected
    /// probes); 0 for cache-answered or rejected queries.
    pub probe_count: u64,
    /// Spatial candidates materialised by the algorithm's sweep begins — the
    /// amortisation denominator: from-scratch probing would pay a pass over
    /// the members *per probe*, the sweep pays one candidate view per sweep.
    pub candidate_count: u64,
    /// Full span tree (`query → {plan, exec}`),
    /// present when the request asked for one ([`SacRequest::trace`]) or the
    /// query was head-sampled ([`EngineConfig::trace_sample_every`]).  Built
    /// lazily from the stage timings above, after the query is already timed.
    pub tree: Option<TraceNode>,
}

/// The engine's answer to one [`SacRequest`].
#[derive(Debug, Clone)]
pub struct SacResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Echo of the query vertex.
    pub q: VertexId,
    /// Echo of the degree constraint.
    pub k: u32,
    /// The plan the engine dispatched.
    pub plan: Plan,
    /// The community (or `None` when infeasible), or the per-query error.
    pub outcome: Result<Option<Community>, SacError>,
    /// Wall-clock service time in microseconds (planning + execution).
    pub micros: u64,
    /// Trace metadata: epoch, phase timings, cache state, guarantee.
    pub trace: QueryTrace,
}

impl SacResponse {
    /// The community when the query succeeded and was feasible.
    pub fn community(&self) -> Option<&Community> {
        self.outcome.as_ref().ok().and_then(|c| c.as_ref())
    }
}

/// Aggregate serving counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Queries answered (including errors).
    pub queries: u64,
    /// Queries short-circuited by the cache feasibility check.
    pub infeasible_fast_path: u64,
    /// Queries that returned a per-query error.
    pub errors: u64,
    /// Cache counters, cumulative across all epochs (every epoch's cache
    /// counts into the same registry counters).
    pub cache: CacheStats,
    /// Number of the currently served epoch (1 for a freshly built engine).
    pub epoch: u64,
    /// Leadership term this engine serves under (0 until failover stamps
    /// one; bumped on replica promotion, durably mirrored in the WAL).
    pub term: u64,
    /// Snapshots published over this engine's lifetime (epoch swaps).
    pub epochs_published: u64,
    /// Per-`k` component indexes carried over across epoch swaps (their `k`
    /// was untouched by the delta, so the index stayed valid).
    pub components_carried: u64,
    /// Per-`k` component indexes dropped at epoch swaps because the delta
    /// touched their `k`.
    pub components_invalidated: u64,
    /// End-to-end latency percentile summaries per [`LatencyTier`], in
    /// [`LatencyTier::ALL`] order.  Empty when observation is disabled
    /// ([`EngineConfig::observe`]).
    pub tier_latency: Vec<LatencyStats>,
    /// End-to-end latency percentile summaries per dispatched algorithm, in
    /// [`Algorithm::ALL`] order.  Empty when observation is disabled.
    pub algorithm_latency: Vec<LatencyStats>,
    /// Windowed ("last 10s") latency summaries per [`LatencyTier`], in
    /// [`LatencyTier::ALL`] order — the rotating-ring counterpart of
    /// `tier_latency`, so dashboards can tell "slow right now" from "slow
    /// since boot".  Empty when observation is disabled.
    pub windowed_tier_latency: Vec<LatencyStats>,
    /// Wall-clock span the windowed summaries cover, in microseconds (ramps
    /// up from 0 on a fresh engine until the ring is full; the offered rate
    /// over the window is `count / span`).  `0` when observation is disabled.
    pub window_span_micros: u64,
}

/// One labelled latency series of [`EngineStats`]: a tier or algorithm name
/// plus its percentile summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyStats {
    /// Series label: the tier or algorithm wire name.
    pub label: &'static str,
    /// p50/p95/p99/max summary in microseconds.
    pub summary: LatencySummary,
}

/// The engine's answer to one snapshot publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReport {
    /// Number of the newly current epoch.
    pub epoch: u64,
    /// Per-`k` component indexes carried over from the previous epoch.
    pub components_carried: u64,
    /// Per-`k` component indexes invalidated by the delta.
    pub components_invalidated: u64,
    /// Microseconds spent building the next epoch: carrying the surviving
    /// component indexes over and seeding its k-core cache.
    pub rebuild_micros: u64,
    /// Microseconds spent swapping the epoch pointer.
    pub swap_micros: u64,
}

/// One served epoch: the snapshot and the k-core cache built against it.
#[derive(Debug)]
struct EngineEpoch {
    number: u64,
    graph: Arc<SpatialGraph>,
    cache: KCoreCache,
}

/// The engine's observability surface: the metric registry shared with the
/// serving layers above, which holds the serving counters and carries the
/// timings switch; pre-bound instrument handles for the dispatch hot path
/// (no registry lock is ever taken per query); the slow-query ring, the
/// event ring and the query-id source.
#[derive(Debug)]
struct EngineObs {
    registry: Arc<MetricsRegistry>,
    queries: Arc<Counter>,
    errors: Arc<Counter>,
    infeasible_fast_path: Arc<Counter>,
    epochs_published: Arc<Counter>,
    /// Shared by every epoch's [`KCoreCache`].
    cache: CacheCounters,
    components_carried: Arc<Counter>,
    components_invalidated: Arc<Counter>,
    /// End-to-end latency per tier, indexed by [`LatencyTier::index`].
    tier_latency: [Arc<Histogram>; 3],
    /// Windowed ("last 10s") end-to-end latency per tier, same indexing.
    tier_window: [Arc<WindowedHistogram>; 3],
    /// End-to-end latency per algorithm, indexed by `Algorithm as usize`.
    algo_latency: [Arc<Histogram>; Algorithm::ALL.len()],
    /// Planning sub-span (budget validation + cache feasibility + algorithm
    /// choice).
    plan_stage: Arc<Histogram>,
    /// Execution sub-span (the dispatched algorithm itself).
    exec_stage: Arc<Histogram>,
    /// Publish-pipeline sub-spans: building the next epoch (component
    /// carry-over + cache seeding) and the epoch pointer swap.
    publish_rebuild: Arc<Histogram>,
    publish_swap: Arc<Histogram>,
    slow_log: Arc<SlowQueryLog>,
    /// Sequence-numbered control-plane events (epoch swaps).
    events: Arc<EventLog>,
    /// Head-sampling rate for trace trees (0 = sampling off).
    trace_sample_every: u64,
    query_ids: AtomicU64,
}

impl EngineObs {
    /// The one place [`EngineConfig::observe`] is read: without it the
    /// registry hands out silent histograms, and the slow log, the event
    /// ring and the trace sampler are built switched off.
    fn new(config: &EngineConfig) -> Self {
        let registry = Arc::new(MetricsRegistry::with_timings(config.observe));
        let (slow_query_micros, event_capacity, trace_sample_every) = if config.observe {
            (
                config.slow_query_micros,
                EVENT_LOG_CAPACITY,
                config.trace_sample_every,
            )
        } else {
            (0, 0, 0)
        };
        let slow_log = Arc::new(SlowQueryLog::new(
            config.slowlog_capacity,
            slow_query_micros,
        ));
        let events = Arc::new(EventLog::new(event_capacity));

        let counter = |name, help| registry.counter(name, help, &[]);
        let queries = counter("sac_queries_total", "Queries answered (including errors)");
        let errors = counter(
            "sac_query_errors_total",
            "Queries that returned a per-query error",
        );
        let infeasible_fast_path = counter(
            "sac_infeasible_fast_path_total",
            "Queries short-circuited by the cache feasibility check",
        );
        let epochs_published = counter(
            "sac_epochs_published_total",
            "Snapshots published over the engine lifetime",
        );
        let cache = CacheCounters::register(&registry);
        let components_carried = counter(
            "sac_components_carried_total",
            "Per-k component indexes carried across epoch swaps",
        );
        let components_invalidated = counter(
            "sac_components_invalidated_total",
            "Per-k component indexes dropped at epoch swaps",
        );
        // Ring-owned values are read from the ring at scrape time.
        let log = Arc::clone(&slow_log);
        registry.counter_fn(
            "sac_slow_queries_dropped_total",
            "Slow-query records evicted from the ring buffer",
            &[],
            move || log.dropped(),
        );
        let ring = Arc::clone(&events);
        registry.counter_fn(
            "sac_events_total",
            "Control-plane events published over the engine lifetime",
            &[],
            move || ring.next_seq(),
        );
        let log = Arc::clone(&slow_log);
        registry.gauge_fn(
            "sac_slow_queries",
            "Slow-query records currently in the ring buffer",
            &[],
            move || log.len() as u64,
        );
        let ring = Arc::clone(&events);
        registry.gauge_fn(
            "sac_events_retained",
            "Control-plane events currently in the event ring",
            &[],
            move || ring.len() as u64,
        );

        const TIER_HELP: &str = "End-to-end query latency per latency tier";
        const ALGO_HELP: &str = "End-to-end query latency per dispatched algorithm";
        const STAGE_HELP: &str = "Query dispatch stage latency";
        const PUBLISH_HELP: &str = "Epoch publish stage latency";
        let tier_latency = std::array::from_fn(|i| {
            registry.histogram(
                "sac_query_latency_micros",
                TIER_HELP,
                &[("tier", LatencyTier::ALL[i].as_str())],
            )
        });
        let tier_window = std::array::from_fn(|i| {
            registry.windowed_histogram(
                "sac_query_latency_window_micros",
                "End-to-end query latency over the last 10s, per latency tier",
                &[("tier", LatencyTier::ALL[i].as_str())],
                TELEMETRY_WINDOWS,
                TELEMETRY_WINDOW_MICROS,
            )
        });
        let algo_latency = std::array::from_fn(|i| {
            registry.histogram(
                "sac_algorithm_latency_micros",
                ALGO_HELP,
                &[("algorithm", Algorithm::ALL[i].name())],
            )
        });
        let stage = |stage: &'static str| {
            registry.histogram("sac_stage_micros", STAGE_HELP, &[("stage", stage)])
        };
        let publish = |stage: &'static str| {
            registry.histogram(
                "sac_publish_stage_micros",
                PUBLISH_HELP,
                &[("stage", stage)],
            )
        };
        EngineObs {
            queries,
            errors,
            infeasible_fast_path,
            epochs_published,
            cache,
            components_carried,
            components_invalidated,
            tier_latency,
            tier_window,
            algo_latency,
            plan_stage: stage("plan"),
            exec_stage: stage("exec"),
            publish_rebuild: publish("epoch_build"),
            publish_swap: publish("epoch_swap"),
            slow_log,
            events,
            trace_sample_every,
            query_ids: AtomicU64::new(0),
            registry,
        }
    }
}

/// A thread-safe SAC query engine over one immutable graph snapshot.
///
/// The engine owns an `Arc<SpatialGraph>` snapshot (shared, read-only — see
/// the `Send + Sync` assertions in `sac-graph`), a [`KCoreCache`] that
/// memoises the core decomposition and per-`k` connected-core indexes, and a
/// planner that turns each request's [`QueryBudget`] into one of the paper's
/// algorithms.  All methods take `&self`; one engine serves any number of
/// threads concurrently.
///
/// ```
/// use sac_engine::{QueryBudget, SacEngine, SacRequest};
///
/// let engine = SacEngine::new(sac_core::fixtures::figure3_graph());
/// let request = SacRequest::builder(sac_core::fixtures::figure3::Q, 2)
///     .budget(QueryBudget::exact())
///     .build()
///     .unwrap();
/// let response = engine.execute(&request);
/// let community = response.community().expect("Q has a 2-core community");
/// assert!(community.contains(sac_core::fixtures::figure3::Q));
/// ```
#[derive(Debug)]
pub struct SacEngine {
    /// Shared with the registry's `sac_epoch` reader.
    epoch: Arc<EpochCell<EngineEpoch>>,
    planner: Planner,
    /// Leadership term (failover fencing): plain state the failover layer
    /// stamps, carried here so every WAL record and stats reply can read it
    /// off the engine handle.
    term: AtomicU64,
    obs: EngineObs,
}

impl SacEngine {
    /// An engine owning `graph` as its immutable snapshot.
    pub fn new(graph: SpatialGraph) -> Self {
        SacEngine::from_snapshot(Arc::new(graph))
    }

    /// An engine over an existing shared snapshot.
    pub fn from_snapshot(graph: Arc<SpatialGraph>) -> Self {
        SacEngine::with_config(graph, EngineConfig::default())
    }

    /// An engine with custom tunables.
    pub fn with_config(graph: Arc<SpatialGraph>, config: EngineConfig) -> Self {
        SacEngine::assemble(graph, None, config, 1)
    }

    /// An engine rebuilt from recovered state: serves `graph` as epoch
    /// `epoch` (crash recovery and replica bootstrap resume the epoch
    /// sequence where the recovered state left it).  `decomposition` must be
    /// the core decomposition of `graph`; it seeds the cache, so the
    /// restored epoch never peels again.
    ///
    /// # Panics
    ///
    /// Panics when the decomposition does not match the graph's vertex count.
    pub fn restored(
        graph: Arc<SpatialGraph>,
        decomposition: CoreDecomposition,
        config: EngineConfig,
        epoch: u64,
    ) -> Self {
        assert_eq!(
            decomposition.core_numbers().len(),
            graph.num_vertices(),
            "decomposition does not match the restored graph"
        );
        SacEngine::assemble(graph, Some(decomposition), config, epoch.max(1))
    }

    fn assemble(
        graph: Arc<SpatialGraph>,
        decomposition: Option<CoreDecomposition>,
        config: EngineConfig,
        number: u64,
    ) -> Self {
        let obs = EngineObs::new(&config);
        let counters = obs.cache.clone();
        let cache = match decomposition {
            Some(d) => KCoreCache::seeded(counters, Arc::new(d), Vec::new()),
            None => KCoreCache::new(counters),
        };
        let epoch = Arc::new(EpochCell::new(Arc::new(EngineEpoch {
            number,
            graph,
            cache,
        })));
        let served = Arc::clone(&epoch);
        obs.registry.gauge_fn(
            "sac_epoch",
            "Currently served epoch number",
            &[],
            move || served.load().number,
        );
        SacEngine {
            epoch,
            planner: Planner::new(config.small_exact_threshold),
            term: AtomicU64::new(0),
            obs,
        }
    }

    /// The by-name view of the algorithms this engine dispatches into.
    pub fn registry(&self) -> AlgorithmRegistry {
        AlgorithmRegistry
    }

    /// The shared snapshot of the current epoch.
    pub fn snapshot(&self) -> Arc<SpatialGraph> {
        Arc::clone(&self.epoch.load().graph)
    }

    /// Number of the currently served epoch (starts at 1).
    pub fn epoch(&self) -> u64 {
        self.epoch.load().number
    }

    /// Leadership term this engine currently serves under (0 until the
    /// failover layer stamps one).
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    /// Raises the leadership term to `term`; a lower value is ignored, so
    /// terms never go back.  Called by the failover layer at boot (from the
    /// recovered WAL), by a replica tracking its primary, and on promotion
    /// (bumped past the observed term); the commit path stamps the current
    /// value into every WAL record it appends.
    pub fn set_term(&self, term: u64) {
        self.term.fetch_max(term, Ordering::AcqRel);
    }

    /// Publishes a new snapshot as the next epoch, selectively carrying the
    /// k-core index cache across.
    ///
    /// `decomposition` must be the core decomposition of `graph` (the
    /// live-update path maintains it incrementally).  `dirty_up_to` is the
    /// largest `k` whose k-core may differ from the previous snapshot (see
    /// [`sac_graph::EdgeChange::dirty_up_to`]): cached component indexes for
    /// `k > dirty_up_to` remain valid and carry over to the new epoch; the
    /// rest — and any `k = 0` index, since vertex additions change the 0-core
    /// — are dropped.  In-flight queries keep the epoch they loaded and finish
    /// on the old snapshot.
    ///
    /// Concurrent publishers are memory-safe but should be serialised by the
    /// caller (the live-update front does) so epoch numbers stay sequential.
    pub fn publish(
        &self,
        graph: Arc<SpatialGraph>,
        decomposition: CoreDecomposition,
        dirty_up_to: u32,
    ) -> PublishReport {
        self.publish_at(graph, decomposition, dirty_up_to, None)
    }

    /// Publishes `graph` directly as epoch `epoch`, which must exceed the
    /// currently served epoch.  The replication path uses this when a
    /// replica re-bootstraps from a shipped snapshot whose epoch is ahead of
    /// the replica's applied epoch (the intervening delta records were
    /// truncated by a primary checkpoint, so the replica cannot step through
    /// them).  Every cache entry is dropped — nothing from the old epoch can
    /// be trusted across the jump.
    pub fn publish_restored(
        &self,
        graph: Arc<SpatialGraph>,
        decomposition: CoreDecomposition,
        epoch: u64,
    ) -> PublishReport {
        self.publish_at(graph, decomposition, u32::MAX, Some(epoch))
    }

    fn publish_at(
        &self,
        graph: Arc<SpatialGraph>,
        decomposition: CoreDecomposition,
        dirty_up_to: u32,
        number: Option<u64>,
    ) -> PublishReport {
        assert_eq!(
            decomposition.core_numbers().len(),
            graph.num_vertices(),
            "decomposition does not match the published graph"
        );
        let previous = self.epoch.load();
        let rebuild_span = Span::start(&self.obs.publish_rebuild);
        let mut carried = 0u64;
        let mut invalidated = 0u64;
        let surviving: Vec<Arc<KCoreComponents>> = previous
            .cache
            .component_entries()
            .into_iter()
            .filter(|entry| {
                let keep = entry.k() != 0 && entry.k() > dirty_up_to;
                if keep {
                    carried += 1;
                } else {
                    invalidated += 1;
                }
                keep
            })
            .collect();
        let next_number = number.unwrap_or(previous.number + 1);
        assert!(
            next_number > previous.number,
            "published epoch {next_number} must exceed the served epoch {}",
            previous.number
        );
        let next = EngineEpoch {
            number: next_number,
            graph,
            cache: KCoreCache::seeded(self.obs.cache.clone(), Arc::new(decomposition), surviving),
        };
        let rebuild_micros = rebuild_span.finish();
        let swap_span = Span::start(&self.obs.publish_swap);
        self.epoch.swap(Arc::new(next));
        let swap_micros = swap_span.finish();
        self.obs.epochs_published.inc();
        self.obs.components_carried.add(carried);
        self.obs.components_invalidated.add(invalidated);
        self.obs.events.publish(
            "epoch_swap",
            format!("epoch={next_number} carried={carried} invalidated={invalidated}"),
        );
        PublishReport {
            epoch: next_number,
            components_carried: carried,
            components_invalidated: invalidated,
            rebuild_micros,
            swap_micros,
        }
    }

    /// Pre-computes the decomposition and the component indexes for `ks`, so
    /// the first real queries don't pay the build cost.
    pub fn warm(&self, ks: &[u32]) {
        let epoch = self.epoch.load();
        let graph = epoch.graph.graph();
        epoch.cache.decomposition(graph);
        for &k in ks {
            epoch.cache.components(graph, k);
        }
    }

    /// The memoised core decomposition of the current snapshot.
    pub fn decomposition(&self) -> Arc<CoreDecomposition> {
        let epoch = self.epoch.load();
        epoch.cache.decomposition(epoch.graph.graph())
    }

    /// The memoised connected-component index of the k-core for `k`.
    pub fn core_components(&self, k: u32) -> Arc<KCoreComponents> {
        let epoch = self.epoch.load();
        epoch.cache.components(epoch.graph.graph(), k)
    }

    /// Cache-served structural query: the sorted members of the connected
    /// k-core containing `q` (no spatial optimisation), or `None` when `q` is
    /// in no k-core.
    pub fn connected_core(&self, q: VertexId, k: u32) -> Option<Vec<VertexId>> {
        self.core_components(k).core_of(q).map(<[VertexId]>::to_vec)
    }

    /// The plan the engine would dispatch for `request` (exposed for tests,
    /// tooling and the equivalence suite).
    pub fn plan_for(&self, request: &SacRequest) -> Result<Plan, SacError> {
        self.plan_on(&self.epoch.load(), request)
    }

    fn plan_on(&self, epoch: &EngineEpoch, request: &SacRequest) -> Result<Plan, SacError> {
        // Budget validation happens inside `Planner::plan` — the one choke
        // point every query path goes through.
        let n = epoch.graph.num_vertices();
        if request.q as usize >= n {
            return Err(SacError::QueryVertexOutOfRange(request.q));
        }
        // An explicit override skips the cache feasibility lookup entirely:
        // A/B comparisons should measure the named algorithm end to end, not
        // the cache's short-circuit.
        let ctx = if request.algorithm.is_some() {
            PlanContext {
                core_size: None,
                infeasible: false,
            }
        } else {
            Self::plan_context(epoch, request)
        };
        self.planner.plan(
            request.q,
            request.k,
            &request.budget,
            &ctx,
            request.algorithm.as_deref(),
        )
    }

    /// Structural facts for the planner.  The cache feasibility rule is only
    /// sound for `k >= 2`: for `k <= 1` the algorithms have trivial answers
    /// (single vertex / nearest neighbour) that exist even outside any k-core,
    /// so those queries always go to the algorithm.
    fn plan_context(epoch: &EngineEpoch, request: &SacRequest) -> PlanContext {
        if request.k < 2 {
            return PlanContext {
                core_size: None,
                infeasible: false,
            };
        }
        // O(1) feasibility from the decomposition first: infeasible queries
        // (including arbitrary wire-supplied k) never build a per-k index.
        let graph = epoch.graph.graph();
        let decomposition = epoch.cache.decomposition(graph);
        if decomposition.core_number(request.q) < request.k {
            return PlanContext {
                core_size: None,
                infeasible: true,
            };
        }
        PlanContext {
            core_size: epoch
                .cache
                .components(graph, request.k)
                .core_size_of(request.q),
            infeasible: false,
        }
    }

    /// Answers one request: plans, dispatches, and annotates the response with
    /// timing and cache metadata.
    ///
    /// The epoch is loaded once at entry; a snapshot published mid-query does
    /// not affect this request.
    pub fn execute(&self, request: &SacRequest) -> SacResponse {
        self.execute_on(&self.epoch.load(), request)
    }

    fn execute_on(&self, epoch: &EngineEpoch, request: &SacRequest) -> SacResponse {
        let start = Instant::now();
        // Cache warmth is sampled *before* planning (planning itself warms it).
        let cache_hit = epoch.cache.is_warm();
        let plan_result = self.plan_on(epoch, request);
        let plan_micros = start.elapsed().as_micros() as u64;
        self.obs.plan_stage.record(plan_micros);
        let exec_start = Instant::now();
        self.obs.queries.inc();
        let (plan, outcome, sweep) = match plan_result {
            Err(e) => (Plan::Rejected, Err(e), SweepStats::default()),
            Ok(plan) => {
                let (outcome, sweep) = self.dispatch(epoch, &plan);
                (plan, outcome, sweep)
            }
        };
        match &outcome {
            Err(_) => self.obs.errors.inc(),
            Ok(_) if plan == Plan::Infeasible => self.obs.infeasible_fast_path.inc(),
            Ok(_) => {}
        }
        let exec_micros = exec_start.elapsed().as_micros() as u64;
        let query_id = self.obs.query_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let total_micros = plan_micros + exec_micros;
        // The span tree is assembled from stage timings measured above, so
        // building one is a pure off-path allocation: requested traces are
        // always honoured, head-sampling adds a tree to every Nth query, and
        // the slow log attaches one to every captured record.
        let build_tree = || {
            TraceNode::new("query", 0, total_micros)
                .with_child(TraceNode::new("plan", 0, plan_micros))
                .with_child(TraceNode::new("exec", plan_micros, exec_micros))
        };
        let sample_every = self.obs.trace_sample_every;
        let sampled = sample_every > 0 && query_id.is_multiple_of(sample_every);
        let tree = if request.trace || sampled {
            Some(build_tree())
        } else {
            None
        };
        self.obs.exec_stage.record(exec_micros);
        self.obs.tier_latency[request.budget.tier.index()].record(total_micros);
        self.obs.tier_window[request.budget.tier.index()].record(total_micros);
        if let Some(algorithm) = plan.algorithm().and_then(Algorithm::from_name) {
            self.obs.algo_latency[algorithm as usize].record(total_micros);
        }
        self.obs.slow_log.observe(total_micros, || SlowQueryRecord {
            query_id,
            total_micros,
            plan: plan.label(),
            tier: request.budget.tier.as_str().to_string(),
            epoch: epoch.number,
            plan_micros,
            exec_micros,
            cache_hit,
            probe_count: sweep.probes,
            candidate_count: sweep.candidates,
            trace: Some(tree.clone().unwrap_or_else(&build_tree)),
        });
        SacResponse {
            id: request.id,
            q: request.q,
            k: request.k,
            outcome,
            micros: total_micros,
            trace: QueryTrace {
                query_id,
                epoch: epoch.number,
                plan_micros,
                exec_micros,
                cache_hit,
                guaranteed_ratio: plan.guaranteed_ratio(),
                probe_count: sweep.probes,
                candidate_count: sweep.candidates,
                tree,
            },
            plan,
        }
    }

    /// Runs the planned [`Algorithm`], which calls the same `sac_core` entry
    /// point a direct caller would use, so engine answers are bit-identical
    /// to library answers (the equivalence suite asserts this); the
    /// [`SearchContext`] carries the epoch's per-`k` component index, so
    /// k-ĉore-extracting algorithms read Step 1 from its member slice
    /// instead of peeling the graph.
    fn dispatch(
        &self,
        epoch: &EngineEpoch,
        plan: &Plan,
    ) -> (Result<Option<Community>, SacError>, SweepStats) {
        let planned: &PlannedQuery = match plan {
            Plan::Infeasible => return (Ok(None), SweepStats::default()),
            Plan::Rejected => unreachable!("rejected plans never reach dispatch"),
            Plan::Execute(planned) => planned,
        };
        let algorithm = Algorithm::from_name(planned.algorithm)
            .expect("the planner plans only Algorithm names");
        let graph: &SpatialGraph = &epoch.graph;
        // Only the Step-1 readers consume the shared index; the rest
        // (app_inc) must not force an index build on a cold cache for
        // nothing.  For a planned `k >= 2`, `plan_context` has already
        // built it (an explicit override builds it here, once per epoch and
        // `k`; an absurd `k` gets the uncached empty index).  Below `k = 2`
        // the SAC algorithms answer without Step 1, and the baselines peel
        // exactly as their free functions do.
        let (q, k) = (planned.query.q, planned.query.k);
        let ctx = if algorithm.shares_decomposition() && k >= 2 {
            SearchContext::with_components(graph, q, k, epoch.cache.components(graph.graph(), k))
        } else {
            SearchContext::new(graph, q, k)
        };
        let mut ctx = match ctx {
            Ok(ctx) => ctx,
            Err(e) => return (Err(e), SweepStats::default()),
        };
        let outcome = algorithm
            .run(&mut ctx, &planned.query)
            .map(|outcome| outcome.community);
        // The context's sweep counters are the per-query observability hook:
        // they land in `QueryTrace::probe_count`/`candidate_count`.
        (outcome, ctx.sweep_stats())
    }

    /// Fans `requests` across `threads` workers sharing this engine and
    /// returns the responses in request order.
    ///
    /// The epoch is loaded once for the whole batch, so every request of a
    /// batch is answered against the same snapshot even when a publish lands
    /// mid-batch.  Work is distributed by an atomic cursor (cheap dynamic
    /// load balancing: slow exact queries don't stall a whole stripe of the
    /// batch).
    pub fn execute_batch(&self, requests: &[SacRequest], threads: usize) -> Vec<SacResponse> {
        let n = requests.len();
        if n == 0 {
            return Vec::new();
        }
        let epoch = self.epoch.load();
        let threads = threads.clamp(1, n);
        if threads == 1 {
            return requests
                .iter()
                .map(|r| self.execute_on(&epoch, r))
                .collect();
        }
        // Warm the decomposition once up front so concurrent first-queries
        // don't all compute it.
        epoch.cache.decomposition(epoch.graph.graph());
        let slots: Vec<OnceLock<SacResponse>> = (0..n).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let response = self.execute_on(&epoch, &requests[i]);
                    slots[i].set(response).expect("each slot is written once");
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("all slots filled"))
            .collect()
    }

    /// Current serving counters (cache counters cumulative across epochs):
    /// the values [`SacEngine::metrics_text`] renders under the same names.
    /// The latency summaries are empty when the registry keeps no timings
    /// ([`EngineConfig::observe`] off).
    pub fn stats(&self) -> EngineStats {
        let obs = &self.obs;
        let mut stats = EngineStats {
            queries: obs.queries.get(),
            infeasible_fast_path: obs.infeasible_fast_path.get(),
            errors: obs.errors.get(),
            cache: obs.cache.stats(),
            epoch: self.epoch(),
            term: self.term(),
            epochs_published: obs.epochs_published.get(),
            components_carried: obs.components_carried.get(),
            components_invalidated: obs.components_invalidated.get(),
            ..EngineStats::default()
        };
        if !obs.registry.timings() {
            return stats;
        }
        let summary = |label, hist: &Histogram| LatencyStats {
            label,
            summary: LatencySummary::from_snapshot(&hist.snapshot()),
        };
        stats.tier_latency = LatencyTier::ALL
            .iter()
            .map(|tier| summary(tier.as_str(), &obs.tier_latency[tier.index()]))
            .collect();
        stats.algorithm_latency = Algorithm::ALL
            .iter()
            .map(|&algorithm| summary(algorithm.name(), &obs.algo_latency[algorithm as usize]))
            .collect();
        let windows: Vec<_> = obs.tier_window.iter().map(|w| w.snapshot()).collect();
        stats.windowed_tier_latency = LatencyTier::ALL
            .iter()
            .map(|tier| LatencyStats {
                label: tier.as_str(),
                summary: windows[tier.index()].summary(),
            })
            .collect();
        // All three rings share a geometry; report the widest span so
        // `count / span` never overstates the rate.
        stats.window_span_micros = windows.iter().map(|w| w.span_micros).max().unwrap_or(0);
        stats
    }

    /// The metric registry the engine (and, by shared registration, the
    /// serving layers above) records into: the serving counters, per-tier
    /// and per-algorithm latency histograms, dispatch stage spans and
    /// publish-pipeline spans.  Its histograms are silent when
    /// [`EngineConfig::observe`] is off; its counters always count.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs.registry
    }

    /// The slow-query ring buffer (threshold
    /// [`EngineConfig::slow_query_micros`], capacity
    /// [`EngineConfig::slowlog_capacity`]; empty when capture is disabled).
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.obs.slow_log
    }

    /// The engine's control-plane event log: epoch swaps, tailed with a
    /// cursor ([`EventLog::since`]).  Layers above (the live-update front,
    /// the serving transports) publish their own events — commits, batch
    /// strategy choices — into the same ring.
    /// Switched off (keeps nothing) when observation is disabled.
    pub fn events(&self) -> &Arc<EventLog> {
        &self.obs.events
    }

    /// Prometheus text exposition of everything the engine's registry holds
    /// — the payload of the HTTP `GET /metrics` endpoint.  Every series is
    /// the one value [`SacEngine::stats`] (or the layer above that
    /// registered it) reports: counters are the registry's own, and values
    /// another owner keeps — the served epoch, the slow-log and event-ring
    /// lengths — are read from that owner while rendering.
    pub fn metrics_text(&self) -> String {
        self.obs.registry.render_prometheus()
    }
}

// One engine is shared by reference across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SacEngine>();
    assert_send_sync::<SacRequest>();
    assert_send_sync::<SacResponse>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::LatencyTier;
    use sac_core::fixtures::{figure3, figure3_graph};
    use sac_core::{exact_plus, theta_sac, SacQuery, EXACT_PLUS_EPS_A};

    fn engine() -> SacEngine {
        SacEngine::new(figure3_graph())
    }

    #[test]
    fn exact_budget_returns_paper_answer() {
        let engine = engine();
        let response = engine.execute(
            &SacRequest::builder(figure3::Q, 2)
                .id(1)
                .budget(QueryBudget::exact())
                .build()
                .unwrap(),
        );
        assert_eq!(response.id, 1);
        assert!(response.plan.dispatches("exact_plus"));
        let community = response.community().expect("feasible");
        let direct = exact_plus(&figure3_graph(), figure3::Q, 2, EXACT_PLUS_EPS_A)
            .unwrap()
            .unwrap();
        assert_eq!(community.members(), direct.members());
        assert!(!response.trace.cache_hit, "first query sees a cold cache");
        assert_eq!(response.trace.epoch, 1);
        assert_eq!(response.trace.guaranteed_ratio, Some(1.0));
        assert!(response.micros >= response.trace.plan_micros);
    }

    #[test]
    fn infeasible_queries_short_circuit_through_cache() {
        let engine = engine();
        // Vertex I (pendant) has core number 1: no 2-core community.
        let response = engine.execute(&SacRequest::builder(figure3::I, 2).id(2).build().unwrap());
        assert_eq!(response.plan, Plan::Infeasible);
        assert_eq!(response.outcome, Ok(None));
        let stats = engine.stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.infeasible_fast_path, 1);
    }

    #[test]
    fn absurd_k_values_never_build_or_cache_indexes() {
        let engine = engine();
        for k in [100u32, 1_000_000, u32::MAX] {
            let response =
                engine.execute(&SacRequest::builder(figure3::Q, k).id(9).build().unwrap());
            assert_eq!(response.plan, Plan::Infeasible);
            assert_eq!(response.outcome, Ok(None));
        }
        // Feasibility came from the O(1) decomposition lookup: no per-k
        // component index was built for any of the absurd k values.
        let stats = engine.stats();
        assert_eq!(stats.cache.components.misses, 0);
        assert_eq!(stats.infeasible_fast_path, 3);
        // The public structural query is also safe against huge k.
        assert!(engine.connected_core(figure3::Q, 10_000).is_none());
        assert_eq!(engine.stats().cache.components.misses, 0);
    }

    #[test]
    fn trivial_k_queries_bypass_the_feasibility_fast_path() {
        let engine = engine();
        // k = 0 has a trivial single-vertex answer even for the pendant vertex.
        let response = engine.execute(&SacRequest::builder(figure3::I, 0).id(3).build().unwrap());
        let community = response.community().expect("k=0 is always feasible");
        assert_eq!(community.members(), &[figure3::I]);
    }

    #[test]
    fn second_query_hits_the_cache() {
        let engine = engine();
        let req = SacRequest::builder(figure3::Q, 2).id(4).build().unwrap();
        let first = engine.execute(&req);
        let second = engine.execute(&req);
        assert!(!first.trace.cache_hit);
        assert!(second.trace.cache_hit);
        assert_eq!(
            first.community().unwrap().members(),
            second.community().unwrap().members()
        );
    }

    #[test]
    fn errors_are_reported_per_query() {
        let engine = engine();
        let out_of_range = engine.execute(&SacRequest::builder(999, 2).id(5).build().unwrap());
        assert_eq!(out_of_range.plan, Plan::Rejected);
        assert_eq!(
            out_of_range.outcome,
            Err(SacError::QueryVertexOutOfRange(999))
        );
        // The builder refuses this budget; the engine still re-checks a
        // request whose public fields were set directly.
        let mut bad = SacRequest::builder(figure3::Q, 2).id(6).build().unwrap();
        bad.budget = QueryBudget::within_ratio(0.2);
        let bad_budget = engine.execute(&bad);
        assert_eq!(bad_budget.plan, Plan::Rejected);
        assert!(bad_budget.outcome.is_err());
        assert_eq!(engine.stats().errors, 2);
    }

    #[test]
    fn batch_execution_preserves_order_and_results() {
        let engine = engine();
        let requests: Vec<SacRequest> = (0..40)
            .map(|i| {
                let q = [figure3::Q, figure3::A, figure3::F, figure3::I][i % 4];
                SacRequest::builder(q, 2).id(i as u64).build().unwrap()
            })
            .collect();
        let batch = engine.execute_batch(&requests, 4);
        assert_eq!(batch.len(), 40);
        for (i, response) in batch.iter().enumerate() {
            assert_eq!(response.id, i as u64);
            let single = engine.execute(&requests[i]);
            match (response.community(), single.community()) {
                (Some(a), Some(b)) => assert_eq!(a.members(), b.members()),
                (None, None) => {}
                _ => panic!("batch/single feasibility mismatch at {i}"),
            }
        }
    }

    #[test]
    fn structural_core_queries_come_from_the_cache() {
        let engine = engine();
        let core = engine
            .connected_core(figure3::Q, 2)
            .expect("Q is in the 2-core");
        assert!(core.contains(&figure3::Q));
        assert!(engine.connected_core(figure3::I, 2).is_none());
        // Small fixture: the planner upgrades every feasible plan to Exact+.
        let plan = engine
            .plan_for(
                &SacRequest::builder(figure3::Q, 2)
                    .id(7)
                    .budget(QueryBudget::interactive())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert!(plan.dispatches("exact_plus"));
    }

    #[test]
    fn publish_swaps_epochs_and_carries_untouched_indexes() {
        use sac_graph::DynamicGraph;

        let engine = engine();
        assert_eq!(engine.epoch(), 1);
        engine.warm(&[1, 2]);

        // Delta: drop the pendant edge H–I (vertices 8 and 9 in the fixture).
        // I has core 1, so only k <= 1 cores can change: the k = 2 index must
        // carry over, the k = 1 index must be dropped.
        let old_snapshot = engine.snapshot();
        let mut dynamic = DynamicGraph::from_graph(old_snapshot.graph());
        let change = dynamic.remove_edge(figure3::H, figure3::I).unwrap();
        assert_eq!(change.dirty_up_to, 1);
        let new_graph =
            sac_graph::SpatialGraph::new(dynamic.publish(), old_snapshot.positions().to_vec())
                .unwrap();
        let report = engine.publish(Arc::new(new_graph), dynamic.decomposition(), 1);
        assert_eq!(report.epoch, 2);
        assert_eq!(report.components_carried, 1);
        assert_eq!(report.components_invalidated, 1);
        assert_eq!(engine.epoch(), 2);

        // The carried k = 2 index answers without a rebuild (a component hit,
        // no new miss beyond the two warming builds).
        let before = engine.stats().cache.components;
        let core = engine.connected_core(figure3::Q, 2).unwrap();
        assert!(core.contains(&figure3::Q));
        let after = engine.stats().cache.components;
        assert_eq!(after.misses, before.misses, "carried index must be a hit");
        assert_eq!(after.hits, before.hits + 1);

        // The new snapshot is live: I is now isolated, so even k = 1 is
        // infeasible structurally.
        assert!(engine.connected_core(figure3::I, 1).is_none());
        // In-flight holders of the old snapshot still see the edge.
        assert!(old_snapshot.graph().has_edge(figure3::H, figure3::I));
        let stats = engine.stats();
        assert_eq!(stats.epoch, 2);
        assert_eq!(stats.epochs_published, 1);
        assert_eq!(stats.components_carried, 1);
        assert_eq!(stats.components_invalidated, 1);
    }

    #[test]
    fn carried_indexes_serve_step1_after_vertex_additions() {
        use sac_graph::DynamicGraph;

        // A vertex-only delta carries the k = 2 index over unchanged, so the
        // next epoch's graph has one more vertex than the index covers.
        let engine = engine();
        engine.warm(&[2]);
        let old_snapshot = engine.snapshot();
        let mut dynamic = DynamicGraph::from_graph(old_snapshot.graph());
        let added = dynamic.add_vertex();
        let mut positions = old_snapshot.positions().to_vec();
        positions.push(sac_geom::Point::new(2.0, 2.0));
        let grown = sac_graph::SpatialGraph::new(dynamic.publish(), positions).unwrap();
        let report = engine.publish(Arc::new(grown.clone()), dynamic.decomposition(), 0);
        assert_eq!(report.components_carried, 1);
        assert!(engine.core_components(2).covered_vertices() < grown.num_vertices());

        // Every Step-1 reader answers like the library on the grown graph.
        for name in [
            "exact_plus",
            "app_acc",
            "app_fast",
            "exact",
            "global",
            "local",
        ] {
            for q in [figure3::Q, figure3::F, added] {
                let query = SacQuery::new(q, 2);
                let response =
                    engine.execute(&SacRequest::builder(q, 2).algorithm(name).build().unwrap());
                let mut ctx = SearchContext::new(&grown, q, 2).unwrap();
                let direct = Algorithm::from_name(name)
                    .unwrap()
                    .run(&mut ctx, &query)
                    .unwrap()
                    .community;
                assert_eq!(
                    response.community().map(Community::members),
                    direct.as_ref().map(Community::members),
                    "{name} at q = {q}"
                );
            }
        }
    }

    #[test]
    fn stats_accumulate_across_epochs() {
        let engine = engine();
        let req = SacRequest::builder(figure3::Q, 2).id(1).build().unwrap();
        engine.execute(&req);
        let before = engine.stats();
        assert!(before.cache.decomposition.misses >= 1);

        // Republish the same graph with a full invalidation: the old epoch's
        // counters must not vanish from the cumulative stats.
        let snapshot = engine.snapshot();
        let decomposition = sac_graph::core_decomposition(snapshot.graph());
        engine.publish(snapshot, decomposition, u32::MAX);
        let after = engine.stats();
        assert!(after.cache.decomposition.misses >= before.cache.decomposition.misses);
        assert!(after.cache.components.misses >= before.cache.components.misses);
        assert_eq!(after.queries, before.queries);
        assert_eq!(after.epoch, 2);
    }

    #[test]
    fn non_core_extracting_algorithms_skip_the_decomposition() {
        let engine = engine();
        // θ query with k = 0: the planner's feasibility check skips the
        // decomposition (k < 2) and theta_sac answers k < 2 without Step 1
        // — so a cold engine must not pay the O(m) peel for it.
        let response = engine.execute(
            &SacRequest::builder(figure3::Q, 0)
                .id(1)
                .budget(QueryBudget::balanced().with_theta(5.0))
                .build()
                .unwrap(),
        );
        assert!(response.plan.dispatches("theta_sac"));
        assert!(response.community().is_some());
        assert_eq!(
            engine.stats().cache.decomposition.misses,
            0,
            "theta_sac must not force the decomposition"
        );
    }

    #[test]
    fn trace_exposes_probe_and_candidate_counts() {
        let engine = engine();
        // A planned algorithm that probes (exact_plus on the small fixture)
        // must report its sweep counters in the trace.
        let response = engine.execute(
            &SacRequest::builder(figure3::Q, 2)
                .id(1)
                .budget(QueryBudget::exact())
                .build()
                .unwrap(),
        );
        assert!(response.trace.probe_count > 0, "exact_plus probes circles");
        assert!(response.trace.candidate_count > 0);
        // Algorithms that build their context internally in the free-function
        // form still surface counters through the engine's context (app_inc
        // collects into a sweep, exact probes triple circles).
        for name in ["app_inc", "exact", "app_fast", "app_acc"] {
            let response = engine.execute(
                &SacRequest::builder(figure3::Q, 2)
                    .id(3)
                    .algorithm(name)
                    .build()
                    .unwrap(),
            );
            assert!(
                response.trace.probe_count > 0,
                "{name} must report its probes"
            );
            assert!(
                response.trace.candidate_count > 0,
                "{name} must report its candidates"
            );
        }
        // Cache-answered infeasibility never probes.
        let infeasible = engine.execute(&SacRequest::builder(figure3::I, 2).id(2).build().unwrap());
        assert_eq!(infeasible.plan, Plan::Infeasible);
        assert_eq!(infeasible.trace.probe_count, 0);
        assert_eq!(infeasible.trace.candidate_count, 0);
    }

    #[test]
    fn algorithm_override_reaches_registered_baselines() {
        let engine = engine();
        // `global` is registered but unreachable through budgets; the
        // override dispatches it and returns the whole k-ĉore (the
        // structure-only baseline ignores locations).
        let request = SacRequest::builder(figure3::Q, 2)
            .id(11)
            .algorithm("global")
            .build()
            .unwrap();
        let response = engine.execute(&request);
        assert!(response.plan.dispatches("global"));
        let community = response.community().expect("feasible");
        let direct = sac_core::baselines::global_search(&figure3_graph(), figure3::Q, 2)
            .unwrap()
            .unwrap();
        assert_eq!(community.members(), direct.members());
        assert_eq!(response.trace.guaranteed_ratio, None);

        // The override runs the real algorithm even where the cache would
        // short-circuit (A/B timing honesty): vertex I has no 2-core, and the
        // algorithm itself — not the cache — reports infeasibility.
        let request = SacRequest::builder(figure3::I, 2)
            .id(12)
            .algorithm("app_inc")
            .build()
            .unwrap();
        let response = engine.execute(&request);
        assert!(response.plan.dispatches("app_inc"));
        assert_eq!(response.outcome, Ok(None));
        assert_eq!(engine.stats().infeasible_fast_path, 0);

        // Unknown overrides are typed per-query errors.
        let response = engine.execute(
            &SacRequest::builder(figure3::Q, 2)
                .id(13)
                .algorithm("nope")
                .build()
                .unwrap(),
        );
        assert_eq!(response.plan, Plan::Rejected);
        assert_eq!(
            response.outcome,
            Err(SacError::UnknownAlgorithm("nope".to_string()))
        );
    }

    #[test]
    fn query_ids_are_monotonic_and_dense() {
        let engine = engine();
        for expected in 1..=5u64 {
            let response = engine.execute(&SacRequest::builder(figure3::Q, 2).build().unwrap());
            assert_eq!(response.trace.query_id, expected);
        }
        // Batch execution draws from the same per-engine sequence: ids stay
        // unique and cover the next contiguous range (order is unspecified).
        let requests: Vec<SacRequest> = (0..8)
            .map(|i| SacRequest::builder(figure3::Q, 2).id(i).build().unwrap())
            .collect();
        let mut ids: Vec<u64> = engine
            .execute_batch(&requests, 4)
            .iter()
            .map(|r| r.trace.query_id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (6..=13).collect::<Vec<u64>>());
    }

    #[test]
    fn tier_and_algorithm_latency_land_in_stats_and_metrics() {
        let engine = engine();
        for _ in 0..4 {
            engine.execute(
                &SacRequest::builder(figure3::Q, 2)
                    .id(1)
                    .budget(QueryBudget::exact().with_tier(LatencyTier::Interactive))
                    .build()
                    .unwrap(),
            );
        }
        engine.execute(&SacRequest::builder(figure3::Q, 2).id(2).build().unwrap());
        let stats = engine.stats();
        assert_eq!(stats.tier_latency.len(), 3, "one summary per tier");
        let tier = |label: &str| {
            stats
                .tier_latency
                .iter()
                .find(|t| t.label == label)
                .unwrap()
                .summary
        };
        assert_eq!(tier("interactive").count, 4);
        assert_eq!(tier("standard").count, 1);
        assert_eq!(tier("batch").count, 0);
        let interactive = tier("interactive");
        assert!(interactive.p50_micros <= interactive.p95_micros);
        assert!(interactive.p95_micros <= interactive.p99_micros);
        assert!(interactive.p99_micros >= interactive.max_micros / 2);
        // All five dispatches were exact_plus (small-core upgrade).
        let exact_plus = stats
            .algorithm_latency
            .iter()
            .find(|a| a.label == "exact_plus")
            .expect("every algorithm gets a series");
        assert_eq!(exact_plus.summary.count, 5);

        // The Prometheus exposition agrees with EngineStats: same counts,
        // and the histogram quantiles reported there are the same snapshot.
        let text = engine.metrics_text();
        assert!(text.contains("sac_queries_total 5"));
        assert!(text.contains("sac_query_latency_micros_count{tier=\"interactive\"} 4"));
        assert!(text.contains(&format!(
            "sac_query_latency_micros_max{{tier=\"interactive\"}} {}",
            interactive.max_micros
        )));
        assert!(text.contains("sac_algorithm_latency_micros_count{algorithm=\"exact_plus\"} 5"));
        assert!(text.contains("# TYPE sac_query_latency_micros histogram"));
        // Stage spans recorded once per query.
        assert!(text.contains("sac_stage_micros_count{stage=\"plan\"} 5"));
        assert!(text.contains("sac_stage_micros_count{stage=\"exec\"} 5"));
    }

    #[test]
    fn percentiles_in_metrics_text_match_engine_stats() {
        // The /metrics acceptance check, engine-side: reconstruct p50/p99
        // from the exposition's cumulative buckets and compare with the
        // EngineStats summaries.
        let engine = engine();
        for i in 0..20 {
            engine.execute(&SacRequest::builder(figure3::Q, 2).id(i).build().unwrap());
        }
        let stats = engine.stats();
        let standard = stats
            .tier_latency
            .iter()
            .find(|t| t.label == "standard")
            .unwrap()
            .summary;
        assert_eq!(standard.count, 20);

        // Parse the standard-tier cumulative buckets out of the exposition.
        let text = engine.metrics_text();
        let mut buckets: Vec<(f64, u64)> = Vec::new();
        for line in text.lines() {
            if let Some(rest) =
                line.strip_prefix("sac_query_latency_micros_bucket{tier=\"standard\",le=\"")
            {
                let (le, count) = rest.split_once("\"} ").unwrap();
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                };
                buckets.push((le, count.parse().unwrap()));
            }
        }
        assert!(!buckets.is_empty());
        let total = buckets.last().unwrap().1;
        assert_eq!(total, standard.count);
        let quantile = |p: f64| {
            let rank = (p * total as f64).ceil().max(1.0) as u64;
            if rank >= total {
                return standard.max_micros as f64;
            }
            buckets
                .iter()
                .find(|(_, c)| *c >= rank)
                .map(|(le, _)| le.min(standard.max_micros as f64))
                .unwrap()
        };
        assert_eq!(quantile(0.50) as u64, standard.p50_micros);
        assert_eq!(quantile(0.99) as u64, standard.p99_micros);
    }

    #[test]
    fn slow_log_captures_over_threshold_queries() {
        let config = EngineConfig {
            slow_query_micros: 1, // everything is "slow"
            ..EngineConfig::default()
        };
        let noisy = SacEngine::with_config(Arc::new(figure3_graph()), config);
        assert_eq!(noisy.slow_log().threshold_micros(), 1);
        let response = noisy.execute(
            &SacRequest::builder(figure3::Q, 2)
                .id(7)
                .budget(QueryBudget::exact())
                .build()
                .unwrap(),
        );
        let entries = noisy.slow_log().snapshot();
        assert_eq!(entries.len(), 1);
        let entry = &entries[0];
        assert_eq!(entry.query_id, response.trace.query_id);
        assert_eq!(entry.total_micros, response.micros);
        assert_eq!(entry.plan, response.plan.label());
        assert_eq!(
            entry.tier, "batch",
            "exact budgets run under the batch tier"
        );
        assert_eq!(entry.epoch, 1);
        assert_eq!(entry.plan_micros, response.trace.plan_micros);
        assert_eq!(entry.exec_micros, response.trace.exec_micros);
        assert_eq!(entry.probe_count, response.trace.probe_count);

        // Default threshold (10ms) never trips on the tiny fixture.
        let calm = engine();
        calm.execute(&SacRequest::builder(figure3::Q, 2).id(8).build().unwrap());
        assert!(calm.slow_log().is_empty());

        // observe = false disables capture entirely.
        let dark = SacEngine::with_config(
            Arc::new(figure3_graph()),
            EngineConfig {
                observe: false,
                slow_query_micros: 1,
                ..EngineConfig::default()
            },
        );
        dark.execute(&SacRequest::builder(figure3::Q, 2).id(9).build().unwrap());
        assert!(dark.slow_log().is_empty());
        assert!(dark.stats().tier_latency.is_empty());
        assert!(dark.stats().algorithm_latency.is_empty());
    }

    #[test]
    fn dark_engines_count_but_keep_no_timings() {
        let dark = SacEngine::with_config(
            Arc::new(figure3_graph()),
            EngineConfig {
                observe: false,
                trace_sample_every: 1,
                ..EngineConfig::default()
            },
        );
        let response = dark.execute(&SacRequest::builder(figure3::Q, 2).id(1).build().unwrap());
        assert!(response.trace.tree.is_none(), "the sampler is off");
        let snapshot = dark.snapshot();
        let decomposition = sac_graph::core_decomposition(snapshot.graph());
        dark.publish(snapshot, decomposition, u32::MAX);
        let stats = dark.stats();
        assert_eq!((stats.queries, stats.epochs_published), (1, 1));
        let text = dark.metrics_text();
        assert!(text.contains("sac_queries_total 1\n"));
        assert!(text.contains("sac_epochs_published_total 1\n"));
        assert!(text.contains("sac_epoch 2\n"));
        assert!(text.contains("sac_query_latency_micros_count{tier=\"standard\"} 0\n"));
        assert!(text.contains("sac_query_latency_window_micros_count{tier=\"standard\"} 0\n"));
        assert!(text.contains("sac_publish_stage_micros_count{stage=\"epoch_swap\"} 0\n"));
        assert!(text.contains("sac_events_total 0\n"));
    }

    #[test]
    fn publish_stage_spans_tick_on_every_publish() {
        let engine = engine();
        let snapshot = engine.snapshot();
        let decomposition = sac_graph::core_decomposition(snapshot.graph());
        engine.publish(snapshot, decomposition, u32::MAX);
        let text = engine.metrics_text();
        assert!(text.contains("sac_publish_stage_micros_count{stage=\"epoch_build\"} 1"));
        assert!(text.contains("sac_publish_stage_micros_count{stage=\"epoch_swap\"} 1"));
    }

    #[test]
    fn windowed_latency_lands_in_stats_and_metrics() {
        let engine = engine();
        for i in 0..5 {
            engine.execute(&SacRequest::builder(figure3::Q, 2).id(i).build().unwrap());
        }
        let stats = engine.stats();
        assert_eq!(stats.windowed_tier_latency.len(), 3, "one series per tier");
        let windowed = stats
            .windowed_tier_latency
            .iter()
            .find(|t| t.label == "standard")
            .unwrap()
            .summary;
        // All five queries landed inside the 10s ring, so the windowed view
        // agrees with the cumulative one on a fresh engine.
        let cumulative = stats
            .tier_latency
            .iter()
            .find(|t| t.label == "standard")
            .unwrap()
            .summary;
        assert_eq!(windowed, cumulative);
        assert!(stats.window_span_micros > 0);
        assert!(stats.window_span_micros <= 10 * TELEMETRY_WINDOW_MICROS);
        // The registry renders the ring as a Prometheus summary with a qps
        // series derived from the covered span.
        let text = engine.metrics_text();
        assert!(text.contains("# TYPE sac_query_latency_window_micros summary"));
        assert!(text.contains("sac_query_latency_window_micros_count{tier=\"standard\"} 5"));
        assert!(
            text.contains("sac_query_latency_window_micros{tier=\"standard\",quantile=\"0.99\"}")
        );
        assert!(text.contains("sac_query_latency_window_micros_qps{tier=\"standard\"}"));
        // Dark engines have no windowed series.
        let dark = SacEngine::with_config(
            Arc::new(figure3_graph()),
            EngineConfig {
                observe: false,
                ..EngineConfig::default()
            },
        );
        dark.execute(&SacRequest::builder(figure3::Q, 2).id(1).build().unwrap());
        assert!(dark.stats().windowed_tier_latency.is_empty());
        assert_eq!(dark.stats().window_span_micros, 0);
    }

    #[test]
    fn trace_trees_are_sampled_and_requested() {
        let engine = SacEngine::with_config(
            Arc::new(figure3_graph()),
            EngineConfig {
                trace_sample_every: 2,
                ..EngineConfig::default()
            },
        );
        // Query id 1: unsampled, no tree unless asked for.
        let plain = engine.execute(&SacRequest::builder(figure3::Q, 2).id(1).build().unwrap());
        assert!(plain.trace.tree.is_none());
        // Query id 2: head-sampled.
        let sampled = engine.execute(&SacRequest::builder(figure3::Q, 2).id(2).build().unwrap());
        let tree = sampled.trace.tree.expect("every 2nd query is sampled");
        assert_eq!(tree.name, "query");
        assert_eq!(tree.micros, sampled.micros);
        let stages: Vec<&str> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(stages, ["plan", "exec"]);
        let plan = &tree.children[0];
        assert_eq!(plan.micros, sampled.trace.plan_micros);
        let exec = &tree.children[1];
        assert_eq!(exec.micros, sampled.trace.exec_micros);
        assert_eq!(exec.start_micros, sampled.trace.plan_micros);
        assert!(exec.children.is_empty(), "exec is a leaf");
        // Query id 3: unsampled but explicitly requested.
        let asked = engine.execute(
            &SacRequest::builder(figure3::Q, 2)
                .id(3)
                .trace(true)
                .build()
                .unwrap(),
        );
        assert!(asked.trace.tree.is_some());
        // Sampling off (0) still honours explicit requests.
        let never = SacEngine::with_config(
            Arc::new(figure3_graph()),
            EngineConfig {
                trace_sample_every: 0,
                ..EngineConfig::default()
            },
        );
        for i in 1..=4u64 {
            assert!(never
                .execute(&SacRequest::builder(figure3::Q, 2).id(i).build().unwrap())
                .trace
                .tree
                .is_none());
        }
        let asked = never.execute(
            &SacRequest::builder(figure3::Q, 2)
                .id(9)
                .trace(true)
                .build()
                .unwrap(),
        );
        assert!(asked.trace.tree.is_some());
    }

    #[test]
    fn slow_log_entries_carry_a_trace_tree() {
        let noisy = SacEngine::with_config(
            Arc::new(figure3_graph()),
            EngineConfig {
                slow_query_micros: 1,
                trace_sample_every: 0,
                ..EngineConfig::default()
            },
        );
        let response = noisy.execute(&SacRequest::builder(figure3::Q, 2).id(1).build().unwrap());
        assert!(response.trace.tree.is_none(), "not sampled, not requested");
        let entries = noisy.slow_log().snapshot();
        let tree = entries[0].trace.as_ref().expect("slow queries get a tree");
        assert_eq!(tree.name, "query");
        assert_eq!(tree.micros, response.micros);
        assert_eq!(tree.children.len(), 2);
        assert!(tree.render().starts_with("query:"));
    }

    #[test]
    fn slowlog_capacity_is_configurable() {
        let tiny = SacEngine::with_config(
            Arc::new(figure3_graph()),
            EngineConfig {
                slow_query_micros: 1,
                slowlog_capacity: 2,
                ..EngineConfig::default()
            },
        );
        for i in 0..5 {
            tiny.execute(&SacRequest::builder(figure3::Q, 2).id(i).build().unwrap());
        }
        assert_eq!(tiny.slow_log().len(), 2);
        assert_eq!(tiny.slow_log().dropped(), 3);
        let ids: Vec<u64> = tiny
            .slow_log()
            .snapshot()
            .iter()
            .map(|r| r.query_id)
            .collect();
        assert_eq!(ids, vec![4, 5], "the ring keeps the most recent entries");
    }

    #[test]
    fn terms_never_go_back() {
        // A replica tailer may stamp its observed term after promotion
        // raised the engine past it; the stale stamp must not win.
        let engine = engine();
        engine.set_term(3);
        engine.set_term(1);
        assert_eq!(engine.term(), 3);
        engine.set_term(4);
        assert_eq!(engine.term(), 4);
    }

    #[test]
    fn events_record_epoch_swaps() {
        let engine = engine();
        assert!(engine.events().is_empty());
        // Queries publish no events.
        engine.execute(
            &SacRequest::builder(figure3::Q, 2)
                .id(1)
                .algorithm("global")
                .build()
                .unwrap(),
        );
        assert!(engine.events().is_empty());
        let snapshot = engine.snapshot();
        let decomposition = sac_graph::core_decomposition(snapshot.graph());
        engine.publish(snapshot, decomposition, u32::MAX);
        let batch = engine.events().since(0);
        assert_eq!(batch.missed, 0);
        let kinds: Vec<&str> = batch.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["epoch_swap"]);
        // The `global` query read Step 1 from the k = 2 index it built; the
        // full invalidation drops that index.
        assert_eq!(batch.events[0].detail, "epoch=2 carried=0 invalidated=1");
        // The cursor tails: nothing new since the last batch.
        assert!(engine.events().since(batch.next_seq).events.is_empty());
        // Dark engines publish nothing.
        let dark = SacEngine::with_config(
            Arc::new(figure3_graph()),
            EngineConfig {
                observe: false,
                ..EngineConfig::default()
            },
        );
        let snapshot = dark.snapshot();
        let decomposition = sac_graph::core_decomposition(snapshot.graph());
        dark.publish(snapshot, decomposition, u32::MAX);
        assert!(dark.events().is_empty());
    }

    #[test]
    fn theta_budgets_dispatch_theta_sac() {
        let engine = engine();
        let request = SacRequest::builder(figure3::Q, 2)
            .id(8)
            .budget(
                QueryBudget::balanced()
                    .with_theta(10.0)
                    .with_tier(LatencyTier::Batch),
            )
            .build()
            .unwrap();
        let response = engine.execute(&request);
        assert!(response.plan.dispatches("theta_sac"));
        assert_eq!(response.plan.label(), "theta_sac(theta=10)");
        assert_eq!(response.trace.guaranteed_ratio, None);
        let direct = theta_sac(&figure3_graph(), figure3::Q, 2, 10.0)
            .unwrap()
            .unwrap();
        assert_eq!(response.community().unwrap().members(), direct.members());
    }
}
