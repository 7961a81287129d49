//! The serving engine: epoch-published immutable graph snapshots, the shared
//! k-core cache, the planner, and a concurrent batch executor.

use crate::cache::{CacheLayerStats, CacheStats, KCoreCache, KCoreComponents};
use crate::epoch::EpochCell;
use crate::planner::{LatencyTier, Plan, PlanContext, PlannedQuery, Planner, QueryBudget};
use sac_core::{AlgorithmRegistry, Community, SacError, SearchContext, EXACT_PLUS_EPS_A};
use sac_graph::{CoreDecomposition, SpatialGraph, SweepStats, VertexId};
use sac_obs::{
    EventLog, Histogram, LatencySummary, MetricsRegistry, SlowQueryLog, SlowQueryRecord, Span,
    TraceNode, WindowedHistogram,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Tunables of a [`SacEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Connected-k-core size at or below which the planner upgrades any
    /// unconstrained budget to `Exact+` (the candidate set is so small that an
    /// exact answer costs no more than an approximate one).
    pub small_exact_threshold: usize,
    /// `εA` used inside `Exact+` plans (the paper's exact-experiment value).
    pub exact_eps_a: f64,
    /// Whether the engine records latency histograms and stage spans (see
    /// [`SacEngine::metrics`]).  On by default — recording is a handful of
    /// relaxed atomic adds per query (the bench gate pins the dispatch
    /// overhead at ≤1.05x) — but the overhead benchmark itself, and any
    /// caller that wants the absolute minimum hot path, can switch it off.
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
            exact_eps_a: EXACT_PLUS_EPS_A,
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
    /// Explicit algorithm override: when set, the planner dispatches this
    /// registry name directly (default parameters, no small-core upgrade, no
    /// cache-infeasibility short-circuit), which makes otherwise unreachable
    /// registrations — e.g. the `global`/`local` baselines — A/B-testable
    /// against the planned path.
    pub algorithm: Option<String>,
    /// Requests a full [`TraceNode`] span tree on the response regardless of
    /// the engine's head-sampling rate ([`EngineConfig::trace_sample_every`]).
    pub trace: bool,
}

impl SacRequest {
    /// A request with the default (balanced) budget.
    pub fn new(id: u64, q: VertexId, k: u32) -> Self {
        SacRequest {
            id,
            q,
            k,
            budget: QueryBudget::default(),
            algorithm: None,
            trace: false,
        }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Forces the named registry algorithm instead of planner selection.
    pub fn with_algorithm(mut self, algorithm: impl Into<String>) -> Self {
        self.algorithm = Some(algorithm.into());
        self
    }

    /// Requests a span tree on the response (see [`SacRequest::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

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

    /// Forces the named registry algorithm instead of planner selection (see
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
    /// lookup, profile selection).
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
    /// amortisation denominator: from-scratch probing would pay a range query
    /// *per probe*, the sweep pays one candidate view per sweep.
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
    /// Cache counters, cumulative across all epochs (retired epochs' counters
    /// are folded in when a new snapshot is published).
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
    /// registry order.  Empty when observation is disabled.
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
    /// Series label: the tier wire name or the registry algorithm name.
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
    /// Microseconds spent swapping the epoch pointer (and folding the
    /// retired epoch's cache counters).
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
/// serving layers above, pre-bound instrument handles for the dispatch hot
/// path (no registry lock is ever taken per query), the slow-query ring and
/// the query-id source.
#[derive(Debug)]
struct EngineObs {
    /// Whether the hot path records at all ([`EngineConfig::observe`]).
    enabled: bool,
    registry: Arc<MetricsRegistry>,
    /// End-to-end latency per tier, indexed by [`LatencyTier::index`].
    tier_latency: [Arc<Histogram>; 3],
    /// Windowed ("last 10s") end-to-end latency per tier, same indexing.
    tier_window: [Arc<WindowedHistogram>; 3],
    /// End-to-end latency per registered algorithm, in registry order
    /// (linear scan — registries hold a handful of entries).
    algo_latency: Vec<(&'static str, Arc<Histogram>)>,
    /// Planning sub-span (budget validation + cache feasibility + profile
    /// selection).
    plan_stage: Arc<Histogram>,
    /// Execution sub-span (the dispatched algorithm itself).
    exec_stage: Arc<Histogram>,
    /// Publish-pipeline sub-spans: building the next epoch (component
    /// carry-over + cache seeding) and the epoch pointer swap (+
    /// retired-counter fold).
    publish_rebuild: Arc<Histogram>,
    publish_swap: Arc<Histogram>,
    slow_log: SlowQueryLog,
    /// Sequence-numbered control-plane events (epoch swaps).
    events: Arc<EventLog>,
    /// Head-sampling rate for trace trees (0 = sampling off).
    trace_sample_every: u64,
    query_ids: AtomicU64,
}

impl EngineObs {
    fn new(config: &EngineConfig, algorithms: &[&'static str]) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
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
        let algo_latency = algorithms
            .iter()
            .map(|&name| {
                (
                    name,
                    registry.histogram(
                        "sac_algorithm_latency_micros",
                        ALGO_HELP,
                        &[("algorithm", name)],
                    ),
                )
            })
            .collect();
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
            enabled: config.observe,
            tier_latency,
            tier_window,
            algo_latency,
            plan_stage: stage("plan"),
            exec_stage: stage("exec"),
            publish_rebuild: publish("epoch_build"),
            publish_swap: publish("epoch_swap"),
            slow_log: SlowQueryLog::new(
                config.slowlog_capacity,
                if config.observe {
                    config.slow_query_micros
                } else {
                    0
                },
            ),
            events: Arc::new(EventLog::new(EVENT_LOG_CAPACITY)),
            trace_sample_every: config.trace_sample_every,
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
/// let request = SacRequest::new(0, sac_core::fixtures::figure3::Q, 2)
///     .with_budget(QueryBudget::exact());
/// let response = engine.execute(&request);
/// let community = response.community().expect("Q has a 2-core community");
/// assert!(community.contains(sac_core::fixtures::figure3::Q));
/// ```
#[derive(Debug)]
pub struct SacEngine {
    epoch: EpochCell<EngineEpoch>,
    planner: Planner,
    queries: AtomicU64,
    infeasible_fast_path: AtomicU64,
    errors: AtomicU64,
    epochs_published: AtomicU64,
    components_carried: AtomicU64,
    components_invalidated: AtomicU64,
    /// Cache counters of retired epochs, folded in at publish time so
    /// [`EngineStats::cache`] stays cumulative across swaps.
    retired_cache: Mutex<CacheStats>,
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

    /// An engine with custom tunables over the built-in algorithm registry.
    pub fn with_config(graph: Arc<SpatialGraph>, config: EngineConfig) -> Self {
        SacEngine::with_registry(graph, config, Arc::new(AlgorithmRegistry::builtin()))
    }

    /// An engine serving the algorithms of a caller-supplied registry: the
    /// planner selects over the registered profiles and every query arm
    /// dispatches by name, so registering an algorithm is all it takes to
    /// serve it.
    pub fn with_registry(
        graph: Arc<SpatialGraph>,
        config: EngineConfig,
        registry: Arc<AlgorithmRegistry>,
    ) -> Self {
        SacEngine::assemble(graph, config, registry, 1)
    }

    /// An engine rebuilt from recovered state: serves `graph` as epoch
    /// `epoch` (crash recovery and replica bootstrap resume the epoch
    /// sequence where the recovered state left it).
    pub fn restored(graph: Arc<SpatialGraph>, config: EngineConfig, epoch: u64) -> Self {
        SacEngine::assemble(
            graph,
            config,
            Arc::new(AlgorithmRegistry::builtin()),
            epoch.max(1),
        )
    }

    fn assemble(
        graph: Arc<SpatialGraph>,
        config: EngineConfig,
        registry: Arc<AlgorithmRegistry>,
        epoch: u64,
    ) -> Self {
        let obs = EngineObs::new(&config, &registry.names());
        SacEngine {
            epoch: EpochCell::new(Arc::new(EngineEpoch {
                number: epoch,
                graph,
                cache: KCoreCache::new(),
            })),
            planner: Planner::new(registry, config.small_exact_threshold, config.exact_eps_a),
            queries: AtomicU64::new(0),
            infeasible_fast_path: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            epochs_published: AtomicU64::new(0),
            components_carried: AtomicU64::new(0),
            components_invalidated: AtomicU64::new(0),
            retired_cache: Mutex::new(CacheStats::default()),
            term: AtomicU64::new(0),
            obs,
        }
    }

    /// The algorithm registry this engine dispatches into.
    pub fn registry(&self) -> &Arc<AlgorithmRegistry> {
        self.planner.registry()
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

    /// Stamps the leadership term.  Called by the failover layer at boot
    /// (from the recovered WAL) and on replica promotion (bumped past the
    /// observed term); the commit path stamps the current value into every
    /// WAL record it appends.
    pub fn set_term(&self, term: u64) {
        self.term.store(term, Ordering::Release);
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
        let rebuild_span = if self.obs.enabled {
            Span::start(&self.obs.publish_rebuild)
        } else {
            Span::disabled()
        };
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
            cache: KCoreCache::seeded(Arc::new(decomposition), surviving),
        };
        let rebuild_micros = rebuild_span.finish();
        let swap_span = if self.obs.enabled {
            Span::start(&self.obs.publish_swap)
        } else {
            Span::disabled()
        };
        // Swap and fold the retired epoch's cache counters under the same
        // lock `stats()` takes, so a concurrent reader never sees the retired
        // epoch both folded into the total and still live (double-counted).
        // A poisoned lock is recovered, not propagated: the accumulator is a
        // plain `Copy` value that is never left half-written, and wedging
        // every future publish (and the stats/metrics endpoints) on a dead
        // worker's panic would turn one bad query into a stuck server.
        {
            let mut acc = self.retired_cache.lock().unwrap_or_else(|e| e.into_inner());
            let retired = self.epoch.swap(Arc::new(next));
            *acc = add_cache_stats(*acc, retired.cache.stats());
        }
        let swap_micros = swap_span.finish();
        self.epochs_published.fetch_add(1, Ordering::Relaxed);
        self.components_carried
            .fetch_add(carried, Ordering::Relaxed);
        self.components_invalidated
            .fetch_add(invalidated, Ordering::Relaxed);
        if self.obs.enabled {
            self.obs.events.publish(
                "epoch_swap",
                format!("epoch={next_number} carried={carried} invalidated={invalidated}"),
            );
        }
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
        if self.obs.enabled {
            self.obs.plan_stage.record(plan_micros);
        }
        let exec_start = Instant::now();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let (plan, outcome, sweep) = match plan_result {
            Err(e) => (Plan::Rejected, Err(e), SweepStats::default()),
            Ok(plan) => {
                let (outcome, sweep) = self.dispatch(epoch, &plan);
                (plan, outcome, sweep)
            }
        };
        match &outcome {
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) if plan == Plan::Infeasible => {
                self.infeasible_fast_path.fetch_add(1, Ordering::Relaxed);
            }
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
        let sampled = self.obs.enabled && sample_every > 0 && query_id.is_multiple_of(sample_every);
        let tree = if request.trace || sampled {
            Some(build_tree())
        } else {
            None
        };
        if self.obs.enabled {
            self.obs.exec_stage.record(exec_micros);
            self.obs.tier_latency[request.budget.tier.index()].record(total_micros);
            self.obs.tier_window[request.budget.tier.index()].record(total_micros);
            if let Plan::Execute(planned) = &plan {
                if let Some((_, hist)) = self
                    .obs
                    .algo_latency
                    .iter()
                    .find(|(name, _)| *name == planned.algorithm)
                {
                    hist.record(total_micros);
                }
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
        }
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

    /// Runs the planned algorithm by looking it up in the registry — the
    /// engine has no per-algorithm dispatch arms.  Every registered
    /// implementation runs the same `sac_core` entry point a direct caller
    /// would use, so engine answers are bit-identical to library answers (the
    /// equivalence suite asserts this); the [`SearchContext`] carries the
    /// epoch's memoised decomposition, so k-ĉore-extracting algorithms skip
    /// the `O(m)` peel.
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
        let Some(algorithm) = self.planner.registry().get(planned.algorithm) else {
            return (
                Err(SacError::UnknownAlgorithm(planned.algorithm.to_string())),
                SweepStats::default(),
            );
        };
        let graph: &SpatialGraph = &epoch.graph;
        // Only k-ĉore-extracting algorithms consume the shared decomposition;
        // the rest (theta_sac, app_inc, ...) must not force the `O(m)` peel
        // on a cold cache for nothing.
        let ctx = if algorithm.profile().shares_decomposition {
            SearchContext::with_decomposition(
                graph,
                planned.query.q,
                planned.query.k,
                epoch.cache.decomposition(graph.graph()),
            )
        } else {
            SearchContext::new(graph, planned.query.q, planned.query.k)
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

    /// Current serving counters (cache counters cumulative across epochs).
    pub fn stats(&self) -> EngineStats {
        // Read the accumulator and the live epoch under the accumulator's
        // lock (publish folds + swaps under the same lock), so an epoch's
        // counters are never counted both as retired and as live.  Recover a
        // poisoned lock (see `publish_at`): stats and metrics endpoints
        // must keep answering after a worker panic.
        let (retired, epoch) = {
            let acc = self.retired_cache.lock().unwrap_or_else(|e| e.into_inner());
            (*acc, self.epoch.load())
        };
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            infeasible_fast_path: self.infeasible_fast_path.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache: add_cache_stats(retired, epoch.cache.stats()),
            epoch: epoch.number,
            term: self.term.load(Ordering::Acquire),
            epochs_published: self.epochs_published.load(Ordering::Relaxed),
            components_carried: self.components_carried.load(Ordering::Relaxed),
            components_invalidated: self.components_invalidated.load(Ordering::Relaxed),
            tier_latency: if self.obs.enabled {
                LatencyTier::ALL
                    .iter()
                    .map(|tier| LatencyStats {
                        label: tier.as_str(),
                        summary: LatencySummary::from_snapshot(
                            &self.obs.tier_latency[tier.index()].snapshot(),
                        ),
                    })
                    .collect()
            } else {
                Vec::new()
            },
            algorithm_latency: if self.obs.enabled {
                self.obs
                    .algo_latency
                    .iter()
                    .map(|(name, hist)| LatencyStats {
                        label: name,
                        summary: LatencySummary::from_snapshot(&hist.snapshot()),
                    })
                    .collect()
            } else {
                Vec::new()
            },
            windowed_tier_latency: if self.obs.enabled {
                LatencyTier::ALL
                    .iter()
                    .map(|tier| LatencyStats {
                        label: tier.as_str(),
                        summary: self.obs.tier_window[tier.index()].snapshot().summary(),
                    })
                    .collect()
            } else {
                Vec::new()
            },
            window_span_micros: if self.obs.enabled {
                // All three rings share a geometry; report the widest span so
                // `count / span` never overstates the rate.
                self.obs
                    .tier_window
                    .iter()
                    .map(|w| w.snapshot().span_micros)
                    .max()
                    .unwrap_or(0)
            } else {
                0
            },
        }
    }

    /// The metric registry the engine (and, by shared registration, the
    /// serving layers above) records into: per-tier and per-algorithm
    /// latency histograms, dispatch stage spans and publish-pipeline spans.
    /// Present — but silent — when observation is disabled.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs.registry
    }

    /// Whether the engine records into its metric registry
    /// ([`EngineConfig::observe`]); layers registering their own series
    /// should honour this too.
    pub fn observing(&self) -> bool {
        self.obs.enabled
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
    /// Present — but silent — when observation is disabled.
    pub fn events(&self) -> &Arc<EventLog> {
        &self.obs.events
    }

    /// Prometheus text exposition of everything the engine knows: the
    /// `EngineStats` counters/gauges plus every series of [`SacEngine::metrics`]
    /// — the payload of the HTTP `GET /metrics` endpoint.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let stats = self.stats();
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "sac_queries_total",
            "Queries answered (including errors)",
            stats.queries,
        );
        counter(
            "sac_query_errors_total",
            "Queries that returned a per-query error",
            stats.errors,
        );
        counter(
            "sac_infeasible_fast_path_total",
            "Queries short-circuited by the cache feasibility check",
            stats.infeasible_fast_path,
        );
        counter(
            "sac_epochs_published_total",
            "Snapshots published over the engine lifetime",
            stats.epochs_published,
        );
        counter(
            "sac_cache_decomposition_hits_total",
            "Core-decomposition cache hits",
            stats.cache.decomposition.hits,
        );
        counter(
            "sac_cache_decomposition_misses_total",
            "Core-decomposition cache misses",
            stats.cache.decomposition.misses,
        );
        counter(
            "sac_cache_components_hits_total",
            "Per-k component index cache hits",
            stats.cache.components.hits,
        );
        counter(
            "sac_cache_components_misses_total",
            "Per-k component index cache misses",
            stats.cache.components.misses,
        );
        counter(
            "sac_components_carried_total",
            "Per-k component indexes carried across epoch swaps",
            stats.components_carried,
        );
        counter(
            "sac_components_invalidated_total",
            "Per-k component indexes dropped at epoch swaps",
            stats.components_invalidated,
        );
        counter(
            "sac_slow_queries_dropped_total",
            "Slow-query records evicted from the ring buffer",
            self.obs.slow_log.dropped(),
        );
        counter(
            "sac_events_total",
            "Control-plane events published over the engine lifetime",
            self.obs.events.next_seq(),
        );
        let mut gauge = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge("sac_epoch", "Currently served epoch number", stats.epoch);
        gauge(
            "sac_slow_queries",
            "Slow-query records currently in the ring buffer",
            self.obs.slow_log.len() as u64,
        );
        gauge(
            "sac_events_retained",
            "Control-plane events currently in the event ring",
            self.obs.events.len() as u64,
        );
        out.push_str(&self.obs.registry.render_prometheus());
        out
    }
}

fn add_cache_stats(a: CacheStats, b: CacheStats) -> CacheStats {
    fn add_layer(a: CacheLayerStats, b: CacheLayerStats) -> CacheLayerStats {
        CacheLayerStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
        }
    }
    CacheStats {
        decomposition: add_layer(a.decomposition, b.decomposition),
        components: add_layer(a.components, b.components),
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
    use sac_core::{exact_plus, theta_sac};

    fn engine() -> SacEngine {
        SacEngine::new(figure3_graph())
    }

    #[test]
    fn exact_budget_returns_paper_answer() {
        let engine = engine();
        let response =
            engine.execute(&SacRequest::new(1, figure3::Q, 2).with_budget(QueryBudget::exact()));
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
        let response = engine.execute(&SacRequest::new(2, figure3::I, 2));
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
            let response = engine.execute(&SacRequest::new(9, figure3::Q, k));
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
        let response = engine.execute(&SacRequest::new(3, figure3::I, 0));
        let community = response.community().expect("k=0 is always feasible");
        assert_eq!(community.members(), &[figure3::I]);
    }

    #[test]
    fn second_query_hits_the_cache() {
        let engine = engine();
        let req = SacRequest::new(4, figure3::Q, 2);
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
        let out_of_range = engine.execute(&SacRequest::new(5, 999, 2));
        assert_eq!(out_of_range.plan, Plan::Rejected);
        assert_eq!(
            out_of_range.outcome,
            Err(SacError::QueryVertexOutOfRange(999))
        );
        let bad_budget = engine.execute(
            &SacRequest::new(6, figure3::Q, 2).with_budget(QueryBudget::within_ratio(0.2)),
        );
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
                SacRequest::new(i as u64, q, 2)
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
            .plan_for(&SacRequest::new(7, figure3::Q, 2).with_budget(QueryBudget::interactive()))
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
            sac_graph::SpatialGraph::new(dynamic.to_graph(), old_snapshot.positions().to_vec())
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
    fn stats_accumulate_across_epochs() {
        let engine = engine();
        let req = SacRequest::new(1, figure3::Q, 2);
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
        // decomposition (k < 2) and theta_sac declares it does not consume
        // one — so a cold engine must not pay the O(m) peel for it.
        let response = engine.execute(
            &SacRequest::new(1, figure3::Q, 0).with_budget(QueryBudget::balanced().with_theta(5.0)),
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
        let response =
            engine.execute(&SacRequest::new(1, figure3::Q, 2).with_budget(QueryBudget::exact()));
        assert!(response.trace.probe_count > 0, "exact_plus probes circles");
        assert!(response.trace.candidate_count > 0);
        // Algorithms that build their context internally in the free-function
        // form still surface counters through the engine's context (app_inc
        // collects into a sweep, exact probes triple circles).
        for name in ["app_inc", "exact", "app_fast", "app_acc"] {
            let response = engine.execute(&SacRequest::new(3, figure3::Q, 2).with_algorithm(name));
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
        let infeasible = engine.execute(&SacRequest::new(2, figure3::I, 2));
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
        let request = SacRequest::new(12, figure3::I, 2).with_algorithm("app_inc");
        let response = engine.execute(&request);
        assert!(response.plan.dispatches("app_inc"));
        assert_eq!(response.outcome, Ok(None));
        assert_eq!(engine.stats().infeasible_fast_path, 0);

        // Unknown overrides are typed per-query errors.
        let response = engine.execute(&SacRequest::new(13, figure3::Q, 2).with_algorithm("nope"));
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
            let response = engine.execute(&SacRequest::new(0, figure3::Q, 2));
            assert_eq!(response.trace.query_id, expected);
        }
        // Batch execution draws from the same per-engine sequence: ids stay
        // unique and cover the next contiguous range (order is unspecified).
        let requests: Vec<SacRequest> = (0..8).map(|i| SacRequest::new(i, figure3::Q, 2)).collect();
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
                &SacRequest::new(1, figure3::Q, 2)
                    .with_budget(QueryBudget::exact().with_tier(LatencyTier::Interactive)),
            );
        }
        engine.execute(&SacRequest::new(2, figure3::Q, 2));
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
            .expect("registered algorithms get a series");
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
            engine.execute(&SacRequest::new(i, figure3::Q, 2));
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
        let response =
            noisy.execute(&SacRequest::new(7, figure3::Q, 2).with_budget(QueryBudget::exact()));
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
        calm.execute(&SacRequest::new(8, figure3::Q, 2));
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
        dark.execute(&SacRequest::new(9, figure3::Q, 2));
        assert!(dark.slow_log().is_empty());
        assert!(dark.stats().tier_latency.is_empty());
        assert!(dark.stats().algorithm_latency.is_empty());
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
            engine.execute(&SacRequest::new(i, figure3::Q, 2));
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
        dark.execute(&SacRequest::new(1, figure3::Q, 2));
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
        let plain = engine.execute(&SacRequest::new(1, figure3::Q, 2));
        assert!(plain.trace.tree.is_none());
        // Query id 2: head-sampled.
        let sampled = engine.execute(&SacRequest::new(2, figure3::Q, 2));
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
        let asked = engine.execute(&SacRequest::new(3, figure3::Q, 2).with_trace());
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
                .execute(&SacRequest::new(i, figure3::Q, 2))
                .trace
                .tree
                .is_none());
        }
        let asked = never.execute(&SacRequest::new(9, figure3::Q, 2).with_trace());
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
        let response = noisy.execute(&SacRequest::new(1, figure3::Q, 2));
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
            tiny.execute(&SacRequest::new(i, figure3::Q, 2));
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
    fn events_record_epoch_swaps() {
        let engine = engine();
        assert!(engine.events().is_empty());
        // Queries publish no events.
        engine.execute(&SacRequest::new(1, figure3::Q, 2).with_algorithm("global"));
        assert!(engine.events().is_empty());
        let snapshot = engine.snapshot();
        let decomposition = sac_graph::core_decomposition(snapshot.graph());
        engine.publish(snapshot, decomposition, u32::MAX);
        let batch = engine.events().since(0);
        assert_eq!(batch.missed, 0);
        let kinds: Vec<&str> = batch.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["epoch_swap"]);
        assert_eq!(batch.events[0].detail, "epoch=2 carried=0 invalidated=0");
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
        let request = SacRequest::new(8, figure3::Q, 2).with_budget(
            QueryBudget::balanced()
                .with_theta(10.0)
                .with_tier(LatencyTier::Batch),
        );
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
