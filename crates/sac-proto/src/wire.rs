//! The typed wire protocol: request/response enums plus the JSON codec.
//!
//! Every transport (the `sac-serve` LDJSON loop, the `sac-http` HTTP/1.1
//! front end) decodes bytes into a [`ProtoRequest`], hands it to the shared
//! service, and encodes the returned [`ProtoResponse`] — the transports never
//! touch engine types directly, so the two front ends cannot drift apart (an
//! integration test asserts their payloads are byte-identical).

use crate::json::{obj, Json, ObjectWriter};
use sac_engine::{
    EngineStats, EventBatch, LatencyStats, SacRequest, SacResponse, SlowQueryRecord, TraceNode,
};
use std::fmt;

/// A wire-level decode failure (malformed JSON is reported separately by
/// [`Json::parse`]; this covers structurally invalid requests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Human-readable description, echoed to the client.
    pub message: String,
}

impl ProtoError {
    /// A decode failure with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        ProtoError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

/// One SAC query as it appears on the wire: required vertex and degree bound,
/// optional id and budget fields.
///
/// Budget *values* are not validated here — [`QuerySpec::to_request`] routes
/// them through the engine's validating [`SacRequest::builder`], so invalid
/// budgets surface as typed per-query errors rather than transport errors.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Caller-chosen id (a transport-assigned fallback is used when absent).
    pub id: Option<u64>,
    /// Query vertex.
    pub q: u32,
    /// Minimum degree constraint.
    pub k: u32,
    /// Largest acceptable approximation ratio.
    pub ratio: Option<f64>,
    /// Latency tier wire name (`interactive` | `standard` | `batch`).
    pub tier: Option<sac_engine::LatencyTier>,
    /// θ radius constraint (requests the radius-constrained variant).
    pub theta: Option<f64>,
    /// Explicit algorithm override (an `Algorithm` wire name): dispatches
    /// that algorithm directly instead of planner selection, making the
    /// baselines A/B-testable over the wire.  Unknown names become typed per-query
    /// errors.
    pub algorithm: Option<String>,
    /// Requests a full span tree on the reply (`"trace":true`) regardless of
    /// the engine's head-sampling rate.  The tree rides the wire only when
    /// the transport encodes timing fields.
    pub trace: bool,
}

impl QuerySpec {
    /// A spec with only the required fields set.
    pub fn new(q: u32, k: u32) -> Self {
        QuerySpec {
            id: None,
            q,
            k,
            ratio: None,
            tier: None,
            theta: None,
            algorithm: None,
            trace: false,
        }
    }

    /// Decodes one request object.
    pub fn from_json(value: &Json) -> Result<QuerySpec, ProtoError> {
        let q = value
            .get("q")
            .and_then(Json::as_u64)
            .ok_or_else(|| ProtoError::new("missing or invalid field 'q'"))?;
        let k = value
            .get("k")
            .and_then(Json::as_u64)
            .ok_or_else(|| ProtoError::new("missing or invalid field 'k'"))?;
        if q > u32::MAX as u64 || k > u32::MAX as u64 {
            return Err(ProtoError::new("'q' and 'k' must fit in 32 bits"));
        }
        let mut spec = QuerySpec::new(q as u32, k as u32);
        spec.id = value.get("id").and_then(Json::as_u64);
        if let Some(ratio) = value.get("ratio") {
            spec.ratio = Some(
                ratio
                    .as_f64()
                    .ok_or_else(|| ProtoError::new("field 'ratio' must be a number"))?,
            );
        }
        if let Some(tier) = value.get("tier") {
            let name = tier
                .as_str()
                .ok_or_else(|| ProtoError::new("field 'tier' must be a string"))?;
            spec.tier = Some(name.parse().map_err(|e| ProtoError::new(format!("{e}")))?);
        }
        match value.get("theta") {
            None => {}
            Some(theta) if theta.is_null() => {}
            Some(theta) => {
                spec.theta = Some(
                    theta
                        .as_f64()
                        .ok_or_else(|| ProtoError::new("field 'theta' must be a number"))?,
                );
            }
        }
        match value.get("algorithm") {
            None => {}
            Some(algorithm) if algorithm.is_null() => {}
            Some(algorithm) => {
                spec.algorithm = Some(
                    algorithm
                        .as_str()
                        .ok_or_else(|| ProtoError::new("field 'algorithm' must be a string"))?
                        .to_string(),
                );
            }
        }
        match value.get("trace") {
            None => {}
            Some(trace) if trace.is_null() => {}
            Some(trace) => {
                spec.trace = trace
                    .as_bool()
                    .ok_or_else(|| ProtoError::new("field 'trace' must be a boolean"))?;
            }
        }
        Ok(spec)
    }

    /// Builds the validated engine request (typed budget errors from the
    /// engine's [`SacRequest::builder`]), using `fallback_id` when the spec
    /// carries no id.
    pub fn to_request(&self, fallback_id: u64) -> Result<SacRequest, sac_core::SacError> {
        let mut builder = SacRequest::builder(self.q, self.k).id(self.id.unwrap_or(fallback_id));
        if let Some(ratio) = self.ratio {
            builder = builder.ratio(ratio);
        }
        if let Some(tier) = self.tier {
            builder = builder.tier(tier);
        }
        if let Some(theta) = self.theta {
            builder = builder.theta(theta);
        }
        if let Some(algorithm) = &self.algorithm {
            builder = builder.algorithm(algorithm.clone());
        }
        builder.trace(self.trace).build()
    }

    /// The id this spec resolves to under `fallback_id`.
    pub fn resolved_id(&self, fallback_id: u64) -> u64 {
        self.id.unwrap_or(fallback_id)
    }
}

/// A decoded protocol request: one query, a batch, or an admin/live command.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoRequest {
    /// One SAC query.
    Query(QuerySpec),
    /// A batch of queries, fanned across the service's worker threads.
    Batch(Vec<QuerySpec>),
    /// Serving counters and snapshot facts.
    Stats,
    /// The full metrics exposition (Prometheus text format).
    Metrics,
    /// The slow-query log: recent queries over the configured threshold.
    SlowLog,
    /// Tail the control-plane event log from a cursor (`since`, default 0).
    Events {
        /// Return events with sequence number `>= since`.
        since: u64,
    },
    /// Pre-build the k-core indexes for these `k`.
    Warm(Vec<u32>),
    /// Structural query: the connected k-core containing `q`.
    Core {
        /// Query vertex.
        q: u32,
        /// Minimum degree constraint.
        k: u32,
    },
    /// Live update: insert the undirected edge `{u, v}`.
    AddEdge {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
    },
    /// Live update: remove the undirected edge `{u, v}`.
    RemoveEdge {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
    },
    /// Live update: add a vertex at `(x, y)`.
    AddVertex {
        /// X coordinate.
        x: f64,
        /// Y coordinate.
        y: f64,
    },
    /// Live update: move vertex `v` to `(x, y)` (position-only; commits
    /// publishing it are position-only epochs with no core maintenance).
    MoveVertex {
        /// The vertex to move.
        v: u32,
        /// New x coordinate.
        x: f64,
        /// New y coordinate.
        y: f64,
    },
    /// Publish the buffered live updates as a new snapshot epoch.
    Commit {
        /// Attach a span tree of the commit pipeline to the reply
        /// (`"trace":true`; rides the wire only when timing is encoded).
        trace: bool,
    },
    /// Admin: force a snapshot checkpoint of the served epoch and truncate
    /// log segments the snapshot covers (errors when the engine runs
    /// without durability).
    Checkpoint,
    /// End the session.
    Quit,
}

/// Reads a pair of named `u32` fields (`'u'`/`'v'`, `'q'`/`'k'`...).
fn u32_pair(value: &Json, cmd: &str, a: &str, b: &str) -> Result<(u32, u32), ProtoError> {
    let (Some(x), Some(y)) = (
        value.get(a).and_then(Json::as_u64),
        value.get(b).and_then(Json::as_u64),
    ) else {
        return Err(ProtoError::new(format!(
            "'{cmd}' needs numeric fields '{a}' and '{b}'"
        )));
    };
    if x > u32::MAX as u64 || y > u32::MAX as u64 {
        return Err(ProtoError::new(format!(
            "'{a}' and '{b}' must fit in 32 bits"
        )));
    }
    Ok((x as u32, y as u32))
}

impl ProtoRequest {
    /// Decodes one protocol document (an object or a batch array).
    pub fn from_json(value: &Json) -> Result<ProtoRequest, ProtoError> {
        if let Some(items) = value.as_array() {
            return items
                .iter()
                .map(QuerySpec::from_json)
                .collect::<Result<Vec<_>, _>>()
                .map(ProtoRequest::Batch);
        }
        let Some(cmd) = value.get("cmd").and_then(Json::as_str) else {
            return QuerySpec::from_json(value).map(ProtoRequest::Query);
        };
        match cmd {
            "quit" | "shutdown" => Ok(ProtoRequest::Quit),
            "stats" => Ok(ProtoRequest::Stats),
            "metrics" => Ok(ProtoRequest::Metrics),
            "slowlog" => Ok(ProtoRequest::SlowLog),
            "events" => {
                let since = match value.get("since") {
                    None => 0,
                    Some(since) => since
                        .as_u64()
                        .ok_or_else(|| ProtoError::new("field 'since' must be an integer"))?,
                };
                Ok(ProtoRequest::Events { since })
            }
            "commit" => {
                let trace = match value.get("trace") {
                    None => false,
                    Some(trace) if trace.is_null() => false,
                    Some(trace) => trace
                        .as_bool()
                        .ok_or_else(|| ProtoError::new("field 'trace' must be a boolean"))?,
                };
                Ok(ProtoRequest::Commit { trace })
            }
            "checkpoint" => Ok(ProtoRequest::Checkpoint),
            "warm" => {
                let ks = value
                    .get("ks")
                    .and_then(Json::as_array)
                    .map(|items| {
                        items
                            .iter()
                            .map(|item| {
                                item.as_u64()
                                    .filter(|&k| k <= u32::MAX as u64)
                                    .map(|k| k as u32)
                            })
                            .collect::<Option<Vec<u32>>>()
                    })
                    .unwrap_or(Some(Vec::new()))
                    .ok_or_else(|| {
                        ProtoError::new("'ks' entries must be integers fitting in 32 bits")
                    })?;
                Ok(ProtoRequest::Warm(ks))
            }
            "core" => {
                let (q, k) = u32_pair(value, cmd, "q", "k")?;
                Ok(ProtoRequest::Core { q, k })
            }
            "add_edge" => {
                let (u, v) = u32_pair(value, cmd, "u", "v")?;
                Ok(ProtoRequest::AddEdge { u, v })
            }
            "remove_edge" => {
                let (u, v) = u32_pair(value, cmd, "u", "v")?;
                Ok(ProtoRequest::RemoveEdge { u, v })
            }
            "add_vertex" => {
                let (Some(x), Some(y)) = (
                    value.get("x").and_then(Json::as_f64),
                    value.get("y").and_then(Json::as_f64),
                ) else {
                    return Err(ProtoError::new(
                        "'add_vertex' needs numeric fields 'x' and 'y'",
                    ));
                };
                Ok(ProtoRequest::AddVertex { x, y })
            }
            "move_vertex" => {
                let (Some(v), Some(x), Some(y)) = (
                    value.get("v").and_then(Json::as_u64),
                    value.get("x").and_then(Json::as_f64),
                    value.get("y").and_then(Json::as_f64),
                ) else {
                    return Err(ProtoError::new(
                        "'move_vertex' needs numeric fields 'v', 'x' and 'y'",
                    ));
                };
                if v > u32::MAX as u64 {
                    return Err(ProtoError::new("'v' must fit in 32 bits"));
                }
                Ok(ProtoRequest::MoveVertex { v: v as u32, x, y })
            }
            other => Err(ProtoError::new(format!("unknown command '{other}'"))),
        }
    }

    /// Decodes one LDJSON line.
    pub fn parse_line(line: &str) -> Result<ProtoRequest, ProtoError> {
        let value = Json::parse(line).map_err(|e| ProtoError::new(e.to_string()))?;
        ProtoRequest::from_json(&value)
    }
}

/// Response-encoding options a transport/service is configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeOptions {
    /// Include community member lists (can be large).
    pub members: bool,
    /// Include wall-clock timing fields (`micros`).  Disable for
    /// deterministic, byte-comparable output (the transport-equivalence
    /// suite does).
    pub timing: bool,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            members: true,
            timing: true,
        }
    }
}

/// Encodes a [`TraceNode`] span tree as nested JSON objects (`children` is
/// omitted on leaves).  Only ever emitted under `timing: true` — span trees
/// are wall-clock facts.
fn trace_node_to_json(node: &TraceNode) -> Json {
    let mut fields = vec![
        ("name", Json::Str(node.name.clone())),
        ("start_micros", Json::Num(node.start_micros as f64)),
        ("micros", Json::Num(node.micros as f64)),
    ];
    if !node.children.is_empty() {
        fields.push((
            "children",
            Json::Arr(node.children.iter().map(trace_node_to_json).collect()),
        ));
    }
    obj(fields)
}

/// The community part of a [`QueryReply`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// The query failed with a per-query error.
    Error(String),
    /// No community satisfies the constraints.
    Infeasible,
    /// A community was found.
    Community {
        /// Number of members.
        size: usize,
        /// MCC radius.
        radius: f64,
        /// MCC centre `(x, y)`.
        center: (f64, f64),
        /// Sorted member ids (omitted under `members: false`).
        members: Option<Vec<u32>>,
    },
}

/// The typed reply to one SAC query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Echo of the request id.
    pub id: u64,
    /// Echo of the query vertex.
    pub q: u32,
    /// Echo of the degree constraint.
    pub k: u32,
    /// The dispatched plan's wire label.
    pub plan: String,
    /// The outcome.
    pub result: QueryResult,
    /// Engine-assigned monotonic query id (`None` for queries that never
    /// reached an engine; omitted from the wire under `timing: false`, the
    /// determinism switch, because ids depend on serving history).
    pub query_id: Option<u64>,
    /// Service time in microseconds (`None` under `timing: false`).
    pub micros: Option<u64>,
    /// Whether the k-core cache was warm on arrival.
    pub cache_hit: bool,
    /// Epoch the query was answered against (0 when it never reached an
    /// engine, e.g. budget rejection at decode time).
    pub epoch: u64,
    /// Feasibility probes the executed algorithm issued (radius-sweep
    /// counters; 0 for cache-answered or rejected queries).
    pub probes: u64,
    /// Spatial candidates its sweeps materialised (the amortisation
    /// denominator of the probe count).
    pub candidates: u64,
    /// The approximation ratio the dispatched plan guarantees, when any.
    pub ratio: Option<f64>,
    /// Full span tree of the query (requested via `"trace":true` or
    /// head-sampled by the engine; omitted from the wire under
    /// `timing: false`, since span durations are wall-clock facts).
    pub trace: Option<TraceNode>,
}

impl QueryReply {
    /// Builds the wire reply from an engine response.
    pub fn from_response(response: &SacResponse, options: EncodeOptions) -> QueryReply {
        let result = match &response.outcome {
            Err(e) => QueryResult::Error(e.to_string()),
            Ok(None) => QueryResult::Infeasible,
            Ok(Some(community)) => QueryResult::Community {
                size: community.len(),
                radius: community.radius(),
                center: (community.mcc.center.x, community.mcc.center.y),
                members: options.members.then(|| community.members().to_vec()),
            },
        };
        QueryReply {
            id: response.id,
            q: response.q,
            k: response.k,
            plan: response.plan.label(),
            result,
            query_id: Some(response.trace.query_id),
            micros: options.timing.then_some(response.micros),
            cache_hit: response.trace.cache_hit,
            epoch: response.trace.epoch,
            probes: response.trace.probe_count,
            candidates: response.trace.candidate_count,
            ratio: response.trace.guaranteed_ratio,
            trace: response.trace.tree.clone(),
        }
    }

    /// A reply for a query rejected before reaching an engine (e.g. a budget
    /// the validating builder refused).
    pub fn rejected(spec: &QuerySpec, fallback_id: u64, error: &sac_core::SacError) -> QueryReply {
        QueryReply {
            id: spec.resolved_id(fallback_id),
            q: spec.q,
            k: spec.k,
            plan: "rejected".to_string(),
            result: QueryResult::Error(error.to_string()),
            query_id: None,
            micros: None,
            cache_hit: false,
            epoch: 0,
            probes: 0,
            candidates: 0,
            ratio: None,
            trace: None,
        }
    }

    /// Appends the reply object to `out`.  The member list is written
    /// straight from its `u32`s; every other field prints as its `Json`
    /// value would.
    fn write_to(&self, options: EncodeOptions, out: &mut String) {
        let mut object = ObjectWriter::new(out);
        object.bool("ok", !matches!(self.result, QueryResult::Error(_)));
        object.num("id", self.id as f64);
        object.num("q", self.q as f64);
        object.num("k", self.k as f64);
        object.str("plan", &self.plan);
        match &self.result {
            QueryResult::Error(message) => object.str("error", message),
            QueryResult::Infeasible => object.bool("feasible", false),
            QueryResult::Community {
                size,
                radius,
                center,
                members,
            } => {
                object.bool("feasible", true);
                object.num("size", *size as f64);
                object.num("radius", *radius);
                object.value(
                    "center",
                    &Json::Arr(vec![Json::Num(center.0), Json::Num(center.1)]),
                );
                if let Some(members) = members {
                    object.u32s("members", members);
                }
            }
        }
        if options.timing {
            if let Some(query_id) = self.query_id {
                object.num("query_id", query_id as f64);
            }
            if let Some(micros) = self.micros {
                object.num("micros", micros as f64);
            }
        }
        object.bool("cache_hit", self.cache_hit);
        object.num("epoch", self.epoch as f64);
        object.num("probes", self.probes as f64);
        object.num("candidates", self.candidates as f64);
        if let Some(ratio) = self.ratio {
            object.num("ratio", ratio);
        }
        if options.timing {
            if let Some(trace) = &self.trace {
                object.value("trace", &trace_node_to_json(trace));
            }
        }
        object.finish();
    }

    /// Bytes to reserve for this reply: its member list plus
    /// [`REPLY_FIELDS_LEN`].
    fn encoded_len_hint(&self) -> usize {
        REPLY_FIELDS_LEN
            + match &self.result {
                QueryResult::Community {
                    members: Some(members),
                    ..
                } => members_len_hint(members),
                _ => 0,
            }
    }
}

/// Encoded length of a sorted member list, separators included: no member
/// has more digits than the last.
fn members_len_hint(members: &[u32]) -> usize {
    members.last().map_or(0, |&max| {
        members.len() * (max.checked_ilog10().unwrap_or(0) as usize + 2)
    })
}

/// Room for everything in a reply but its member lists.
const REPLY_FIELDS_LEN: usize = 384;

/// One labelled latency summary of a `stats` reply (per latency tier or per
/// algorithm), extracted from the engine's lock-free histograms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyStatsReply {
    /// Series label (tier or algorithm wire name).
    pub label: String,
    /// Observations recorded.
    pub count: u64,
    /// Median latency (bucket upper bound), microseconds.
    pub p50_micros: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_micros: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_micros: u64,
    /// Largest observation, microseconds (exact).
    pub max_micros: u64,
}

impl LatencyStatsReply {
    fn from_stats(stats: &LatencyStats) -> LatencyStatsReply {
        LatencyStatsReply {
            label: stats.label.to_string(),
            count: stats.summary.count,
            p50_micros: stats.summary.p50_micros,
            p95_micros: stats.summary.p95_micros,
            p99_micros: stats.summary.p99_micros,
            max_micros: stats.summary.max_micros,
        }
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("label", Json::Str(self.label.clone())),
            ("count", Json::Num(self.count as f64)),
            ("p50_micros", Json::Num(self.p50_micros as f64)),
            ("p95_micros", Json::Num(self.p95_micros as f64)),
            ("p99_micros", Json::Num(self.p99_micros as f64)),
            ("max_micros", Json::Num(self.max_micros as f64)),
        ])
    }
}

/// The WAL section of a `stats` reply (present only when the engine runs
/// with durability enabled).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalStatsReply {
    /// Configured sync policy, rendered (`always`, `never`, `every_n`).
    pub sync: String,
    /// Live log segment files on disk.
    pub segments: u64,
    /// Bytes across segment files.
    pub log_bytes: u64,
    /// Bytes across snapshot files.
    pub snapshot_bytes: u64,
    /// Epoch captured by the newest snapshot checkpoint.
    pub last_checkpoint_epoch: u64,
    /// Records appended since this process opened the log.
    pub appended_records: u64,
    /// Epoch of the engine's served (durably applied) state — what a
    /// replication follower of this node would converge to.
    pub last_applied_epoch: u64,
    /// Segment id of the WAL tail (where the next record lands).
    pub tail_segment: u64,
    /// Byte offset of the WAL tail within `tail_segment`.
    pub tail_offset: u64,
}

impl WalStatsReply {
    fn to_json(&self) -> Json {
        obj(vec![
            ("sync", Json::Str(self.sync.clone())),
            ("segments", Json::Num(self.segments as f64)),
            ("log_bytes", Json::Num(self.log_bytes as f64)),
            ("snapshot_bytes", Json::Num(self.snapshot_bytes as f64)),
            (
                "last_checkpoint_epoch",
                Json::Num(self.last_checkpoint_epoch as f64),
            ),
            ("appended_records", Json::Num(self.appended_records as f64)),
            (
                "last_applied_epoch",
                Json::Num(self.last_applied_epoch as f64),
            ),
            ("tail_segment", Json::Num(self.tail_segment as f64)),
            ("tail_offset", Json::Num(self.tail_offset as f64)),
        ])
    }
}

/// The replication section of a `stats` reply (present only on a replica
/// booted with `--replicate-from`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplicationStatsReply {
    /// Address of the primary this replica tails.
    pub primary: String,
    /// Whether the replication link is currently established.
    pub connected: bool,
    /// Whether the replica has degraded: the primary has been unreachable
    /// past the staleness threshold (it keeps serving reads at its last
    /// applied epoch).
    pub degraded: bool,
    /// Newest epoch the replica has applied and serves.
    pub last_applied_epoch: u64,
    /// Newest primary epoch the link has observed (via heartbeats).
    pub primary_epoch: u64,
    /// `primary_epoch - last_applied_epoch` (0 when caught up or when no
    /// heartbeat has arrived yet).
    pub lag_epochs: u64,
    /// Seconds since the link last heard from the primary.
    pub stale_secs: u64,
    /// Times the link reconnected (after the initial connection).
    pub reconnects: u64,
    /// Delta records applied through the link.
    pub records_applied: u64,
    /// Full snapshot re-bootstraps (the resume position had been truncated
    /// by a primary checkpoint).
    pub snapshot_bootstraps: u64,
    /// Highest leadership term observed on the link (0 before the first
    /// heartbeat from a failover-aware primary).
    pub term: u64,
}

impl ReplicationStatsReply {
    /// The JSON object embedded in `stats` replies and `/healthz` bodies.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("primary", Json::Str(self.primary.clone())),
            ("connected", Json::Bool(self.connected)),
            ("degraded", Json::Bool(self.degraded)),
            (
                "last_applied_epoch",
                Json::Num(self.last_applied_epoch as f64),
            ),
            ("primary_epoch", Json::Num(self.primary_epoch as f64)),
            ("lag_epochs", Json::Num(self.lag_epochs as f64)),
            ("stale_secs", Json::Num(self.stale_secs as f64)),
            ("reconnects", Json::Num(self.reconnects as f64)),
            ("records_applied", Json::Num(self.records_applied as f64)),
            (
                "snapshot_bootstraps",
                Json::Num(self.snapshot_bootstraps as f64),
            ),
            ("term", Json::Num(self.term as f64)),
        ])
    }
}

/// The typed reply to a `stats` command.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Vertices in the served snapshot.
    pub vertices: usize,
    /// Edges in the served snapshot.
    pub edges: usize,
    /// Currently served epoch.
    pub epoch: u64,
    /// Leadership term the engine serves under (0 until failover stamps
    /// one; the `term` key is then omitted from the wire encoding, keeping
    /// pre-failover stats lines byte-stable).
    pub term: u64,
    /// Snapshots published over the engine's lifetime.
    pub epochs_published: u64,
    /// Mutations buffered since the last commit.
    pub pending_mutations: usize,
    /// Queries answered.
    pub queries: u64,
    /// Queries short-circuited by the cache feasibility check.
    pub infeasible_fast_path: u64,
    /// Queries that returned a per-query error.
    pub errors: u64,
    /// Decomposition-cache hits.
    pub decomp_hits: u64,
    /// Decomposition-cache misses.
    pub decomp_misses: u64,
    /// Per-`k` component-index hits.
    pub component_hits: u64,
    /// Per-`k` component-index misses.
    pub component_misses: u64,
    /// Component indexes carried across epoch swaps.
    pub components_carried: u64,
    /// Component indexes invalidated at epoch swaps.
    pub components_invalidated: u64,
    /// Seconds since the serving process started (`None` when the transport
    /// has no process clock; omitted under `timing: false`).
    pub uptime_secs: Option<u64>,
    /// Per-latency-tier end-to-end latency summaries (empty when the engine
    /// runs with observability disabled; omitted under `timing: false`).
    pub tier_latency: Vec<LatencyStatsReply>,
    /// Per-algorithm end-to-end latency summaries.
    pub algorithm_latency: Vec<LatencyStatsReply>,
    /// Windowed ("last 10s") per-tier latency summaries — the rotating-ring
    /// counterpart of `tier_latency` (empty when observability is disabled;
    /// omitted under `timing: false`).
    pub windowed_tier_latency: Vec<LatencyStatsReply>,
    /// Wall-clock span the windowed summaries cover, in microseconds.
    pub window_span_micros: u64,
    /// Write-ahead-log facts (`None` when the engine runs without
    /// durability; the `wal` object is then omitted from the wire encoding).
    pub wal: Option<WalStatsReply>,
    /// Replication-link facts (`None` except on a replica; the
    /// `replication` object is then omitted from the wire encoding).
    pub replication: Option<ReplicationStatsReply>,
}

impl StatsReply {
    /// Builds the wire reply from engine counters plus snapshot/front facts.
    pub fn from_stats(
        stats: &EngineStats,
        vertices: usize,
        edges: usize,
        pending_mutations: usize,
    ) -> StatsReply {
        StatsReply {
            vertices,
            edges,
            epoch: stats.epoch,
            term: stats.term,
            epochs_published: stats.epochs_published,
            pending_mutations,
            queries: stats.queries,
            infeasible_fast_path: stats.infeasible_fast_path,
            errors: stats.errors,
            decomp_hits: stats.cache.decomposition.hits,
            decomp_misses: stats.cache.decomposition.misses,
            component_hits: stats.cache.components.hits,
            component_misses: stats.cache.components.misses,
            components_carried: stats.components_carried,
            components_invalidated: stats.components_invalidated,
            uptime_secs: None,
            tier_latency: stats
                .tier_latency
                .iter()
                .map(LatencyStatsReply::from_stats)
                .collect(),
            algorithm_latency: stats
                .algorithm_latency
                .iter()
                .map(LatencyStatsReply::from_stats)
                .collect(),
            windowed_tier_latency: stats
                .windowed_tier_latency
                .iter()
                .map(LatencyStatsReply::from_stats)
                .collect(),
            window_span_micros: stats.window_span_micros,
            wal: None,
            replication: None,
        }
    }

    fn to_json(&self, options: EncodeOptions) -> Json {
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("vertices", Json::Num(self.vertices as f64)),
            ("edges", Json::Num(self.edges as f64)),
            ("epoch", Json::Num(self.epoch as f64)),
            ("epochs_published", Json::Num(self.epochs_published as f64)),
            (
                "pending_mutations",
                Json::Num(self.pending_mutations as f64),
            ),
            ("queries", Json::Num(self.queries as f64)),
            (
                "infeasible_fast_path",
                Json::Num(self.infeasible_fast_path as f64),
            ),
            ("errors", Json::Num(self.errors as f64)),
            ("decomp_hits", Json::Num(self.decomp_hits as f64)),
            ("decomp_misses", Json::Num(self.decomp_misses as f64)),
            ("component_hits", Json::Num(self.component_hits as f64)),
            ("component_misses", Json::Num(self.component_misses as f64)),
            (
                "components_carried",
                Json::Num(self.components_carried as f64),
            ),
            (
                "components_invalidated",
                Json::Num(self.components_invalidated as f64),
            ),
        ];
        if self.term > 0 {
            fields.push(("term", Json::Num(self.term as f64)));
        }
        if let Some(wal) = &self.wal {
            fields.push(("wal", wal.to_json()));
        }
        if let Some(replication) = &self.replication {
            fields.push(("replication", replication.to_json()));
        }
        // Latency summaries and uptime are wall-clock facts: they follow the
        // `timing` determinism switch exactly like per-query `micros`.
        if options.timing {
            if let Some(uptime) = self.uptime_secs {
                fields.push(("uptime_secs", Json::Num(uptime as f64)));
            }
            if !self.tier_latency.is_empty() {
                fields.push((
                    "tier_latency",
                    Json::Arr(self.tier_latency.iter().map(|l| l.to_json()).collect()),
                ));
            }
            if !self.algorithm_latency.is_empty() {
                fields.push((
                    "algorithm_latency",
                    Json::Arr(self.algorithm_latency.iter().map(|l| l.to_json()).collect()),
                ));
            }
            if !self.windowed_tier_latency.is_empty() {
                fields.push((
                    "window",
                    obj(vec![
                        ("span_micros", Json::Num(self.window_span_micros as f64)),
                        (
                            "tier_latency",
                            Json::Arr(
                                self.windowed_tier_latency
                                    .iter()
                                    .map(|l| l.to_json())
                                    .collect(),
                            ),
                        ),
                    ]),
                ));
            }
        }
        obj(fields)
    }
}

/// The typed reply to an `add_edge`/`remove_edge` mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationReply {
    /// Whether the mutation changed the graph (`false` for self-loops,
    /// duplicate inserts and absent removals).
    pub applied: bool,
    /// Vertices whose core number changed.
    pub cores_changed: usize,
    /// Mutations buffered since the last commit.
    pub pending: usize,
}

/// The typed reply to an `add_vertex` mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexReply {
    /// Id of the new vertex.
    pub vertex: u32,
    /// Mutations buffered since the last commit.
    pub pending: usize,
}

/// The typed reply to a `commit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReply {
    /// Epoch now being served.
    pub epoch: u64,
    /// Mutations applied in this delta.
    pub mutations: usize,
    /// Edge insertions among them.
    pub edges_inserted: usize,
    /// Edge removals among them.
    pub edges_removed: usize,
    /// Vertex additions among them.
    pub vertices_added: usize,
    /// Vertex moves (position-only updates) among them.
    pub vertices_moved: usize,
    /// Core-number changes across the delta.
    pub cores_changed: u64,
    /// Largest `k` whose k-core the delta may have touched.
    pub dirty_up_to: u32,
    /// Component indexes carried across the swap.
    pub components_carried: u64,
    /// Component indexes invalidated by the swap.
    pub components_invalidated: u64,
    /// Commit wall-clock cost in microseconds (`None` under `timing: false`).
    pub micros: Option<u64>,
    /// Stage-level commit trace (`Some` only when the request asked for one;
    /// encoded only under `timing: true`).
    pub trace: Option<TraceNode>,
}

/// The typed reply to a `checkpoint` admin command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReply {
    /// Epoch the snapshot captured.
    pub epoch: u64,
    /// Snapshot bytes written.
    pub snapshot_bytes: u64,
    /// Log segments deleted (their records are covered by the snapshot).
    pub segments_removed: u64,
    /// Checkpoint wall-clock cost in microseconds (`None` under
    /// `timing: false`).
    pub micros: Option<u64>,
}

/// The typed reply to a `slowlog` command: a snapshot of the engine's
/// slow-query ring buffer, oldest first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlowLogReply {
    /// Capture threshold (microseconds; 0 = capture disabled).
    pub threshold_micros: u64,
    /// Records evicted from the ring since startup.
    pub dropped: u64,
    /// The captured records, oldest first.
    pub entries: Vec<SlowQueryRecord>,
}

impl SlowLogReply {
    fn to_json(&self, options: EncodeOptions) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("query_id", Json::Num(e.query_id as f64)),
                    ("plan", Json::Str(e.plan.clone())),
                    ("tier", Json::Str(e.tier.clone())),
                    ("epoch", Json::Num(e.epoch as f64)),
                    ("cache_hit", Json::Bool(e.cache_hit)),
                    ("probes", Json::Num(e.probe_count as f64)),
                    ("candidates", Json::Num(e.candidate_count as f64)),
                ];
                if options.timing {
                    fields.push(("micros", Json::Num(e.total_micros as f64)));
                    fields.push(("plan_micros", Json::Num(e.plan_micros as f64)));
                    fields.push(("exec_micros", Json::Num(e.exec_micros as f64)));
                    if let Some(trace) = &e.trace {
                        fields.push(("trace", trace_node_to_json(trace)));
                    }
                }
                obj(fields)
            })
            .collect();
        obj(vec![
            ("ok", Json::Bool(true)),
            ("threshold_micros", Json::Num(self.threshold_micros as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            ("entries", Json::Arr(entries)),
        ])
    }
}

/// The typed reply to an `events` command: a page of the engine's structured
/// event log starting at the requested cursor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventsReply {
    /// Events at or after the requested cursor, oldest first.
    pub events: Vec<sac_engine::EventRecord>,
    /// Cursor to pass as `since` on the next poll.
    pub next_seq: u64,
    /// Events evicted between the cursor and the oldest retained record.
    pub missed: u64,
}

impl EventsReply {
    /// Builds the reply from an engine-side [`EventBatch`].
    pub fn from_batch(batch: EventBatch) -> EventsReply {
        EventsReply {
            events: batch.events,
            next_seq: batch.next_seq,
            missed: batch.missed,
        }
    }

    fn to_json(&self, options: EncodeOptions) -> Json {
        let events = self
            .events
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("seq", Json::Num(e.seq as f64)),
                    ("kind", Json::Str(e.kind.to_string())),
                    ("detail", Json::Str(e.detail.clone())),
                ];
                if options.timing {
                    fields.push(("at_micros", Json::Num(e.at_micros as f64)));
                }
                obj(fields)
            })
            .collect();
        obj(vec![
            ("ok", Json::Bool(true)),
            ("next_seq", Json::Num(self.next_seq as f64)),
            ("missed", Json::Num(self.missed as f64)),
            ("events", Json::Arr(events)),
        ])
    }
}

/// The typed reply to a `core` structural query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreReply {
    /// Sorted members of the connected k-core containing `q`, or `None` when
    /// `q` is in no k-core.
    pub members: Option<Vec<u32>>,
}

/// A decoded protocol response — what a transport encodes back to the client.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoResponse {
    /// Reply to one query.
    Query(QueryReply),
    /// Replies to a batch, in request order.
    Batch(Vec<QueryReply>),
    /// Reply to `stats`.
    Stats(StatsReply),
    /// Reply to `metrics`: the Prometheus text exposition (served raw on
    /// `GET /metrics`, embedded as a JSON string on the LDJSON transport).
    Metrics {
        /// The exposition text.
        text: String,
    },
    /// Reply to `slowlog`.
    SlowLog(SlowLogReply),
    /// Reply to `events`.
    Events(EventsReply),
    /// Reply to `add_edge`/`remove_edge`.
    Mutation(MutationReply),
    /// Reply to `add_vertex`.
    Vertex(VertexReply),
    /// Reply to `commit`.
    Commit(CommitReply),
    /// Reply to `checkpoint`.
    Checkpoint(CheckpointReply),
    /// Reply to `warm`.
    Warmed {
        /// Number of `k` values warmed.
        count: usize,
    },
    /// Reply to `core`.
    Core {
        /// The structural result.
        reply: CoreReply,
        /// Whether member lists are included (`members: false` strips them).
        include_members: bool,
    },
    /// A transport- or command-level error.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// A typed rejection pointing the client at another node: a read-only
    /// replica answers every mutation command with this, naming the primary
    /// that accepts writes.
    Redirect {
        /// Why the command was rejected here.
        message: String,
        /// Address of the node that accepts the command.
        primary: String,
    },
}

impl ProtoResponse {
    /// An error response.
    pub fn error(message: impl Into<String>) -> ProtoResponse {
        ProtoResponse::Error {
            message: message.into(),
        }
    }

    /// A redirect-to-primary response (replicas reject mutations with this).
    pub fn redirect(message: impl Into<String>, primary: impl Into<String>) -> ProtoResponse {
        ProtoResponse::Redirect {
            message: message.into(),
            primary: primary.into(),
        }
    }

    /// Appends the response document to `out`, honouring `options`.  Query,
    /// batch and `core` replies are written field by field, their member
    /// lists straight from the `u32`s; the small replies go through a
    /// [`Json`] tree.
    fn write_to(&self, options: EncodeOptions, out: &mut String) {
        let json = match self {
            ProtoResponse::Query(reply) => return reply.write_to(options, out),
            ProtoResponse::Batch(replies) => {
                out.push('[');
                for (i, reply) in replies.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    reply.write_to(options, out);
                }
                out.push(']');
                return;
            }
            ProtoResponse::Core {
                reply,
                include_members,
            } => {
                let mut object = ObjectWriter::new(out);
                object.bool("ok", true);
                match &reply.members {
                    None => object.bool("feasible", false),
                    Some(members) => {
                        object.bool("feasible", true);
                        object.num("size", members.len() as f64);
                        if *include_members {
                            object.u32s("members", members);
                        }
                    }
                }
                return object.finish();
            }
            ProtoResponse::Stats(stats) => stats.to_json(options),
            ProtoResponse::Metrics { text } => obj(vec![
                ("ok", Json::Bool(true)),
                ("metrics", Json::Str(text.clone())),
            ]),
            ProtoResponse::SlowLog(slowlog) => slowlog.to_json(options),
            ProtoResponse::Events(events) => events.to_json(options),
            ProtoResponse::Mutation(m) => obj(vec![
                ("ok", Json::Bool(true)),
                ("applied", Json::Bool(m.applied)),
                ("cores_changed", Json::Num(m.cores_changed as f64)),
                ("pending", Json::Num(m.pending as f64)),
            ]),
            ProtoResponse::Vertex(v) => obj(vec![
                ("ok", Json::Bool(true)),
                ("vertex", Json::Num(v.vertex as f64)),
                ("pending", Json::Num(v.pending as f64)),
            ]),
            ProtoResponse::Commit(c) => {
                let mut fields = vec![
                    ("ok", Json::Bool(true)),
                    ("epoch", Json::Num(c.epoch as f64)),
                    ("mutations", Json::Num(c.mutations as f64)),
                    ("edges_inserted", Json::Num(c.edges_inserted as f64)),
                    ("edges_removed", Json::Num(c.edges_removed as f64)),
                    ("vertices_added", Json::Num(c.vertices_added as f64)),
                    ("vertices_moved", Json::Num(c.vertices_moved as f64)),
                    ("cores_changed", Json::Num(c.cores_changed as f64)),
                    ("dirty_up_to", Json::Num(c.dirty_up_to as f64)),
                    ("components_carried", Json::Num(c.components_carried as f64)),
                    (
                        "components_invalidated",
                        Json::Num(c.components_invalidated as f64),
                    ),
                ];
                if options.timing {
                    if let Some(micros) = c.micros {
                        fields.push(("micros", Json::Num(micros as f64)));
                    }
                    if let Some(trace) = &c.trace {
                        fields.push(("trace", trace_node_to_json(trace)));
                    }
                }
                obj(fields)
            }
            ProtoResponse::Checkpoint(c) => {
                let mut fields = vec![
                    ("ok", Json::Bool(true)),
                    ("epoch", Json::Num(c.epoch as f64)),
                    ("snapshot_bytes", Json::Num(c.snapshot_bytes as f64)),
                    ("segments_removed", Json::Num(c.segments_removed as f64)),
                ];
                if options.timing {
                    if let Some(micros) = c.micros {
                        fields.push(("micros", Json::Num(micros as f64)));
                    }
                }
                obj(fields)
            }
            ProtoResponse::Warmed { count } => obj(vec![
                ("ok", Json::Bool(true)),
                ("warmed", Json::Num(*count as f64)),
            ]),
            ProtoResponse::Error { message } => obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::Str(message.clone())),
            ]),
            ProtoResponse::Redirect { message, primary } => obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::Str(message.clone())),
                ("redirect_to", Json::Str(primary.clone())),
            ]),
        };
        json.write_to(out);
    }

    /// Encodes the response as one LDJSON line (no trailing newline), into
    /// one buffer sized up front from the member lists it carries.
    pub fn encode_line(&self, options: EncodeOptions) -> String {
        let capacity = match self {
            ProtoResponse::Query(reply) => reply.encoded_len_hint(),
            ProtoResponse::Batch(replies) => replies.iter().map(QueryReply::encoded_len_hint).sum(),
            ProtoResponse::Core {
                reply: CoreReply {
                    members: Some(members),
                },
                include_members: true,
            } => REPLY_FIELDS_LEN + members_len_hint(members),
            _ => REPLY_FIELDS_LEN,
        };
        let mut out = String::with_capacity(capacity);
        self.write_to(options, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_engine::LatencyTier;

    #[test]
    fn decodes_queries_batches_and_commands() {
        let query = ProtoRequest::parse_line(
            r#"{"id":3,"q":17,"k":4,"ratio":1.5,"tier":"interactive","theta":0.25,"algorithm":"global"}"#,
        )
        .unwrap();
        let ProtoRequest::Query(spec) = query else {
            panic!("expected a query");
        };
        assert_eq!(spec.id, Some(3));
        assert_eq!((spec.q, spec.k), (17, 4));
        assert_eq!(spec.ratio, Some(1.5));
        assert_eq!(spec.tier, Some(LatencyTier::Interactive));
        assert_eq!(spec.theta, Some(0.25));
        assert_eq!(spec.algorithm.as_deref(), Some("global"));
        let request = spec.to_request(0).unwrap();
        assert_eq!(request.id, 3);
        assert_eq!(request.budget.theta, Some(0.25));
        assert_eq!(request.algorithm.as_deref(), Some("global"));

        let batch = ProtoRequest::parse_line(r#"[{"q":1,"k":2},{"q":2,"k":2}]"#).unwrap();
        assert!(matches!(batch, ProtoRequest::Batch(specs) if specs.len() == 2));

        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"stats"}"#).unwrap(),
            ProtoRequest::Stats
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"metrics"}"#).unwrap(),
            ProtoRequest::Metrics
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"slowlog"}"#).unwrap(),
            ProtoRequest::SlowLog
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"warm","ks":[2,4]}"#).unwrap(),
            ProtoRequest::Warm(vec![2, 4])
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"add_edge","u":1,"v":2}"#).unwrap(),
            ProtoRequest::AddEdge { u: 1, v: 2 }
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"add_vertex","x":0.5,"y":-0.5}"#).unwrap(),
            ProtoRequest::AddVertex { x: 0.5, y: -0.5 }
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"move_vertex","v":3,"x":1.5,"y":2.5}"#).unwrap(),
            ProtoRequest::MoveVertex {
                v: 3,
                x: 1.5,
                y: 2.5
            }
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"quit"}"#).unwrap(),
            ProtoRequest::Quit
        );
    }

    #[test]
    fn decode_errors_are_typed_and_descriptive() {
        for (line, needle) in [
            (r#"{"k":2}"#, "field 'q'"),
            (r#"{"q":1}"#, "field 'k'"),
            (r#"{"q":99999999999,"k":2}"#, "32 bits"),
            (r#"{"q":1,"k":2,"ratio":"fast"}"#, "'ratio'"),
            (r#"{"q":1,"k":2,"tier":"warp"}"#, "latency tier"),
            (r#"{"q":1,"k":2,"theta":"wide"}"#, "'theta'"),
            (r#"{"q":1,"k":2,"algorithm":7}"#, "'algorithm'"),
            (r#"{"cmd":"frobnicate"}"#, "unknown command"),
            (r#"{"cmd":"add_edge","u":1}"#, "'u' and 'v'"),
            (r#"{"cmd":"move_vertex","v":1,"x":0.5}"#, "'v', 'x' and 'y'"),
            (
                r#"{"cmd":"move_vertex","v":99999999999,"x":0,"y":0}"#,
                "32 bits",
            ),
            (r#"{"cmd":"warm","ks":[1.5]}"#, "'ks'"),
            ("{not json", "parse error"),
        ] {
            let err = ProtoRequest::parse_line(line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "error for {line} should mention {needle}, got: {err}"
            );
        }
        // Budget *values* decode fine and fail later, at request construction.
        let ProtoRequest::Query(spec) =
            ProtoRequest::parse_line(r#"{"q":1,"k":2,"ratio":0.5}"#).unwrap()
        else {
            panic!("expected a query");
        };
        assert_eq!(
            spec.to_request(0),
            Err(sac_core::SacError::InvalidRatio(0.5))
        );
    }

    #[test]
    fn replies_encode_with_stable_field_layout() {
        let reply = QueryReply {
            id: 7,
            q: 1,
            k: 2,
            plan: "app_inc".to_string(),
            result: QueryResult::Community {
                size: 3,
                radius: 1.25,
                center: (0.5, 0.25),
                members: Some(vec![1, 2, 3]),
            },
            query_id: Some(11),
            micros: Some(42),
            cache_hit: true,
            epoch: 2,
            probes: 9,
            candidates: 61,
            ratio: Some(2.0),
            trace: None,
        };
        let line = ProtoResponse::Query(reply.clone()).encode_line(EncodeOptions::default());
        assert_eq!(
            line,
            r#"{"ok":true,"id":7,"q":1,"k":2,"plan":"app_inc","feasible":true,"size":3,"radius":1.25,"center":[0.5,0.25],"members":[1,2,3],"query_id":11,"micros":42,"cache_hit":true,"epoch":2,"probes":9,"candidates":61,"ratio":2}"#
        );
        // Deterministic mode drops the volatile timing fields — including the
        // query id, which depends on serving history.
        let no_timing = ProtoResponse::Query(reply).encode_line(EncodeOptions {
            members: true,
            timing: false,
        });
        assert!(!no_timing.contains("micros"));
        assert!(!no_timing.contains("query_id"));

        let error = ProtoResponse::error("boom").encode_line(EncodeOptions::default());
        assert_eq!(error, r#"{"ok":false,"error":"boom"}"#);

        let redirect = ProtoResponse::redirect("read-only replica", "10.0.0.1:7878")
            .encode_line(EncodeOptions::default());
        assert_eq!(
            redirect,
            r#"{"ok":false,"error":"read-only replica","redirect_to":"10.0.0.1:7878"}"#
        );
    }

    /// A community reply exercising every number shape the encoder meets:
    /// one- to ten-digit members (up to `u32::MAX`), a request id right
    /// below 2^53, a query id right above it (printed as its nearest `f64`),
    /// and a fractional radius and centre.
    fn golden_reply() -> QueryReply {
        QueryReply {
            id: (1 << 53) - 1,
            q: 4_294_967_295,
            k: 3,
            plan: "app_acc".to_string(),
            result: QueryResult::Community {
                size: 6,
                radius: 0.123_456_789_012_345_68,
                center: (0.1, -2.5e-7),
                members: Some(vec![0, 9, 10, 99, 100, 4_294_967_295]),
            },
            query_id: Some((1 << 53) + 1),
            micros: Some(1_234_567),
            cache_hit: false,
            epoch: 12,
            probes: 100,
            candidates: 99_999,
            ratio: Some(1.5),
            trace: None,
        }
    }

    #[test]
    fn golden_query_core_and_batch_replies() {
        let timing = EncodeOptions::default();
        let no_timing = EncodeOptions {
            members: true,
            timing: false,
        };
        let reply = golden_reply();
        assert_eq!(
            ProtoResponse::Query(reply.clone()).encode_line(timing),
            r#"{"ok":true,"id":9007199254740991,"q":4294967295,"k":3,"plan":"app_acc","feasible":true,"size":6,"radius":0.12345678901234568,"center":[0.1,-0.00000025],"members":[0,9,10,99,100,4294967295],"query_id":9007199254740992,"micros":1234567,"cache_hit":false,"epoch":12,"probes":100,"candidates":99999,"ratio":1.5}"#
        );
        assert_eq!(
            ProtoResponse::Query(reply.clone()).encode_line(no_timing),
            r#"{"ok":true,"id":9007199254740991,"q":4294967295,"k":3,"plan":"app_acc","feasible":true,"size":6,"radius":0.12345678901234568,"center":[0.1,-0.00000025],"members":[0,9,10,99,100,4294967295],"cache_hit":false,"epoch":12,"probes":100,"candidates":99999,"ratio":1.5}"#
        );
        // Under `members: false` the service builds the reply without its
        // member list (`QueryReply::from_response`); `size` stays.
        let mut stripped = reply.clone();
        if let QueryResult::Community { members, .. } = &mut stripped.result {
            *members = None;
        }
        assert_eq!(
            ProtoResponse::Query(stripped).encode_line(EncodeOptions {
                members: false,
                timing: false,
            }),
            r#"{"ok":true,"id":9007199254740991,"q":4294967295,"k":3,"plan":"app_acc","feasible":true,"size":6,"radius":0.12345678901234568,"center":[0.1,-0.00000025],"cache_hit":false,"epoch":12,"probes":100,"candidates":99999,"ratio":1.5}"#
        );

        let core = CoreReply {
            members: Some(vec![0, 9, 10, 99, 100, 4_294_967_295]),
        };
        assert_eq!(
            ProtoResponse::Core {
                reply: core,
                include_members: true,
            }
            .encode_line(timing),
            r#"{"ok":true,"feasible":true,"size":6,"members":[0,9,10,99,100,4294967295]}"#
        );

        let mut second = reply;
        second.id = 1;
        second.result = QueryResult::Infeasible;
        second.ratio = None;
        assert_eq!(
            ProtoResponse::Batch(vec![golden_reply(), second]).encode_line(no_timing),
            r#"[{"ok":true,"id":9007199254740991,"q":4294967295,"k":3,"plan":"app_acc","feasible":true,"size":6,"radius":0.12345678901234568,"center":[0.1,-0.00000025],"members":[0,9,10,99,100,4294967295],"cache_hit":false,"epoch":12,"probes":100,"candidates":99999,"ratio":1.5},{"ok":true,"id":1,"q":4294967295,"k":3,"plan":"app_acc","feasible":false,"cache_hit":false,"epoch":12,"probes":100,"candidates":99999}]"#
        );
    }

    #[test]
    fn wal_stats_and_checkpoint_replies_encode() {
        let timing = EncodeOptions::default();
        let no_timing = EncodeOptions {
            members: true,
            timing: false,
        };

        // No durability: the stats encoding has no `wal` object at all.
        let line = ProtoResponse::Stats(StatsReply::default()).encode_line(timing);
        assert!(!line.contains(r#""wal""#), "got: {line}");

        let stats = StatsReply {
            wal: Some(WalStatsReply {
                sync: "always".to_string(),
                segments: 2,
                log_bytes: 4096,
                snapshot_bytes: 1024,
                last_checkpoint_epoch: 7,
                appended_records: 31,
                last_applied_epoch: 38,
                tail_segment: 3,
                tail_offset: 512,
            }),
            ..StatsReply::default()
        };
        let line = ProtoResponse::Stats(stats).encode_line(timing);
        assert!(
            line.contains(
                r#""wal":{"sync":"always","segments":2,"log_bytes":4096,"snapshot_bytes":1024,"last_checkpoint_epoch":7,"appended_records":31,"last_applied_epoch":38,"tail_segment":3,"tail_offset":512}"#
            ),
            "got: {line}"
        );

        // Replicas append a `replication` object; everyone else stays
        // byte-stable with no such key (asserted above).
        let stats = StatsReply {
            replication: Some(ReplicationStatsReply {
                primary: "127.0.0.1:7900".to_string(),
                connected: true,
                degraded: false,
                last_applied_epoch: 12,
                primary_epoch: 13,
                lag_epochs: 1,
                stale_secs: 0,
                reconnects: 2,
                records_applied: 11,
                snapshot_bootstraps: 1,
                term: 3,
            }),
            ..StatsReply::default()
        };
        let line = ProtoResponse::Stats(stats).encode_line(timing);
        assert!(
            line.contains(
                r#""replication":{"primary":"127.0.0.1:7900","connected":true,"degraded":false,"last_applied_epoch":12,"primary_epoch":13,"lag_epochs":1,"stale_secs":0,"reconnects":2,"records_applied":11,"snapshot_bootstraps":1,"term":3}"#
            ),
            "got: {line}"
        );

        let reply = CheckpointReply {
            epoch: 9,
            snapshot_bytes: 2048,
            segments_removed: 2,
            micros: Some(1234),
        };
        let line = ProtoResponse::Checkpoint(reply).encode_line(timing);
        assert_eq!(
            line,
            r#"{"ok":true,"epoch":9,"snapshot_bytes":2048,"segments_removed":2,"micros":1234}"#
        );
        let line = ProtoResponse::Checkpoint(reply).encode_line(no_timing);
        assert!(!line.contains("micros"), "got: {line}");
    }

    #[test]
    fn observability_replies_honour_the_timing_switch() {
        let timing = EncodeOptions::default();
        let no_timing = EncodeOptions {
            members: true,
            timing: false,
        };

        let mut stats = StatsReply {
            uptime_secs: Some(9),
            ..StatsReply::default()
        };
        stats.tier_latency.push(LatencyStatsReply {
            label: "interactive".to_string(),
            count: 3,
            p50_micros: 48,
            p95_micros: 96,
            p99_micros: 96,
            max_micros: 80,
        });
        stats.windowed_tier_latency.push(LatencyStatsReply {
            label: "interactive".to_string(),
            count: 2,
            p50_micros: 48,
            p95_micros: 96,
            p99_micros: 96,
            max_micros: 80,
        });
        stats.window_span_micros = 2_000_000;
        let line = ProtoResponse::Stats(stats.clone()).encode_line(timing);
        assert!(line.contains(r#""uptime_secs":9"#), "got: {line}");
        assert!(
            line.contains(r#""tier_latency":[{"label":"interactive","count":3,"p50_micros":48"#),
            "got: {line}"
        );
        assert!(
            line.contains(
                r#""window":{"span_micros":2000000,"tier_latency":[{"label":"interactive","count":2"#
            ),
            "got: {line}"
        );
        let line = ProtoResponse::Stats(stats).encode_line(no_timing);
        assert!(!line.contains("uptime_secs"), "got: {line}");
        assert!(!line.contains("tier_latency"), "got: {line}");
        assert!(!line.contains("window"), "got: {line}");

        let slowlog = SlowLogReply {
            threshold_micros: 10_000,
            dropped: 1,
            entries: vec![SlowQueryRecord {
                query_id: 7,
                total_micros: 12_345,
                plan: "app_inc".to_string(),
                tier: "standard".to_string(),
                epoch: 2,
                plan_micros: 45,
                exec_micros: 12_300,
                cache_hit: true,
                probe_count: 9,
                candidate_count: 61,
                trace: Some(TraceNode::new("query", 0, 12_345)),
            }],
        };
        let line = ProtoResponse::SlowLog(slowlog.clone()).encode_line(timing);
        assert!(
            line.starts_with(r#"{"ok":true,"threshold_micros":10000,"dropped":1,"entries":["#),
            "got: {line}"
        );
        assert!(line.contains(r#""query_id":7"#), "got: {line}");
        assert!(
            line.contains(r#""micros":12345,"plan_micros":45,"exec_micros":12300"#),
            "got: {line}"
        );
        assert!(
            line.contains(r#""trace":{"name":"query","start_micros":0,"micros":12345}"#),
            "got: {line}"
        );
        // The per-entry wall-clock fields follow the determinism switch; the
        // threshold is configuration, so it stays.
        let line = ProtoResponse::SlowLog(slowlog).encode_line(no_timing);
        assert!(!line.contains(r#""exec_micros""#), "got: {line}");
        assert!(!line.contains(r#""trace""#), "got: {line}");
        assert!(line.contains(r#""threshold_micros":10000"#), "got: {line}");

        let line = ProtoResponse::Metrics {
            text: "# TYPE x counter\nx 1\n".to_string(),
        }
        .encode_line(timing);
        assert_eq!(
            line,
            "{\"ok\":true,\"metrics\":\"# TYPE x counter\\nx 1\\n\"}"
        );
    }

    #[test]
    fn decodes_trace_and_events_commands() {
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"events"}"#).unwrap(),
            ProtoRequest::Events { since: 0 }
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"events","since":3}"#).unwrap(),
            ProtoRequest::Events { since: 3 }
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"commit"}"#).unwrap(),
            ProtoRequest::Commit { trace: false }
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"commit","trace":true}"#).unwrap(),
            ProtoRequest::Commit { trace: true }
        );
        assert_eq!(
            ProtoRequest::parse_line(r#"{"cmd":"checkpoint"}"#).unwrap(),
            ProtoRequest::Checkpoint
        );
        let ProtoRequest::Query(spec) =
            ProtoRequest::parse_line(r#"{"q":1,"k":2,"trace":true}"#).unwrap()
        else {
            panic!("expected a query");
        };
        assert!(spec.trace);
        assert!(spec.to_request(0).unwrap().trace);
        let ProtoRequest::Query(spec) = ProtoRequest::parse_line(r#"{"q":1,"k":2}"#).unwrap()
        else {
            panic!("expected a query");
        };
        assert!(!spec.trace);
        for (line, needle) in [
            (r#"{"cmd":"events","since":"x"}"#, "'since'"),
            (r#"{"cmd":"commit","trace":1}"#, "'trace'"),
            (r#"{"q":1,"k":2,"trace":"yes"}"#, "'trace'"),
        ] {
            let err = ProtoRequest::parse_line(line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "error for {line} should mention {needle}, got: {err}"
            );
        }
    }

    #[test]
    fn trace_trees_and_events_encode_under_the_timing_switch() {
        let timing = EncodeOptions::default();
        let no_timing = EncodeOptions {
            members: true,
            timing: false,
        };

        // A query reply carrying a trace tree: the tree (and only the tree)
        // rides behind the timing switch alongside the other volatile fields.
        let reply = QueryReply {
            id: 1,
            q: 1,
            k: 2,
            plan: "app_inc".to_string(),
            result: QueryResult::Infeasible,
            query_id: Some(4),
            micros: Some(100),
            cache_hit: false,
            epoch: 1,
            probes: 0,
            candidates: 0,
            ratio: None,
            trace: Some(
                TraceNode::new("query", 0, 100)
                    .with_child(TraceNode::new("plan", 0, 10))
                    .with_child(TraceNode::new("exec", 10, 90)),
            ),
        };
        let line = ProtoResponse::Query(reply.clone()).encode_line(timing);
        assert!(
            line.contains(
                r#""trace":{"name":"query","start_micros":0,"micros":100,"children":[{"name":"plan","start_micros":0,"micros":10},{"name":"exec","start_micros":10,"micros":90}]}"#
            ),
            "got: {line}"
        );
        let line = ProtoResponse::Query(reply).encode_line(no_timing);
        assert!(!line.contains("trace"), "got: {line}");

        // The events page: sequence cursor plumbing is structural and always
        // encoded; per-event wall-clock offsets follow the timing switch.
        let events = EventsReply {
            events: vec![
                sac_engine::EventRecord {
                    seq: 5,
                    at_micros: 1_234,
                    kind: "epoch_swap",
                    detail: "epoch=2 carried=1".to_string(),
                },
                sac_engine::EventRecord {
                    seq: 6,
                    at_micros: 2_345,
                    kind: "fallback",
                    detail: "reason=trivial_k q=1 k=1".to_string(),
                },
            ],
            next_seq: 7,
            missed: 5,
        };
        let line = ProtoResponse::Events(events.clone()).encode_line(timing);
        assert_eq!(
            line,
            r#"{"ok":true,"next_seq":7,"missed":5,"events":[{"seq":5,"kind":"epoch_swap","detail":"epoch=2 carried=1","at_micros":1234},{"seq":6,"kind":"fallback","detail":"reason=trivial_k q=1 k=1","at_micros":2345}]}"#
        );
        let line = ProtoResponse::Events(events).encode_line(no_timing);
        assert_eq!(
            line,
            r#"{"ok":true,"next_seq":7,"missed":5,"events":[{"seq":5,"kind":"epoch_swap","detail":"epoch=2 carried=1"},{"seq":6,"kind":"fallback","detail":"reason=trivial_k q=1 k=1"}]}"#
        );

        // The commit reply's stage trace follows the same switch.
        let commit = CommitReply {
            epoch: 2,
            mutations: 1,
            edges_inserted: 1,
            edges_removed: 0,
            vertices_added: 0,
            vertices_moved: 0,
            cores_changed: 0,
            dirty_up_to: 2,
            components_carried: 0,
            components_invalidated: 1,
            micros: Some(250),
            trace: Some(
                TraceNode::new("commit", 0, 250).with_child(TraceNode::new("publish", 50, 200)),
            ),
        };
        let line = ProtoResponse::Commit(commit.clone()).encode_line(timing);
        assert!(
            line.contains(r#""micros":250,"trace":{"name":"commit""#),
            "got: {line}"
        );
        let line = ProtoResponse::Commit(commit).encode_line(no_timing);
        assert!(!line.contains("trace"), "got: {line}");
        assert!(!line.contains("micros"), "got: {line}");
    }
}
