//! The transport-agnostic protocol service: typed requests in, typed
//! responses out.
//!
//! Every transport (LDJSON over stdin/stdout, HTTP/1.1 over a socket, an
//! in-process test harness) decodes bytes into a
//! [`ProtoRequest`](sac_proto::ProtoRequest), calls [`SacService::handle`],
//! and encodes the returned [`ProtoResponse`](sac_proto::ProtoResponse) — the
//! service owns *all* protocol semantics, so transports cannot drift apart.

use crate::replication::{Replica, ReplicaStatus};
use crate::LiveEngine;
use sac_engine::SacEngine;
use sac_obs::TraceNode;
use sac_obs::{Counter, Histogram, Span};
use sac_proto::{
    CheckpointReply, CommitReply, CoreReply, EncodeOptions, EventsReply, MutationReply,
    ProtoRequest, ProtoResponse, QueryReply, SlowLogReply, StatsReply, VertexReply, WalStatsReply,
};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Which side of the replication link a [`SacService`] currently serves.
///
/// A service's role can change at runtime: failover (see [`crate::failover`])
/// promotes a replica-fronting service to primary in place, passing through
/// the transient [`Role::Candidate`] while the swap is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes and (optionally) ships its WAL to replicas.
    Primary,
    /// Serves reads from a tailed log; mutations are redirected.
    Replica,
    /// Mid-promotion: the replica link is stopped but the write path is not
    /// yet open.
    Candidate,
}

impl Role {
    /// The wire spelling used by `/healthz` and the probe handshake.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
            Role::Candidate => "candidate",
        }
    }

    fn from_u8(value: u8) -> Role {
        match value {
            1 => Role::Replica,
            2 => Role::Candidate,
            _ => Role::Primary,
        }
    }
}

/// Tunables of a [`SacService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads batched queries are fanned across.
    pub threads: usize,
    /// Response-encoding options (member lists, timing fields).
    pub encode: EncodeOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 4,
            encode: EncodeOptions::default(),
        }
    }
}

/// Per-transport-stage instruments shared by every front end, registered in
/// the engine's metric registry so `GET /metrics` covers the transports too.
///
/// The decode/handle/encode stages are transport-agnostic (both front ends
/// run the same codec); the read/write stages and the response-status
/// counters are labelled per transport in [`crate::http`] and
/// [`crate::ldjson`].
#[derive(Debug)]
pub(crate) struct ServiceObs {
    decode: Arc<Histogram>,
    handle: Arc<Histogram>,
    encode: Arc<Histogram>,
    /// `sac_transport_io_micros{transport="http"|"ldjson",op="read"|"write"}`.
    pub(crate) http_read: Arc<Histogram>,
    pub(crate) http_write: Arc<Histogram>,
    pub(crate) ldjson_read: Arc<Histogram>,
    pub(crate) ldjson_write: Arc<Histogram>,
    /// `sac_http_responses_total{status=…}`, pre-bound for every status the
    /// front end can emit (plus a catch-all).
    statuses: Vec<(&'static str, Arc<Counter>)>,
}

impl ServiceObs {
    fn new(engine: &SacEngine) -> ServiceObs {
        let registry = engine.metrics();
        let stage = |stage: &'static str| {
            registry.histogram(
                "sac_request_stage_micros",
                "Transport-agnostic request pipeline stage latency, microseconds",
                &[("stage", stage)],
            )
        };
        let io = |transport: &'static str, op: &'static str| {
            registry.histogram(
                "sac_transport_io_micros",
                "Transport socket/stream IO latency, microseconds",
                &[("transport", transport), ("op", op)],
            )
        };
        const STATUSES: [&str; 8] = ["200", "400", "404", "405", "408", "413", "501", "other"];
        ServiceObs {
            decode: stage("decode"),
            handle: stage("handle"),
            encode: stage("encode"),
            http_read: io("http", "read"),
            http_write: io("http", "write"),
            ldjson_read: io("ldjson", "read"),
            ldjson_write: io("ldjson", "write"),
            statuses: STATUSES
                .iter()
                .map(|&status| {
                    (
                        status,
                        registry.counter(
                            "sac_http_responses_total",
                            "HTTP responses by status code",
                            &[("status", status)],
                        ),
                    )
                })
                .collect(),
        }
    }

    /// Counts one HTTP response by its status line (e.g. `"200 OK"`).
    pub(crate) fn count_status(&self, status_line: &str) {
        let code = status_line.split_whitespace().next().unwrap_or("other");
        let counter = self
            .statuses
            .iter()
            .find(|(status, _)| *status == code)
            .or_else(|| self.statuses.last())
            .map(|(_, counter)| counter);
        if let Some(counter) = counter {
            counter.inc();
        }
    }
}

/// The shared protocol service: one typed API every transport is a thin
/// shell over.
///
/// `handle` returns `None` exactly once — for [`ProtoRequest::Quit`] — which
/// transports interpret as "end this session" (the LDJSON loop stops, an
/// HTTP connection closes).
#[derive(Debug)]
pub struct SacService {
    /// The live front requests run against.  On a replica it is the
    /// replica's own front, which failover promotes in place without
    /// restarting the transports (they hold the service, not the engine).
    live: Arc<LiveEngine>,
    config: ServiceConfig,
    obs: ServiceObs,
    /// Process-start clock for the `uptime_secs` fields of `stats` and
    /// `/healthz`.
    started: Instant,
    /// Set on read replicas: mutation requests are answered with a typed
    /// redirect to the primary instead of being applied.  Cleared when
    /// failover promotes this service.
    replica: RwLock<Option<Arc<ReplicaStatus>>>,
    /// The owned replica link (tailer thread handle), consumed by promotion.
    handle: Mutex<Option<Replica>>,
    /// Current [`Role`], stored as its discriminant.
    role: AtomicU8,
}

impl SacService {
    /// A service over a fresh live front for `engine`.
    pub fn new(engine: Arc<SacEngine>, config: ServiceConfig) -> Self {
        SacService::with_live(LiveEngine::new(engine), config)
    }

    /// A service over an existing live front.
    pub fn with_live(live: LiveEngine, config: ServiceConfig) -> Self {
        SacService::over(Arc::new(live), config)
    }

    fn over(live: Arc<LiveEngine>, config: ServiceConfig) -> Self {
        let obs = ServiceObs::new(live.engine());
        SacService {
            live,
            config,
            obs,
            started: Instant::now(),
            replica: RwLock::new(None),
            handle: Mutex::new(None),
            role: AtomicU8::new(Role::Primary as u8),
        }
    }

    /// A read-only service over a booted [`Replica`]: queries run against
    /// the replica's converging engine, mutations get a redirect to the
    /// primary, and `stats`/`/healthz` report replication lag and health.
    ///
    /// The service serves the replica's own write front, and takes
    /// ownership of the replica so failover (see [`crate::failover`]) can
    /// stop the link and promote that front in place.
    pub fn for_replica(replica: Replica, config: ServiceConfig) -> Self {
        let service = SacService::over(Arc::clone(replica.live()), config);
        *service.replica.write().expect("replica lock poisoned") =
            Some(Arc::clone(replica.status()));
        *service.handle.lock().expect("replica handle poisoned") = Some(replica);
        service.set_role(Role::Replica);
        service
    }

    /// The replication status when this service fronts a replica (`None`
    /// once failover promotes it).
    pub fn replica_status(&self) -> Option<Arc<ReplicaStatus>> {
        self.replica.read().expect("replica lock poisoned").clone()
    }

    /// The role this service currently serves in.
    pub fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::Acquire))
    }

    /// Moves the service to `role` (failover transitions).
    pub fn set_role(&self, role: Role) {
        self.role.store(role as u8, Ordering::Release);
    }

    /// Takes the owned replica link out of the service (promotion consumes
    /// it; shutdown paths may stop it).
    pub(crate) fn take_replica(&self) -> Option<Replica> {
        self.handle.lock().expect("replica handle poisoned").take()
    }

    /// Stops the owned replica link, if any (orderly shutdown of a
    /// replica-fronting service).
    pub fn stop_replica(&self) {
        if let Some(replica) = self.take_replica() {
            replica.stop();
        }
    }

    /// Clears the replica state, so mutations reach the live front: the
    /// final step of a promotion, once the front has its WAL.
    pub(crate) fn promoted(&self) {
        *self.replica.write().expect("replica lock poisoned") = None;
        self.set_role(Role::Primary);
    }

    /// The engine queries run against.
    pub fn engine(&self) -> Arc<SacEngine> {
        Arc::clone(self.live.engine())
    }

    /// The live-update front mutations go through.
    pub fn live(&self) -> Arc<LiveEngine> {
        Arc::clone(&self.live)
    }

    /// The encoding options transports must encode responses with.
    pub fn encode_options(&self) -> EncodeOptions {
        self.config.encode
    }

    /// Seconds since this service was constructed.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The Prometheus text exposition (the `GET /metrics` payload): engine
    /// counters, per-tier/per-algorithm latency histograms, commit-pipeline
    /// spans and transport series — everything registered in the engine's
    /// shared registry.
    pub fn metrics_text(&self) -> String {
        self.engine().metrics_text()
    }

    /// The transport instrumentation handles (crate-internal).
    pub(crate) fn obs(&self) -> &ServiceObs {
        &self.obs
    }

    /// Handles one typed request; `None` means "quit" (the transport ends
    /// the session without a reply).
    pub fn handle(&self, request: &ProtoRequest) -> Option<ProtoResponse> {
        let live = &self.live;
        let engine = live.engine();
        if let Some(status) = self.replica_status() {
            // A replica's state is exactly the primary's log replayed; a
            // local write would fork it.  Send writers where the WAL is.
            if matches!(
                request,
                ProtoRequest::AddEdge { .. }
                    | ProtoRequest::RemoveEdge { .. }
                    | ProtoRequest::AddVertex { .. }
                    | ProtoRequest::MoveVertex { .. }
                    | ProtoRequest::Commit { .. }
                    | ProtoRequest::Checkpoint
            ) {
                return Some(ProtoResponse::redirect(
                    "read-only replica: mutations must go to the primary",
                    status.primary(),
                ));
            }
        }
        Some(match request {
            ProtoRequest::Quit => return None,
            ProtoRequest::Query(spec) => match spec.to_request(0) {
                Err(e) => ProtoResponse::Query(QueryReply::rejected(spec, 0, &e)),
                Ok(request) => ProtoResponse::Query(QueryReply::from_response(
                    &engine.execute(&request),
                    self.config.encode,
                )),
            },
            ProtoRequest::Batch(specs) => {
                // Build-validate every spec first; invalid budgets become
                // per-query `rejected` replies while the valid remainder is
                // fanned across the worker pool in one batch.
                let mut replies: Vec<Option<QueryReply>> = vec![None; specs.len()];
                let mut requests = Vec::with_capacity(specs.len());
                let mut positions = Vec::with_capacity(specs.len());
                for (i, spec) in specs.iter().enumerate() {
                    match spec.to_request(i as u64) {
                        Err(e) => replies[i] = Some(QueryReply::rejected(spec, i as u64, &e)),
                        Ok(request) => {
                            requests.push(request);
                            positions.push(i);
                        }
                    }
                }
                let responses = engine.execute_batch(&requests, self.config.threads);
                for (&i, response) in positions.iter().zip(&responses) {
                    replies[i] = Some(QueryReply::from_response(response, self.config.encode));
                }
                ProtoResponse::Batch(
                    replies
                        .into_iter()
                        .map(|r| r.expect("every batch slot is filled"))
                        .collect(),
                )
            }
            ProtoRequest::Stats => {
                let stats = engine.stats();
                let graph = engine.snapshot();
                let mut reply = StatsReply::from_stats(
                    &stats,
                    graph.num_vertices(),
                    graph.num_edges(),
                    live.pending(),
                );
                reply.uptime_secs = Some(self.uptime_secs());
                reply.wal = live.wal_stats().map(|w| WalStatsReply {
                    sync: w.sync.to_string(),
                    segments: w.segments,
                    log_bytes: w.log_bytes,
                    snapshot_bytes: w.snapshot_bytes,
                    last_checkpoint_epoch: w.last_checkpoint_epoch,
                    appended_records: w.appended_records,
                    last_applied_epoch: w.last_applied_epoch,
                    tail_segment: w.tail_segment,
                    tail_offset: w.tail_offset,
                });
                reply.replication = self.replica_status().map(|status| status.stats_reply());
                ProtoResponse::Stats(reply)
            }
            ProtoRequest::Metrics => ProtoResponse::Metrics {
                text: self.metrics_text(),
            },
            ProtoRequest::SlowLog => {
                let slow_log = engine.slow_log();
                ProtoResponse::SlowLog(SlowLogReply {
                    threshold_micros: slow_log.threshold_micros(),
                    dropped: slow_log.dropped(),
                    entries: slow_log.snapshot(),
                })
            }
            ProtoRequest::Warm(ks) => {
                engine.warm(ks);
                ProtoResponse::Warmed { count: ks.len() }
            }
            ProtoRequest::Core { q, k } => ProtoResponse::Core {
                reply: CoreReply {
                    members: engine.connected_core(*q, *k),
                },
                include_members: self.config.encode.members,
            },
            ProtoRequest::AddEdge { u, v } => match live.add_edge(*u, *v) {
                Err(e) => ProtoResponse::error(e.to_string()),
                Ok(change) => ProtoResponse::Mutation(MutationReply {
                    applied: change.applied,
                    cores_changed: change.changed.len(),
                    pending: live.pending(),
                }),
            },
            ProtoRequest::RemoveEdge { u, v } => match live.remove_edge(*u, *v) {
                Err(e) => ProtoResponse::error(e.to_string()),
                Ok(change) => ProtoResponse::Mutation(MutationReply {
                    applied: change.applied,
                    cores_changed: change.changed.len(),
                    pending: live.pending(),
                }),
            },
            ProtoRequest::AddVertex { x, y } => {
                match live.add_vertex(sac_geom::Point::new(*x, *y)) {
                    Err(e) => ProtoResponse::error(e.to_string()),
                    Ok(vertex) => ProtoResponse::Vertex(VertexReply {
                        vertex,
                        pending: live.pending(),
                    }),
                }
            }
            ProtoRequest::MoveVertex { v, x, y } => {
                match live.move_vertex(*v, sac_geom::Point::new(*x, *y)) {
                    Err(e) => ProtoResponse::error(e.to_string()),
                    Ok(applied) => ProtoResponse::Mutation(MutationReply {
                        applied,
                        cores_changed: 0,
                        pending: live.pending(),
                    }),
                }
            }
            ProtoRequest::Commit { trace } => match live.commit() {
                Err(e) => ProtoResponse::error(e.to_string()),
                Ok(report) => ProtoResponse::Commit(CommitReply {
                    epoch: report.epoch,
                    mutations: report.mutations,
                    edges_inserted: report.edges_inserted,
                    edges_removed: report.edges_removed,
                    vertices_added: report.vertices_added,
                    vertices_moved: report.vertices_moved,
                    cores_changed: report.cores_changed,
                    dirty_up_to: report.dirty_up_to,
                    components_carried: report.components_carried,
                    components_invalidated: report.components_invalidated,
                    micros: Some(report.micros),
                    trace: (*trace && report.mutations > 0).then(|| {
                        let publish_start = report.snapshot_build_micros;
                        TraceNode::new("commit", 0, report.micros)
                            .with_child(TraceNode::new(
                                "snapshot_build",
                                0,
                                report.snapshot_build_micros,
                            ))
                            .with_child(
                                TraceNode::new(
                                    "publish",
                                    publish_start,
                                    report.rebuild_micros + report.swap_micros,
                                )
                                .with_child(TraceNode::new(
                                    "rebuild",
                                    publish_start,
                                    report.rebuild_micros,
                                ))
                                .with_child(TraceNode::new(
                                    "swap",
                                    publish_start + report.rebuild_micros,
                                    report.swap_micros,
                                )),
                            )
                    }),
                }),
            },
            ProtoRequest::Checkpoint => match live.checkpoint() {
                Err(e) => ProtoResponse::error(e.to_string()),
                Ok(report) => ProtoResponse::Checkpoint(CheckpointReply {
                    epoch: report.epoch,
                    snapshot_bytes: report.snapshot_bytes,
                    segments_removed: report.segments_removed,
                    micros: Some(report.micros),
                }),
            },
            ProtoRequest::Events { since } => {
                ProtoResponse::Events(EventsReply::from_batch(engine.events().since(*since)))
            }
        })
    }

    /// The full LDJSON round trip for one line: decode, handle, encode.
    /// Malformed input becomes an error reply; `None` means "quit".
    ///
    /// Each stage is timed into
    /// `sac_request_stage_micros{stage="decode"|"handle"|"encode"}` (shared
    /// by both transports — they run this same codec).
    pub fn handle_line(&self, line: &str) -> Option<String> {
        let decode_span = Span::start(&self.obs.decode);
        let request = ProtoRequest::parse_line(line);
        decode_span.finish();
        let response = match request {
            Err(e) => ProtoResponse::error(e.to_string()),
            Ok(request) => {
                let handle_span = Span::start(&self.obs.handle);
                let response = self.handle(&request);
                handle_span.finish();
                response?
            }
        };
        let encode_span = Span::start(&self.obs.encode);
        let line = response.encode_line(self.config.encode);
        encode_span.finish();
        Some(line)
    }
}

// One service is shared across transport threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SacService>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sac_core::fixtures::{figure3, figure3_graph};
    use sac_proto::QuerySpec;

    fn service() -> SacService {
        SacService::new(
            Arc::new(SacEngine::new(figure3_graph())),
            ServiceConfig::default(),
        )
    }

    #[test]
    fn queries_and_commands_round_trip() {
        let service = service();
        let reply = service
            .handle(&ProtoRequest::Query(QuerySpec::new(figure3::Q, 2)))
            .unwrap();
        let ProtoResponse::Query(reply) = reply else {
            panic!("expected a query reply");
        };
        assert!(matches!(
            reply.result,
            sac_proto::QueryResult::Community { .. }
        ));
        assert_eq!(reply.epoch, 1);

        let ProtoResponse::Stats(stats) = service.handle(&ProtoRequest::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.vertices, 10);

        assert!(service.handle(&ProtoRequest::Quit).is_none());
        assert!(service.handle_line(r#"{"cmd":"quit"}"#).is_none());
    }

    #[test]
    fn metrics_and_slowlog_round_trip_over_the_wire() {
        let service = service();
        let _ = service
            .handle(&ProtoRequest::Query(QuerySpec::new(figure3::Q, 2)))
            .unwrap();
        // The metrics command carries the same exposition text GET /metrics
        // serves raw, embedded as a JSON string.
        let line = service.handle_line(r#"{"cmd":"metrics"}"#).unwrap();
        assert!(line.starts_with(r#"{"ok":true,"metrics":""#), "got: {line}");
        assert!(line.contains("sac_queries_total 1"), "got: {line}");
        assert!(
            line.contains(r#"sac_request_stage_micros_count{stage=\"decode\"}"#),
            "transport stages share the registry, got: {line}"
        );
        // Nothing trips the default 10ms threshold on the tiny fixture.
        let line = service.handle_line(r#"{"cmd":"slowlog"}"#).unwrap();
        assert_eq!(
            line,
            r#"{"ok":true,"threshold_micros":10000,"dropped":0,"entries":[]}"#
        );
        // Stats now reports uptime and (after a query) per-tier latency.
        let line = service.handle_line(r#"{"cmd":"stats"}"#).unwrap();
        assert!(line.contains(r#""uptime_secs":"#), "got: {line}");
        assert!(
            line.contains(r#""tier_latency":[{"label":"interactive","count":0"#),
            "got: {line}"
        );
    }

    #[test]
    fn invalid_budgets_are_rejected_per_query_not_per_batch() {
        let service = service();
        let mut bad = QuerySpec::new(figure3::Q, 2);
        bad.ratio = Some(0.5);
        let batch = ProtoRequest::Batch(vec![QuerySpec::new(figure3::Q, 2), bad]);
        let ProtoResponse::Batch(replies) = service.handle(&batch).unwrap() else {
            panic!("expected a batch reply");
        };
        assert_eq!(replies.len(), 2);
        assert!(matches!(
            replies[0].result,
            sac_proto::QueryResult::Community { .. }
        ));
        assert_eq!(replies[1].plan, "rejected");
        assert!(matches!(
            replies[1].result,
            sac_proto::QueryResult::Error(_)
        ));
        // Rejected queries never reached the engine.
        assert_eq!(service.engine().stats().queries, 1);
    }

    #[test]
    fn algorithm_override_round_trips_over_the_wire() {
        let service = service();
        // The `global` baseline is unreachable through budgets; the explicit
        // wire field dispatches it for A/B comparisons.
        let line = service
            .handle_line(&format!(
                r#"{{"q":{},"k":2,"algorithm":"global"}}"#,
                figure3::Q
            ))
            .unwrap();
        assert!(line.contains(r#""plan":"global""#), "got: {line}");
        assert!(line.contains(r#""feasible":true"#), "got: {line}");
        // Unknown names are typed per-query rejections, not transport errors.
        let bad = service
            .handle_line(&format!(
                r#"{{"q":{},"k":2,"algorithm":"warp"}}"#,
                figure3::Q
            ))
            .unwrap();
        assert!(bad.contains(r#""plan":"rejected""#), "got: {bad}");
    }

    #[test]
    fn move_vertex_round_trips_over_the_wire() {
        let service = service();
        let line = service
            .handle_line(&format!(
                r#"{{"cmd":"move_vertex","v":{},"x":42.0,"y":42.0}}"#,
                figure3::Q
            ))
            .unwrap();
        assert!(line.contains(r#""applied":true"#), "got: {line}");
        assert!(line.contains(r#""cores_changed":0"#));
        let commit = service.handle_line(r#"{"cmd":"commit"}"#).unwrap();
        assert!(commit.contains(r#""vertices_moved":1"#), "got: {commit}");
        assert!(commit.contains(r#""dirty_up_to":0"#), "position-only epoch");
        // Out-of-range moves are error replies, not panics.
        let err = service
            .handle_line(r#"{"cmd":"move_vertex","v":999,"x":0,"y":0}"#)
            .unwrap();
        assert!(err.contains(r#""ok":false"#));
    }

    #[test]
    fn events_and_traces_round_trip_over_the_wire() {
        let service = service();
        // The event log is empty until something structural happens.
        let line = service.handle_line(r#"{"cmd":"events"}"#).unwrap();
        assert_eq!(line, r#"{"ok":true,"next_seq":0,"missed":0,"events":[]}"#);
        // A traced commit returns the stage tree alongside the counts.
        service
            .handle(&ProtoRequest::AddEdge {
                u: figure3::I,
                v: figure3::F,
            })
            .unwrap();
        let ProtoResponse::Commit(commit) = service
            .handle(&ProtoRequest::Commit { trace: true })
            .unwrap()
        else {
            panic!("expected a commit reply");
        };
        let tree = commit.trace.expect("trace requested");
        assert_eq!(tree.name, "commit");
        let stages: Vec<&str> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(stages, ["snapshot_build", "publish"]);
        let publish = &tree.children[1];
        let stages: Vec<&str> = publish.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(stages, ["rebuild", "swap"]);
        // An untraced empty commit returns no tree.
        let ProtoResponse::Commit(commit) = service
            .handle(&ProtoRequest::Commit { trace: true })
            .unwrap()
        else {
            panic!("expected a commit reply");
        };
        assert_eq!(commit.mutations, 0);
        assert!(commit.trace.is_none(), "empty commits have no stages");
        // The epoch swap landed in the event log; the cursor pages past it.
        let line = service.handle_line(r#"{"cmd":"events"}"#).unwrap();
        assert!(line.contains(r#""kind":"epoch_swap""#), "got: {line}");
        assert!(line.contains(r#""at_micros":"#), "got: {line}");
        let line = service
            .handle_line(r#"{"cmd":"events","since":1}"#)
            .unwrap();
        assert!(line.contains(r#""events":[]"#), "got: {line}");
        // A traced query carries its span tree on the wire.
        let line = service
            .handle_line(&format!(r#"{{"q":{},"k":2,"trace":true}}"#, figure3::Q))
            .unwrap();
        assert!(line.contains(r#""trace":{"name":"query""#), "got: {line}");
    }

    #[test]
    fn checkpoint_and_wal_stats_round_trip_over_the_wire() {
        // Without durability the admin command is a typed error and stats
        // stay byte-identical to the historical layout (no `wal` object).
        let service = service();
        let err = service.handle_line(r#"{"cmd":"checkpoint"}"#).unwrap();
        assert!(err.contains(r#""ok":false"#), "got: {err}");
        let stats = service.handle_line(r#"{"cmd":"stats"}"#).unwrap();
        assert!(!stats.contains(r#""wal""#), "got: {stats}");

        let dir = std::env::temp_dir().join(format!(
            "sac-service-wal-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let live = LiveEngine::with_durability(
            Arc::new(SacEngine::new(figure3_graph())),
            crate::Durability::new(&dir),
        )
        .unwrap();
        let service = SacService::with_live(live, ServiceConfig::default());
        service
            .handle(&ProtoRequest::AddEdge {
                u: figure3::I,
                v: figure3::F,
            })
            .unwrap();
        let commit = service.handle_line(r#"{"cmd":"commit"}"#).unwrap();
        assert!(commit.contains(r#""epoch":2"#), "got: {commit}");
        let line = service.handle_line(r#"{"cmd":"checkpoint"}"#).unwrap();
        assert!(line.contains(r#""ok":true"#), "got: {line}");
        assert!(line.contains(r#""epoch":2"#), "got: {line}");
        assert!(line.contains(r#""snapshot_bytes":"#), "got: {line}");
        let stats = service.handle_line(r#"{"cmd":"stats"}"#).unwrap();
        assert!(
            stats.contains(r#""wal":{"sync":"always","segments":1"#),
            "got: {stats}"
        );
        assert!(
            stats.contains(r#""last_checkpoint_epoch":2"#),
            "got: {stats}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_exposition_one_value() {
        let dir = std::env::temp_dir().join(format!(
            "sac-service-one-value-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let live = LiveEngine::with_durability(
            Arc::new(SacEngine::new(figure3_graph())),
            crate::Durability::new(&dir),
        )
        .unwrap();
        let service = SacService::with_live(live, ServiceConfig::default());
        let query = format!(r#"{{"q":{},"k":2}}"#, figure3::Q);
        // A planned query, an infeasible one (k above every core number)
        // and an out-of-range vertex; then a commit, a query on the new
        // epoch and a checkpoint.
        for line in [&query, r#"{"q":0,"k":9}"#, r#"{"q":999,"k":2}"#] {
            service.handle_line(line).unwrap();
        }
        service
            .handle(&ProtoRequest::AddEdge {
                u: figure3::I,
                v: figure3::F,
            })
            .unwrap();
        service.handle_line(r#"{"cmd":"commit"}"#).unwrap();
        service.handle_line(&query).unwrap();
        service.handle_line(r#"{"cmd":"checkpoint"}"#).unwrap();

        let text = service.metrics_text();
        let mut types: Vec<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .map(|rest| rest.split(' ').next().unwrap())
            .collect();
        let names = types.len();
        types.sort_unstable();
        types.dedup();
        assert_eq!(types.len(), names, "a metric name has two TYPE lines");
        let series = |name: &str| -> u64 {
            let prefix = format!("{name} ");
            let line = text.lines().find(|l| l.starts_with(&prefix)).unwrap();
            line[prefix.len()..].parse().unwrap()
        };
        let (s, wal) = (
            service.engine().stats(),
            service.live().wal_stats().unwrap(),
        );
        assert_eq!((s.queries, s.errors, s.infeasible_fast_path), (4, 1, 1));
        assert_eq!((wal.appended_records, wal.last_checkpoint_epoch), (1, 2));
        let (d, c) = (s.cache.decomposition, s.cache.components);
        for (name, value) in [
            ("sac_queries_total", s.queries),
            ("sac_query_errors_total", s.errors),
            ("sac_infeasible_fast_path_total", s.infeasible_fast_path),
            ("sac_epochs_published_total", s.epochs_published),
            ("sac_components_carried_total", s.components_carried),
            ("sac_components_invalidated_total", s.components_invalidated),
            ("sac_cache_decomposition_hits_total", d.hits),
            ("sac_cache_decomposition_misses_total", d.misses),
            ("sac_cache_components_hits_total", c.hits),
            ("sac_cache_components_misses_total", c.misses),
            ("sac_epoch", s.epoch),
            ("sac_wal_appends_total", wal.appended_records),
            ("sac_wal_last_checkpoint_epoch", wal.last_checkpoint_epoch),
        ] {
            assert_eq!(series(name), value, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_updates_flow_through_the_service() {
        let service = service();
        let reply = service
            .handle(&ProtoRequest::AddEdge {
                u: figure3::I,
                v: figure3::F,
            })
            .unwrap();
        assert!(matches!(
            reply,
            ProtoResponse::Mutation(MutationReply { applied: true, .. })
        ));
        let ProtoResponse::Commit(commit) = service
            .handle(&ProtoRequest::Commit { trace: false })
            .unwrap()
        else {
            panic!("expected a commit reply");
        };
        assert_eq!(commit.epoch, 2);
        assert_eq!(commit.edges_inserted, 1);
        // The published edge changes query answers.
        let line = service
            .handle_line(&format!(r#"{{"q":{},"k":2}}"#, figure3::I))
            .unwrap();
        assert!(line.contains(r#""feasible":true"#), "got: {line}");
        assert!(line.contains(r#""epoch":2"#));
        // Malformed input becomes a transport-level error reply.
        let err = service.handle_line("{oops").unwrap();
        assert!(err.starts_with(r#"{"ok":false,"error":"#));
    }
}
