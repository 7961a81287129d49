//! # sac-live
//!
//! Dynamic-graph subsystem for the SAC serving stack: a **mutable write
//! front** over the read-optimised `sac-engine` path.
//!
//! The paper's incremental variant (`AppInc`) exists because real geo-social
//! graphs mutate continuously; serving them from one frozen snapshot means a
//! full rebuild — graph, core decomposition, every per-`k`
//! k-core index — on every edge change.  This crate closes that gap:
//!
//! * **Write front** — [`LiveEngine`] accepts edge insertions/removals,
//!   vertex additions and moves, applying each to a
//!   [`sac_graph::DynamicGraph`] whose core numbers are maintained
//!   **incrementally** by order-based core maintenance: a mutation visits
//!   only the vertices whose core or k-order position can change, and the
//!   result is bit-identical to a full recomputation (asserted by the
//!   property suite on random update streams).  The front copies no graph:
//!   it reads the served epoch's shared CSR plus the rows changed since.
//!   It is the only code that applies a mutation: crash recovery and
//!   replica replay feed logged ops through the same apply path.
//! * **Commits** — applied mutations buffer as the next WAL record's
//!   [`sac_wal::WalOp`]s; [`LiveEngine::commit`] merges the changed rows
//!   into the next immutable CSR once per epoch, shares the positions
//!   unless one changed, publishes through the engine's atomic epoch
//!   pointer, and rebases the front on the published CSR.
//! * **Epoch snapshots** — in-flight queries finish on the snapshot they
//!   loaded; new queries see the new epoch.  The engine's k-core index cache
//!   is *selectively* invalidated: only the `k` entries whose cores the delta
//!   touched are dropped, the rest carry over (observable via
//!   `EngineStats::components_carried`).
//! * **Moves** — [`LiveEngine::move_vertex`] is a position-only update:
//!   its commit publishes a position-only epoch that carries every per-`k`
//!   index.
//! * **The protocol service and its transports** — [`SacService`] executes
//!   typed `sac-proto` requests (queries, batches, live updates, admin
//!   commands) against the engine + write front; the `sac-serve` (LDJSON
//!   over stdin/stdout, [`ldjson`]) and `sac-http` (hand-rolled HTTP/1.1
//!   over `std::net::TcpListener`, [`http`]) binaries are thin shells over
//!   it, speaking byte-identical payloads.
//! * **Observability end to end** — the commit pipeline
//!   (`sac_commit_micros`, snapshot-build/publish stage spans) and both
//!   transports (decode/handle/encode stage spans, socket IO spans,
//!   per-status-code counters) record into the engine's shared `sac-obs`
//!   registry, so `GET /metrics` (Prometheus text) and the
//!   `{"cmd":"metrics"}` / `{"cmd":"slowlog"}` protocol commands expose the
//!   whole serving stack; `GET /stats` and `/healthz` report epoch, process
//!   uptime and durability state.
//! * **Durability** — with a [`Durability`] config every commit appends its
//!   delta record to a `sac-wal` write-ahead log *before* the epoch swap,
//!   checkpoints serialize the current epoch and truncate older segments,
//!   and [`LiveEngine::recover`] replays snapshot + log to a state
//!   bit-identical to the pre-crash epoch (core numbers and query answers
//!   — pinned by the crash-recovery property suite).
//! * **Replication** — the WAL doubles as a replication stream:
//!   [`spawn_shipper`] serves it over TCP with snapshot bootstrap and
//!   offset-addressable resume, and a [`Replica`] tails it.  The replica
//!   owns a [`LiveEngine`] without a WAL and commits each record through it,
//!   the same apply path recovery replays through, so it serves reads
//!   bit-identical to the primary at every applied epoch and carries the
//!   same per-`k` indexes across commits.  [`RetryPolicy`]-driven
//!   reconnects, deterministic [`FaultInjector`] link faults on either
//!   side, and staleness-aware degradation ([`ReplicaStatus::degraded`])
//!   make the link's failure modes first-class and rehearsable (see
//!   [`replication`]).
//! * **Failover** — heartbeats double as leadership leases: when a replica's
//!   lease expires, the deterministic winner (lowest id in the last roster)
//!   promotes its write front in place — tailer stopped, fresh WAL attached,
//!   term bumped, shipping endpoint opened — while losers re-point and
//!   re-bootstrap.  Terms stamped into every WAL record and frame fence a
//!   restarted zombie primary out of the new history (see [`failover`]).
//!
//! ## Example
//!
//! ```
//! use sac_engine::{SacEngine, SacRequest};
//! use sac_live::LiveEngine;
//! use sac_geom::Point;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(SacEngine::new(sac_core::fixtures::figure3_graph()));
//! let live = LiveEngine::new(Arc::clone(&engine));
//!
//! // Mutate: a newcomer joins next to Q and befriends the Q–A–B triangle.
//! let v = live.add_vertex(Point::new(1.0, 0.5)).unwrap();
//! live.add_edge(v, sac_core::fixtures::figure3::Q).unwrap();
//! live.add_edge(v, sac_core::fixtures::figure3::A).unwrap();
//!
//! // Publish: epoch 2 serves the grown graph, cache carried where possible.
//! let report = live.commit().unwrap();
//! assert_eq!(report.epoch, 2);
//! let response = engine.execute(&SacRequest::builder(v, 2).id(1).build().unwrap());
//! assert!(response.community().expect("v sits in a 2-core").contains(v));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod durability;
pub mod failover;
mod fault;
pub mod http;
pub mod ldjson;
mod live;
pub mod replication;
mod retry;
mod service;

pub use durability::{CheckpointReport, CommitError, Durability, RecoveryReport, WalStats};
pub use failover::{FailoverConfig, FailoverHandle};
pub use fault::{FaultAction, FaultInjector, FaultPlan};
pub use live::{CommitReport, LiveEngine};
pub use replication::{
    probe, spawn_shipper, Replica, ReplicaConfig, ReplicaError, ReplicaStatus, ShipConfig,
    ShipHandle,
};
pub use retry::RetryPolicy;
pub use sac_wal::SyncPolicy;
pub use service::{Role, SacService, ServiceConfig};
