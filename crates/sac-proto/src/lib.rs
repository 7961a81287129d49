//! # sac-proto
//!
//! The typed, transport-agnostic wire protocol of the SAC serving stack.
//!
//! The serving engine (`sac-engine`) and the live-update front (`sac-live`)
//! expose a typed Rust API; clients speak JSON.  This crate is the single
//! place where the two meet:
//!
//! * [`ProtoRequest`] / [`ProtoResponse`] — typed request/response enums
//!   covering queries, batches, structural lookups, live updates and admin
//!   commands;
//! * [`json`] — the dependency-free JSON tree parser/serialiser the codecs
//!   are built on (the build environment has no `serde`);
//! * the **LDJSON codec** — [`ProtoRequest::parse_line`] and
//!   [`ProtoResponse::encode_line`], shared by *every* transport: the
//!   `sac-serve` stdin/stdout loop and the `sac-http` HTTP/1.1 front end are
//!   thin shells around the same typed API, and an integration test asserts
//!   their payloads are byte-identical.
//!
//! ## Protocol
//!
//! One JSON document per request:
//!
//! ```text
//! {"id":1,"q":17,"k":4}                        → one query, default budget
//! {"id":2,"q":17,"k":4,"ratio":1.5,"tier":"interactive","theta":0.25}
//! [{...},{...}]                                → a batch, fanned across threads
//! {"cmd":"stats"} | {"cmd":"warm","ks":[2,4]} | {"cmd":"core","q":17,"k":4}
//! {"cmd":"metrics"}                            → Prometheus exposition text
//! {"cmd":"slowlog"}                            → slow-query ring snapshot
//! {"cmd":"events","since":42}                  → structured event-log page
//! {"cmd":"add_edge","u":17,"v":23}             → live updates (buffered...
//! {"cmd":"remove_edge","u":17,"v":23}
//! {"cmd":"add_vertex","x":0.25,"y":0.75}
//! {"cmd":"move_vertex","v":17,"x":0.5,"y":0.5} → position-only update
//! {"cmd":"commit"}                             → ...until published here)
//! {"cmd":"quit"}
//! ```
//!
//! Budget *values* are validated by the engine's typed request builder, not
//! by the codec: a malformed document is a transport error, an invalid budget
//! is a per-query `"plan":"rejected"` reply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod replication;
mod transport;
mod wire;

pub use transport::TransportError;
pub use wire::{
    CheckpointReply, CommitReply, CoreReply, EncodeOptions, EventsReply, LatencyStatsReply,
    MutationReply, ProtoError, ProtoRequest, ProtoResponse, QueryReply, QueryResult, QuerySpec,
    ReplicationStatsReply, SlowLogReply, StatsReply, VertexReply, WalStatsReply,
};
