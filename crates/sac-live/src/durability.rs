//! Durability wiring for the live engine: the [`Durability`] config, the
//! WAL-side state a [`crate::LiveEngine`] carries when persistence is
//! enabled, and the report/stat types the service layer surfaces.
//!
//! The mechanics (record framing, segments, snapshot codec) live in
//! [`sac_wal`]; this module owns *policy*: when to append (every commit,
//! before the epoch swap), when to checkpoint, and how the shared metrics
//! registry and event log observe it all.

use sac_engine::SacEngine;
use sac_graph::GraphError;
use sac_obs::{Counter, Gauge, Histogram};
use sac_wal::{AppendInfo, SyncPolicy, WalError, WalWriter};
use std::path::PathBuf;
use std::sync::Arc;

/// Durability configuration for a [`crate::LiveEngine`].
#[derive(Debug, Clone)]
pub struct Durability {
    /// Directory holding segments, snapshots and the clean-shutdown marker.
    pub dir: PathBuf,
    /// When commits fsync (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Automatic checkpoint cadence in commits (`0` = manual checkpoints
    /// only, via the `checkpoint` admin command).
    pub checkpoint_every: u64,
}

impl Durability {
    /// Durability under `dir` with the safe defaults: fsync every commit,
    /// checkpoint every 64 commits.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Durability {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            checkpoint_every: 64,
        }
    }
}

/// Why a [`crate::LiveEngine::commit`] failed.
#[derive(Debug)]
pub enum CommitError {
    /// The rebuilt snapshot failed graph-level validation.
    Graph(GraphError),
    /// The write-ahead log rejected the commit's record (the mutations stay
    /// buffered in the write front; nothing was published).
    Wal(WalError),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Graph(e) => write!(f, "{e}"),
            CommitError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CommitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommitError::Graph(e) => Some(e),
            CommitError::Wal(e) => Some(e),
        }
    }
}

impl From<GraphError> for CommitError {
    fn from(e: GraphError) -> Self {
        CommitError::Graph(e)
    }
}

impl From<WalError> for CommitError {
    fn from(e: WalError) -> Self {
        CommitError::Wal(e)
    }
}

/// What one checkpoint did.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// Epoch the snapshot captured.
    pub epoch: u64,
    /// Snapshot bytes written.
    pub snapshot_bytes: u64,
    /// Log segments deleted (their records are covered by the snapshot).
    pub segments_removed: u64,
    /// Active segment id after the checkpoint's rotation.
    pub segment: u64,
    /// Wall-clock cost, microseconds.
    pub micros: u64,
}

/// What a [`crate::LiveEngine::recover`] replayed.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Epoch the recovered engine serves (snapshot epoch + replayed records).
    pub epoch: u64,
    /// Leadership term re-established by recovery: the maximum of the
    /// durable term marker and the terms carried by replayed records (terms
    /// may only rise across the replay — a regression is a fenced zombie's
    /// write and fails recovery).
    pub term: u64,
    /// Log records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Individual mutations inside those records.
    pub mutations_replayed: u64,
    /// Torn-tail bytes truncated from the final segment (0 on a clean log).
    pub truncated_bytes: u64,
    /// Whether a clean-shutdown marker vouched for the log tail (boot then
    /// skips torn-tail tolerance and treats any anomaly as corruption).
    pub clean_shutdown: bool,
    /// Wall-clock cost of the whole recovery, microseconds.
    pub micros: u64,
}

/// A point-in-time view of the WAL for `/stats`, `/healthz` and admin
/// replies.
#[derive(Debug, Clone)]
pub struct WalStats {
    /// The WAL directory.
    pub dir: PathBuf,
    /// Configured sync policy.
    pub sync: SyncPolicy,
    /// Live segment files.
    pub segments: u64,
    /// Bytes across segment files.
    pub log_bytes: u64,
    /// Bytes across snapshot files.
    pub snapshot_bytes: u64,
    /// Epoch of the newest checkpoint.
    pub last_checkpoint_epoch: u64,
    /// Records appended since this process opened the log.
    pub appended_records: u64,
    /// Epoch of the served (durably applied) state — the point a replication
    /// follower of this node would converge to.
    pub last_applied_epoch: u64,
    /// Segment id of the WAL tail (where the next record lands).
    pub tail_segment: u64,
    /// Byte offset of the WAL tail within `tail_segment`.
    pub tail_offset: u64,
}

/// Pre-bound WAL instruments in the engine's shared registry.
#[derive(Debug)]
pub(crate) struct WalObs {
    enabled: bool,
    appended_bytes: Arc<Counter>,
    appends: Arc<Counter>,
    fsync_micros: Arc<Histogram>,
    segments: Arc<Gauge>,
    checkpoints: Arc<Counter>,
    checkpoint_micros: Arc<Histogram>,
    last_checkpoint_epoch: Arc<Gauge>,
}

impl WalObs {
    pub(crate) fn new(engine: &SacEngine) -> WalObs {
        let registry = engine.metrics();
        WalObs {
            enabled: engine.observing(),
            appended_bytes: registry.counter(
                "sac_wal_appended_bytes_total",
                "Record bytes appended to the write-ahead log",
                &[],
            ),
            appends: registry.counter(
                "sac_wal_appends_total",
                "Records appended to the write-ahead log",
                &[],
            ),
            fsync_micros: registry.histogram(
                "sac_wal_fsync_micros",
                "WAL fsync latency, microseconds",
                &[],
            ),
            segments: registry.gauge("sac_wal_segments", "Live WAL segment files on disk", &[]),
            checkpoints: registry.counter(
                "sac_wal_checkpoints_total",
                "Snapshot checkpoints written",
                &[],
            ),
            checkpoint_micros: registry.histogram(
                "sac_wal_checkpoint_micros",
                "Checkpoint wall-clock cost, microseconds",
                &[],
            ),
            last_checkpoint_epoch: registry.gauge(
                "sac_wal_last_checkpoint_epoch",
                "Epoch captured by the newest snapshot checkpoint",
                &[],
            ),
        }
    }
}

/// The live engine's WAL-side state: the writer plus checkpoint bookkeeping.
/// Held behind the engine handle's own mutex; the commit path appends while
/// the write-front lock is held, so records and epoch swaps stay in lockstep.
#[derive(Debug)]
pub(crate) struct WalState {
    pub(crate) writer: WalWriter,
    pub(crate) config: Durability,
    pub(crate) obs: WalObs,
    pub(crate) commits_since_checkpoint: u64,
    pub(crate) last_checkpoint_epoch: u64,
    pub(crate) appended_records: u64,
    pub(crate) appended_bytes: u64,
    /// Oldest live segment id (checkpoints advance it), so the segment gauge
    /// needs no directory scan on the commit path.
    pub(crate) first_live_segment: u64,
}

impl WalState {
    /// Folds one append's facts into counters and metrics.
    pub(crate) fn note_append(&mut self, info: &AppendInfo) {
        self.appended_records += 1;
        self.appended_bytes += info.bytes;
        if self.obs.enabled {
            self.obs.appends.inc();
            self.obs.appended_bytes.add(info.bytes);
            if info.synced {
                self.obs.fsync_micros.record(info.sync_micros);
            }
            let live = info.segment.saturating_sub(self.first_live_segment) + 1;
            self.obs.segments.set(live as i64);
        }
    }

    /// Records a finished checkpoint into metrics and resets the cadence.
    pub(crate) fn note_checkpoint(&mut self, report: &CheckpointReport, segments_now: u64) {
        self.commits_since_checkpoint = 0;
        self.last_checkpoint_epoch = report.epoch;
        if self.obs.enabled {
            self.obs.checkpoints.inc();
            self.obs.checkpoint_micros.record(report.micros);
            self.obs.last_checkpoint_epoch.set(report.epoch as i64);
            self.obs.segments.set(segments_now as i64);
        }
    }
}
