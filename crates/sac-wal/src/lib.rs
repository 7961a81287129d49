//! `sac-wal`: the durability layer of the sackit serving stack — a
//! write-ahead delta log, binary snapshot checkpoints, and the pieces a
//! crash recovery needs to rebuild engine state **bit-identical** to the
//! pre-crash epoch.
//!
//! Design in one paragraph: every live-engine commit appends one
//! length-prefixed, CRC32-checksummed, epoch-stamped [`DeltaRecord`] to the
//! active segment file *before* the epoch swap publishes the commit.  A
//! checkpoint serializes the current epoch's graph (positions, CSR
//! adjacency, core numbers) into a [`snapshot`] file with one adjacency
//! frame, rotates to a fresh segment, and deletes every strictly older
//! segment.  Recovery loads the newest snapshot, replays the records
//! whose epoch exceeds it, and hands the result back to the engine.  A
//! partial final record (crash mid-append) is truncated away on open; any
//! other checksum or framing anomaly is a hard [`WalError::Corrupt`].  A
//! clean-shutdown marker written by graceful exits lets boot skip the tail
//! scan entirely.
//!
//! The crate is dependency-free beyond `sac-geom`/`sac-graph` (no serde, no
//! crc crate — the CRC-32 table lives in [`crc`]) and deliberately knows
//! nothing about `sac-live`: it logs plain [`WalOp`]s and returns plain
//! facts ([`AppendInfo`], [`ReplayLog`]) so the live engine owns policy,
//! metrics, and event reporting.

#![warn(missing_docs)]
#![deny(unsafe_code)] // granted back, narrowly, inside `signals`

pub mod crc;
mod log;
mod record;
pub mod signals;
pub mod snapshot;

pub use log::{
    clear_clean_marker, list_segments, read_clean_marker, read_log, read_tail, read_term_marker,
    segment_path, write_clean_marker, write_term_marker, AppendInfo, ReplayLog, SyncPolicy,
    TailChunk, TailFrame, WalWriter, DEFAULT_SEGMENT_BYTES,
};
pub use record::{DeltaRecord, WalOp, FRAME_HEADER_BYTES, MAX_RECORD_PAYLOAD};
pub use snapshot::{
    decode_snapshot, latest_snapshot, list_snapshots, read_snapshot, remove_snapshots_below,
    write_snapshot, SnapshotImage,
};

use std::path::{Path, PathBuf};

/// Errors surfaced by the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem failure.
    Io(std::io::Error),
    /// A log record failed its checksum or framing invariants somewhere
    /// other than a tolerated torn tail.  Recovery must not proceed.
    Corrupt {
        /// Segment the anomaly was found in.
        segment: u64,
        /// Byte offset of the offending frame.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A snapshot file failed validation.
    SnapshotCorrupt {
        /// The snapshot file (empty when the bytes were decoded in memory).
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// Recovery was requested from a directory holding no snapshot.
    NoSnapshot(PathBuf),
    /// The replayed log is inconsistent with the snapshot (an epoch gap —
    /// some records are missing).
    EpochGap {
        /// The epoch recovery expected next.
        expected: u64,
        /// The epoch the next record actually carried.
        found: u64,
    },
    /// A durability operation was invoked on an engine running without a
    /// WAL (`--wal-dir` not set).
    Disabled,
    /// The replayed log regresses its leadership term: a record carries a
    /// term lower than one already seen (or lower than the durable term
    /// marker).  This is the signature of a fenced zombie primary's stale
    /// writes; replaying them would fork history.
    TermRegression {
        /// The highest term recovery had established.
        expected: u64,
        /// The (lower) term the offending record carried.
        found: u64,
        /// Epoch of the offending record.
        epoch: u64,
    },
    /// A streaming reader asked for a log position that a checkpoint has
    /// already truncated away: the records it needs no longer exist, and it
    /// must re-bootstrap from a newer snapshot instead.  This is an expected
    /// signal on the replication path, not corruption.
    SnapshotRequired {
        /// The segment the reader tried to resume from.
        segment: u64,
        /// The oldest segment still on disk.
        oldest: u64,
    },
    /// The recovered state failed graph-level validation.
    Graph(sac_graph::GraphError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "WAL corruption in segment {segment} at offset {offset}: {detail}"
            ),
            WalError::SnapshotCorrupt { path, detail } if path.as_os_str().is_empty() => {
                write!(f, "corrupt snapshot: {detail}")
            }
            WalError::SnapshotCorrupt { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            WalError::NoSnapshot(dir) => write!(
                f,
                "no snapshot found under {} (nothing to recover)",
                dir.display()
            ),
            WalError::EpochGap { expected, found } => write!(
                f,
                "WAL epoch gap: expected record for epoch {expected}, found {found}"
            ),
            WalError::Disabled => write!(f, "durability is disabled (no --wal-dir)"),
            WalError::TermRegression {
                expected,
                found,
                epoch,
            } => write!(
                f,
                "WAL term regression: record for epoch {epoch} carries term {found} \
                 below the established term {expected} (fenced zombie writes)"
            ),
            WalError::SnapshotRequired { segment, oldest } => write!(
                f,
                "log position in segment {segment} predates the oldest live segment \
                 {oldest}: re-bootstrap from a newer snapshot"
            ),
            WalError::Graph(e) => write!(f, "recovered state failed validation: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<sac_graph::GraphError> for WalError {
    fn from(e: sac_graph::GraphError) -> Self {
        WalError::Graph(e)
    }
}

/// On-disk footprint of a WAL directory, for `/stats`, `/healthz`, and
/// metrics gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Number of live segment files.
    pub segments: u64,
    /// Total bytes across segment files.
    pub log_bytes: u64,
    /// Number of snapshot files (normally 1 after the first checkpoint).
    pub snapshots: u64,
    /// Total bytes across snapshot files.
    pub snapshot_bytes: u64,
    /// Whether a clean-shutdown marker is present.
    pub clean_marker: bool,
}

/// Scans `dir` and reports its durability footprint.
pub fn scan_dir(dir: &Path) -> std::io::Result<DirStats> {
    let mut stats = DirStats {
        clean_marker: read_clean_marker(dir).is_some(),
        ..DirStats::default()
    };
    for id in list_segments(dir)? {
        stats.segments += 1;
        stats.log_bytes += std::fs::metadata(segment_path(dir, id))?.len();
    }
    for (_, path) in list_snapshots(dir)? {
        stats.snapshots += 1;
        stats.snapshot_bytes += std::fs::metadata(path)?.len();
    }
    Ok(stats)
}

/// Whether `dir` holds recoverable state (a snapshot or any log segment).
pub fn has_state(dir: &Path) -> bool {
    latest_snapshot(dir).ok().flatten().is_some()
        || list_segments(dir).map(|s| !s.is_empty()).unwrap_or(false)
}
