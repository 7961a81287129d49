//! The live-update handle: a mutable write front over a [`SacEngine`].

use crate::durability::{
    CheckpointReport, CommitError, Durability, RecoveryReport, WalObs, WalState, WalStats,
};
use sac_engine::{EngineConfig, SacEngine};
use sac_geom::Point;
use sac_graph::{core_decomposition, DynamicGraph, EdgeChange, GraphError, SpatialGraph, VertexId};
use sac_obs::{Counter, Histogram, Span};
use sac_wal::{DeltaRecord, SnapshotImage, WalError, WalOp, WalWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Pre-bound commit-pipeline instruments, registered into the engine's
/// [`MetricsRegistry`](sac_engine::MetricsRegistry) at construction so the
/// whole serving stack shares one `/metrics` exposition.
#[derive(Debug)]
struct LiveObs {
    /// `sac_commits_total` — non-empty commits published.
    commits: Arc<Counter>,
    /// `sac_commit_micros` — end-to-end commit latency.
    commit_micros: Arc<Histogram>,
    /// `sac_commit_stage_micros{stage="snapshot_build"}` — CSR rebuild
    /// and positions copy time (the engine itself records the downstream
    /// `epoch_build`/`epoch_swap` publish stages).
    snapshot_build: Arc<Histogram>,
}

impl LiveObs {
    fn new(engine: &SacEngine) -> LiveObs {
        let registry = engine.metrics();
        LiveObs {
            commits: registry.counter("sac_commits_total", "Non-empty commits published", &[]),
            commit_micros: registry.histogram(
                "sac_commit_micros",
                "End-to-end commit latency (rebuild + publish), microseconds",
                &[],
            ),
            snapshot_build: registry.histogram(
                "sac_commit_stage_micros",
                "Commit pipeline stage latency, microseconds",
                &[("stage", "snapshot_build")],
            ),
        }
    }
}

/// What one [`LiveEngine::commit`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitReport {
    /// Epoch now being served (unchanged when the delta was empty).
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
    /// Vertices whose core number changed during the delta (sum over
    /// mutations; a vertex flapping up and down is counted every time).
    pub cores_changed: u64,
    /// Largest `k` whose k-core the delta may have touched; cached per-`k`
    /// indexes above this carried over to the new epoch.
    pub dirty_up_to: u32,
    /// Per-`k` component indexes carried across the swap.
    pub components_carried: u64,
    /// Per-`k` component indexes invalidated by the swap.
    pub components_invalidated: u64,
    /// Wall-clock cost of the commit (snapshot build + publish), in
    /// microseconds.
    pub micros: u64,
    /// Snapshot build (CSR rebuild + positions copy) share of `micros`.
    pub snapshot_build_micros: u64,
    /// Next-epoch build share of the engine-side publish (component
    /// carry-over + cache seeding).
    pub rebuild_micros: u64,
    /// Epoch-pointer swap share of the engine-side publish.
    pub swap_micros: u64,
}

/// Mutable state between two epochs: the maintained dynamic graph, the vertex
/// positions and the ops applied since the last commit, which are the next
/// WAL record.
#[derive(Debug)]
struct WriteFront {
    dynamic: DynamicGraph,
    positions: Vec<Point>,
    ops: Vec<WalOp>,
    dirty_up_to: u32,
    cores_changed: u64,
}

impl WriteFront {
    fn new(dynamic: DynamicGraph, positions: Vec<Point>) -> WriteFront {
        WriteFront {
            dynamic,
            positions,
            ops: Vec::new(),
            dirty_up_to: 0,
            cores_changed: 0,
        }
    }

    /// A front over the engine's current snapshot; the engine's memoised
    /// decomposition seeds the maintained core numbers, so no peel is paid.
    fn seeded(engine: &SacEngine) -> WriteFront {
        let snapshot = engine.snapshot();
        let dynamic = DynamicGraph::from_parts(snapshot.graph(), &engine.decomposition());
        WriteFront::new(dynamic, snapshot.positions().to_vec())
    }

    /// A front over a snapshot image (crash recovery and replica
    /// bootstraps).  The image's graph is peeled once, and a snapshot whose
    /// stored core numbers disagree with that peel is refused: every later
    /// incremental repair builds on these numbers.
    fn restore(image: SnapshotImage) -> Result<WriteFront, WalError> {
        let decomposition = core_decomposition(&image.graph);
        if decomposition.core_numbers() != image.core_numbers.as_slice() {
            return Err(WalError::SnapshotCorrupt {
                path: PathBuf::new(),
                detail: format!(
                    "stored core numbers of the epoch-{} snapshot disagree with its graph",
                    image.epoch
                ),
            });
        }
        let dynamic = DynamicGraph::from_parts(&image.graph, &decomposition);
        Ok(WriteFront::new(dynamic, image.positions))
    }

    /// Applies one mutation, repairing the core numbers incrementally, and
    /// records it for the next commit when it changed anything.  This is
    /// the only code that applies a [`WalOp`]: live writes, crash recovery
    /// and replica replay all come through here.
    fn apply(&mut self, op: WalOp) -> Result<EdgeChange, GraphError> {
        let change = match op {
            WalOp::InsertEdge(u, v) => self.dynamic.insert_edge(u, v)?,
            WalOp::RemoveEdge(u, v) => self.dynamic.remove_edge(u, v)?,
            WalOp::AddVertex(x, y) => {
                let position = Point::new(x, y);
                if !position.is_finite() {
                    let next = self.dynamic.num_vertices() as VertexId;
                    return Err(GraphError::InvalidPosition(next));
                }
                self.dynamic.add_vertex();
                self.positions.push(position);
                EdgeChange {
                    applied: true,
                    ..EdgeChange::default()
                }
            }
            WalOp::MoveVertex(v, x, y) => {
                let position = Point::new(x, y);
                let slot = self
                    .positions
                    .get_mut(v as usize)
                    .ok_or(GraphError::VertexOutOfRange(v))?;
                if !position.is_finite() {
                    return Err(GraphError::InvalidPosition(v));
                }
                // Position-only: core numbers are untouched (`dirty_up_to`
                // stays 0), and a move to the current position is a no-op.
                let applied = *slot != position;
                *slot = position;
                EdgeChange {
                    applied,
                    ..EdgeChange::default()
                }
            }
        };
        if change.applied {
            self.ops.push(op);
            self.dirty_up_to = self.dirty_up_to.max(change.dirty_up_to);
            self.cores_changed += change.changed.len() as u64;
        }
        Ok(change)
    }

    /// The immutable snapshot of the front: CSR adjacency plus a copy of the
    /// positions.
    fn snapshot(&self) -> Result<SpatialGraph, GraphError> {
        SpatialGraph::new(self.dynamic.to_graph(), self.positions.clone())
    }
}

/// A concurrent-safe live-update handle over a shared [`SacEngine`].
///
/// The handle owns the *write front*: a [`DynamicGraph`] (adjacency +
/// incrementally maintained core numbers) plus the vertex positions.  Edge
/// insertions/removals, vertex additions and moves are applied to the front
/// immediately — each one repairs the core numbers by walking only the
/// affected subcore — and are buffered as the next WAL record's [`WalOp`]s
/// until [`LiveEngine::commit`] rebuilds the immutable snapshot (CSR +
/// positions) once and publishes it as the engine's next epoch.  Queries running
/// against the engine never see the front: they finish on the epoch they
/// loaded, and the k-core index cache carries over every `k` entry the
/// commit did not touch.
///
/// The front is the one place a mutation is applied: crash recovery
/// ([`LiveEngine::recover`]) and replica replay feed logged [`WalOp`]s
/// through the same code the write methods use.
///
/// ```
/// use sac_engine::SacEngine;
/// use sac_live::LiveEngine;
/// use sac_geom::Point;
/// use std::sync::Arc;
///
/// let engine = Arc::new(SacEngine::new(sac_core::fixtures::figure3_graph()));
/// let live = LiveEngine::new(Arc::clone(&engine));
///
/// let v = live.add_vertex(Point::new(2.0, 2.0)).unwrap();
/// live.add_edge(v, sac_core::fixtures::figure3::Q).unwrap();
/// let report = live.commit().unwrap();
/// assert_eq!(report.epoch, 2);
/// assert_eq!(engine.snapshot().num_vertices(), 11);
/// ```
#[derive(Debug)]
pub struct LiveEngine {
    engine: Arc<SacEngine>,
    front: Mutex<WriteFront>,
    obs: LiveObs,
    /// Durability state (`None` without a WAL).  Lock order: `front` before
    /// `wal` — the commit path appends under both so records and epoch swaps
    /// stay in lockstep, and checkpoints quiesce commits via `front`.
    wal: Mutex<Option<WalState>>,
}

impl LiveEngine {
    /// A write front seeded from the engine's current snapshot; the engine's
    /// memoised decomposition seeds the maintained core numbers, so no peel is
    /// paid here.
    pub fn new(engine: Arc<SacEngine>) -> Self {
        let front = WriteFront::seeded(&engine);
        LiveEngine::with_front(engine, front)
    }

    fn with_front(engine: Arc<SacEngine>, front: WriteFront) -> LiveEngine {
        LiveEngine {
            obs: LiveObs::new(&engine),
            engine,
            front: Mutex::new(front),
            wal: Mutex::new(None),
        }
    }

    /// A live engine serving `front` as epoch `epoch` of a fresh engine: the
    /// front's ops are already in that epoch, so nothing stays pending.
    fn from_front(
        front: WriteFront,
        config: EngineConfig,
        epoch: u64,
    ) -> Result<LiveEngine, WalError> {
        let snapshot = front.snapshot().map_err(WalError::Graph)?;
        let decomposition = front.dynamic.decomposition();
        let engine = SacEngine::restored(Arc::new(snapshot), decomposition, config, epoch);
        let settled = WriteFront::new(front.dynamic, front.positions);
        Ok(LiveEngine::with_front(Arc::new(engine), settled))
    }

    /// A live engine (no WAL) serving a shipped snapshot image at its epoch:
    /// a replica's first bootstrap.
    pub(crate) fn restore(image: SnapshotImage, config: EngineConfig) -> Result<Self, WalError> {
        let epoch = image.epoch;
        LiveEngine::from_front(WriteFront::restore(image)?, config, epoch)
    }

    /// Replaces the front and the served epoch with a shipped snapshot image
    /// whose epoch is ahead of the served one (a replica re-bootstrap).  Every
    /// cached index is dropped.  Returns `Ok(false)`, changing nothing, once
    /// `stop` is raised; see [`LiveEngine::replay`].
    pub(crate) fn rebootstrap(
        &self,
        image: SnapshotImage,
        stop: &AtomicBool,
    ) -> Result<bool, WalError> {
        let epoch = image.epoch;
        let restored = WriteFront::restore(image)?;
        let snapshot = restored.snapshot().map_err(WalError::Graph)?;
        let mut front = self.lock_front();
        if stop.load(Ordering::SeqCst) {
            return Ok(false);
        }
        let served = self.engine.epoch();
        if epoch <= served {
            return Err(WalError::EpochGap {
                expected: served + 1,
                found: epoch,
            });
        }
        self.engine
            .publish_restored(Arc::new(snapshot), restored.dynamic.decomposition(), epoch);
        *front = restored;
        Ok(true)
    }

    /// Applies one shipped WAL record and commits it as the next epoch, all
    /// under the front lock: the replica tailer's path.  Returns `Ok(None)`,
    /// changing nothing, once `stop` is raised.  Promotion raises `stop`
    /// before it takes the same lock to attach its WAL, so no record can
    /// reach the engine without reaching the promoted front.
    ///
    /// A record that does not fit the front leaves it realigned with the
    /// served epoch and returns the error.
    pub(crate) fn replay(
        &self,
        record: &DeltaRecord,
        stop: &AtomicBool,
    ) -> Result<Option<CommitReport>, CommitError> {
        let mut front = self.lock_front();
        if stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let result = record
            .ops
            .iter()
            .try_for_each(|&op| front.apply(op).map(drop))
            .map_err(CommitError::Graph)
            .and_then(|()| self.commit_front(&mut front));
        if result.is_err() {
            *front = WriteFront::seeded(&self.engine);
        }
        result.map(Some)
    }

    fn lock_front(&self) -> MutexGuard<'_, WriteFront> {
        self.front.lock().expect("write front poisoned")
    }

    /// A write front with durability: every commit is logged to the WAL under
    /// `config.dir` before it publishes, and checkpoints run on the
    /// configured cadence.  A fresh directory gets an initial checkpoint of
    /// the current epoch so recovery always has a base snapshot; a directory
    /// holding previous state should go through [`LiveEngine::recover`]
    /// instead.
    pub fn with_durability(
        engine: Arc<SacEngine>,
        config: Durability,
    ) -> Result<LiveEngine, WalError> {
        let live = LiveEngine::new(engine);
        live.attach_wal(config, None)?;
        Ok(live)
    }

    /// Rebuilds a live engine from the durable state under `config.dir`:
    /// loads the newest snapshot, replays every WAL record past its epoch
    /// (torn tail truncated unless a clean-shutdown marker vouches for the
    /// log; any other anomaly is a hard error).  The recovered engine is
    /// **bit-identical** to the pre-crash epoch: core numbers and query
    /// answers all match, which the crash-recovery property test pins.
    pub fn recover(
        config: Durability,
        engine_config: EngineConfig,
    ) -> Result<(LiveEngine, RecoveryReport), WalError> {
        let start = Instant::now();
        let Some((snapshot_epoch, snapshot_path)) = sac_wal::latest_snapshot(&config.dir)? else {
            return Err(WalError::NoSnapshot(config.dir.clone()));
        };
        let image = sac_wal::read_snapshot(&snapshot_path)?;
        let clean_epoch = sac_wal::read_clean_marker(&config.dir);
        let marker_term = sac_wal::read_term_marker(&config.dir).unwrap_or(0);
        let log = sac_wal::read_log(&config.dir, clean_epoch.is_none())?;

        // Replay through the same apply the live path uses, then publish once.
        let mut front = WriteFront::restore(image)?;
        let mut epoch = snapshot_epoch;
        let mut term = marker_term;
        let mut records_replayed = 0u64;
        let mut mutations_replayed = 0u64;
        for record in &log.records {
            if record.epoch <= snapshot_epoch {
                continue; // superseded by the snapshot
            }
            if record.epoch != epoch + 1 {
                return Err(WalError::EpochGap {
                    expected: epoch + 1,
                    found: record.epoch,
                });
            }
            // Terms are monotone within one history: a record below the
            // established term is a fenced zombie's write — replaying it
            // would fork history, so recovery refuses.
            if record.term < term {
                return Err(WalError::TermRegression {
                    expected: term,
                    found: record.term,
                    epoch: record.epoch,
                });
            }
            term = record.term;
            for &op in &record.ops {
                front.apply(op).map_err(WalError::Graph)?;
            }
            mutations_replayed += record.ops.len() as u64;
            epoch = record.epoch;
            records_replayed += 1;
        }

        let live = LiveEngine::from_front(front, engine_config, epoch)?;
        live.engine.set_term(term);
        live.attach_wal(config, Some(snapshot_epoch))?;
        let report = RecoveryReport {
            snapshot_epoch,
            epoch,
            term,
            records_replayed,
            mutations_replayed,
            truncated_bytes: log.truncated_bytes,
            clean_shutdown: clean_epoch.is_some(),
            micros: start.elapsed().as_micros() as u64,
        };
        live.engine.events().publish(
            "recovery",
            format!(
                "snapshot_epoch={} epoch={} records={} mutations={} truncated_bytes={} clean={}",
                report.snapshot_epoch,
                report.epoch,
                report.records_replayed,
                report.mutations_replayed,
                report.truncated_bytes,
                report.clean_shutdown
            ),
        );
        Ok((live, report))
    }

    /// Opens the log for appending and installs the WAL state.  On a fresh
    /// directory (no snapshot yet), writes the base checkpoint.  Holds the
    /// front lock throughout, so the base checkpoint, the front and the
    /// served epoch are one state even while a replica tailer is replaying
    /// into this front (promotion attaches a WAL to a replica's front).
    pub(crate) fn attach_wal(
        &self,
        config: Durability,
        restored_from: Option<u64>,
    ) -> Result<(), WalError> {
        let _front = self.lock_front();
        let writer = WalWriter::open(&config.dir, config.sync)?;
        let first_live_segment = sac_wal::list_segments(&config.dir)?
            .first()
            .copied()
            .unwrap_or_else(|| writer.segment());
        let fresh = restored_from.is_none() && sac_wal::latest_snapshot(&config.dir)?.is_none();
        let segments = writer.segment().saturating_sub(first_live_segment) + 1;
        let state = WalState {
            obs: WalObs::new(&self.engine, restored_from.unwrap_or(0), segments),
            writer,
            config,
            commits_since_checkpoint: 0,
            first_live_segment,
        };
        let mut guard = self.wal.lock().expect("wal state poisoned");
        *guard = Some(state);
        if fresh {
            self.run_checkpoint(guard.as_mut().expect("just installed"))?;
        }
        Ok(())
    }

    /// Serializes the current epoch into a snapshot file, rotates the log,
    /// and deletes every segment strictly older than the new active one.
    /// Errors when durability is disabled.
    pub fn checkpoint(&self) -> Result<CheckpointReport, WalError> {
        // Quiesce commits so the snapshot and the segment cut are one
        // consistent point in the epoch sequence.
        let _front = self.lock_front();
        let mut guard = self.wal.lock().expect("wal state poisoned");
        let wal = guard.as_mut().ok_or(WalError::Disabled)?;
        self.run_checkpoint(wal)
    }

    /// Checkpoint body; the caller holds the locks that serialize commits.
    fn run_checkpoint(&self, wal: &mut WalState) -> Result<CheckpointReport, WalError> {
        let start = Instant::now();
        let snapshot = self.engine.snapshot();
        let decomposition = self.engine.decomposition();
        let epoch = self.engine.epoch();
        let snapshot_bytes = sac_wal::write_snapshot(
            &wal.config.dir,
            epoch,
            snapshot.graph(),
            snapshot.positions(),
            decomposition.core_numbers(),
        )?;
        // All records in pre-rotation segments carry epochs <= the snapshot's
        // (commits are serialized with this checkpoint), so everything below
        // the fresh segment is superseded.
        wal.writer.rotate()?;
        let segments_removed = wal.writer.remove_segments_below(wal.writer.segment())?;
        sac_wal::remove_snapshots_below(&wal.config.dir, epoch)?;
        wal.first_live_segment = wal.writer.segment();
        let report = CheckpointReport {
            epoch,
            snapshot_bytes,
            segments_removed,
            segment: wal.writer.segment(),
            micros: start.elapsed().as_micros() as u64,
        };
        wal.note_checkpoint(&report, 1);
        self.engine.events().publish(
            "checkpoint",
            format!(
                "epoch={} bytes={} segments_removed={}",
                report.epoch, report.snapshot_bytes, report.segments_removed
            ),
        );
        Ok(report)
    }

    /// Durably adopts a new leadership term: mirrors it into the WAL
    /// directory's term marker **before** stamping it into the engine, so a
    /// crash between the two leaves the stricter state (recovery
    /// re-establishes at least this term, and any record logged under it
    /// satisfies the monotonicity check).  Terms never regress: adopting a
    /// term at or below the current one is a no-op.  Errors when durability
    /// is disabled — a promotion without a WAL could not fence anything.
    pub fn adopt_term(&self, term: u64) -> Result<(), WalError> {
        if term <= self.engine.term() {
            return Ok(());
        }
        let guard = self.wal.lock().expect("wal state poisoned");
        let wal = guard.as_ref().ok_or(WalError::Disabled)?;
        sac_wal::write_term_marker(&wal.config.dir, term)?;
        self.engine.set_term(term);
        Ok(())
    }

    /// Flushes and fsyncs the WAL and writes the clean-shutdown marker, so
    /// the next boot can skip torn-tail scanning.  Returns `false` (and does
    /// nothing) when durability is disabled.  Mutations still buffered in
    /// the write front are *not* committed — uncommitted work is volatile by
    /// design.
    pub fn shutdown_flush(&self) -> Result<bool, WalError> {
        let _front = self.lock_front();
        let mut guard = self.wal.lock().expect("wal state poisoned");
        let Some(wal) = guard.as_mut() else {
            return Ok(false);
        };
        wal.writer.sync()?;
        sac_wal::write_clean_marker(&wal.config.dir, self.engine.epoch())?;
        Ok(true)
    }

    /// A point-in-time view of the WAL (`None` when durability is disabled).
    pub fn wal_stats(&self) -> Option<WalStats> {
        let guard = self.wal.lock().expect("wal state poisoned");
        let wal = guard.as_ref()?;
        let dir = sac_wal::scan_dir(&wal.config.dir).unwrap_or_default();
        Some(WalStats {
            dir: wal.config.dir.clone(),
            sync: wal.config.sync,
            segments: dir.segments,
            log_bytes: dir.log_bytes,
            snapshot_bytes: dir.snapshot_bytes,
            last_checkpoint_epoch: wal.obs.last_checkpoint_epoch.get() as u64,
            appended_records: wal.obs.appends.get(),
            last_applied_epoch: self.engine.epoch(),
            tail_segment: wal.writer.segment(),
            tail_offset: wal.writer.segment_offset(),
        })
    }

    /// The engine this handle publishes into.
    pub fn engine(&self) -> &Arc<SacEngine> {
        &self.engine
    }

    /// Number of mutations buffered since the last commit.
    pub fn pending(&self) -> usize {
        self.lock_front().ops.len()
    }

    /// Inserts the undirected edge `{u, v}` into the write front.
    ///
    /// Returns the incremental core repair (`applied == false` for self-loops
    /// and already-present edges); errors when an endpoint does not exist.
    pub fn add_edge(&self, u: VertexId, v: VertexId) -> Result<EdgeChange, GraphError> {
        self.lock_front().apply(WalOp::InsertEdge(u, v))
    }

    /// Removes the undirected edge `{u, v}` from the write front.
    pub fn remove_edge(&self, u: VertexId, v: VertexId) -> Result<EdgeChange, GraphError> {
        self.lock_front().apply(WalOp::RemoveEdge(u, v))
    }

    /// Adds a new vertex at `position` (core number 0 until edges attach it)
    /// and returns its id.
    pub fn add_vertex(&self, position: Point) -> Result<VertexId, GraphError> {
        let mut front = self.lock_front();
        front.apply(WalOp::AddVertex(position.x, position.y))?;
        Ok(front.dynamic.num_vertices() as VertexId - 1)
    }

    /// Moves an existing vertex to `position` — a **position-only** update:
    /// core numbers are untouched, so the commit publishing it is
    /// position-only (`dirty_up_to` stays 0 and every per-`k` index carries over).
    ///
    /// Moving a vertex to its current position is a no-op (`Ok(false)`).
    pub fn move_vertex(&self, v: VertexId, position: Point) -> Result<bool, GraphError> {
        let change = self
            .lock_front()
            .apply(WalOp::MoveVertex(v, position.x, position.y))?;
        Ok(change.applied)
    }

    /// Rebuilds the immutable snapshot from the write front and publishes it
    /// as the engine's next epoch.
    ///
    /// The CSR adjacency is rebuilt and the positions copied once per commit
    /// (`O(n + m)`), but the core decomposition is **not** recomputed —
    /// the incrementally maintained numbers are published as-is, and the
    /// engine carries over every cached per-`k` component index the delta did
    /// not touch.  An empty delta publishes nothing and reports the current
    /// epoch.
    ///
    /// With durability enabled, the delta's record is appended to the WAL
    /// (and fsynced per the [`sac_wal::SyncPolicy`]) **before** the epoch
    /// swap: a crash after the append replays the commit, a crash before it
    /// loses only what was never acknowledged.  A WAL append failure leaves
    /// the mutations buffered and publishes nothing.
    pub fn commit(&self) -> Result<CommitReport, CommitError> {
        self.commit_front(&mut self.lock_front())
    }

    /// Commit body; the caller holds the front lock.
    fn commit_front(&self, front: &mut WriteFront) -> Result<CommitReport, CommitError> {
        if front.ops.is_empty() {
            return Ok(CommitReport {
                epoch: self.engine.epoch(),
                ..CommitReport::default()
            });
        }
        let start = Instant::now();
        let build_span = Span::start(&self.obs.snapshot_build);
        let snapshot = front.snapshot()?;
        let decomposition = front.dynamic.decomposition();
        let snapshot_build_micros = build_span.finish();
        let dirty_up_to = front.dirty_up_to;
        // Write-ahead: the record must be on the log (durable per policy)
        // before the epoch swap makes the commit visible.  The wal lock is
        // held across the publish so a concurrent checkpoint can never cut
        // the log between this record and its epoch.
        let mut wal_guard = self.wal.lock().expect("wal state poisoned");
        if let Some(wal) = wal_guard.as_mut() {
            let record = DeltaRecord {
                epoch: self.engine.epoch() + 1,
                term: self.engine.term(),
                ops: front.ops.clone(),
            };
            // Nothing is published when the append fails.
            let info = wal
                .writer
                .append(&record)
                .map_err(|e| CommitError::Wal(e.into()))?;
            wal.note_append(&info);
        }
        let report = self
            .engine
            .publish(Arc::new(snapshot), decomposition, dirty_up_to);
        let ops = std::mem::take(&mut front.ops);
        let cores_changed = std::mem::take(&mut front.cores_changed);
        front.dirty_up_to = 0;
        self.obs.commits.inc();
        self.obs
            .commit_micros
            .record(start.elapsed().as_micros() as u64);
        if let Some(wal) = wal_guard.as_mut() {
            wal.commits_since_checkpoint += 1;
            if wal.config.checkpoint_every > 0
                && wal.commits_since_checkpoint >= wal.config.checkpoint_every
            {
                self.run_checkpoint(wal).map_err(CommitError::Wal)?;
            }
        }
        let count = |kind: fn(&WalOp) -> bool| ops.iter().filter(|op| kind(op)).count();
        Ok(CommitReport {
            epoch: report.epoch,
            mutations: ops.len(),
            edges_inserted: count(|op| matches!(op, WalOp::InsertEdge(..))),
            edges_removed: count(|op| matches!(op, WalOp::RemoveEdge(..))),
            vertices_added: count(|op| matches!(op, WalOp::AddVertex(..))),
            vertices_moved: count(|op| matches!(op, WalOp::MoveVertex(..))),
            cores_changed,
            dirty_up_to,
            components_carried: report.components_carried,
            components_invalidated: report.components_invalidated,
            micros: start.elapsed().as_micros() as u64,
            snapshot_build_micros,
            rebuild_micros: report.rebuild_micros,
            swap_micros: report.swap_micros,
        })
    }
}

// The handle is shared across writer threads alongside the engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LiveEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sac_core::fixtures::{figure3, figure3_graph};
    use sac_engine::{QueryBudget, SacRequest};
    use sac_graph::core_decomposition;

    fn live() -> LiveEngine {
        LiveEngine::new(Arc::new(SacEngine::new(figure3_graph())))
    }

    #[test]
    fn mutations_buffer_until_commit() {
        let live = live();
        let engine = Arc::clone(live.engine());
        let before = engine.snapshot();

        let v = live.add_vertex(Point::new(0.5, 0.5)).unwrap();
        live.add_edge(v, figure3::Q).unwrap();
        live.add_edge(v, figure3::A).unwrap();
        assert_eq!(live.pending(), 3);
        // The served snapshot is untouched until commit.
        assert_eq!(engine.snapshot().num_vertices(), before.num_vertices());

        let report = live.commit().unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(report.mutations, 3);
        assert_eq!(report.edges_inserted, 2);
        assert_eq!(report.vertices_added, 1);
        assert_eq!(live.pending(), 0);
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.num_vertices(), before.num_vertices() + 1);
        assert!(snapshot.graph().has_edge(v, figure3::Q));
        // Published core numbers equal a fresh decomposition.
        assert_eq!(
            engine.decomposition().core_numbers(),
            core_decomposition(snapshot.graph()).core_numbers()
        );
    }

    #[test]
    fn committed_updates_change_query_answers() {
        let live = live();
        let engine = Arc::clone(live.engine());
        // I (pendant) has no 2-core community on epoch 1.
        let req = SacRequest::builder(figure3::I, 2)
            .id(1)
            .budget(QueryBudget::exact())
            .build()
            .unwrap();
        assert!(engine.execute(&req).community().is_none());

        // Close the triangle F–G–H–I: now I belongs to a 2-core.
        live.add_edge(figure3::I, figure3::F).unwrap();
        let report = live.commit().unwrap();
        assert!(report.cores_changed >= 1);
        let response = engine.execute(&req);
        let community = response.community().expect("I joined a 2-core");
        assert!(community.contains(figure3::I));
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let live = live();
        let before = live.engine().epoch();
        let report = live.commit().unwrap();
        assert_eq!(report.epoch, before);
        assert_eq!(report.mutations, 0);
        assert_eq!(live.engine().epoch(), before);
    }

    #[test]
    fn noop_mutations_do_not_grow_the_delta() {
        let live = live();
        // Q–A already exists in the fixture.
        let change = live.add_edge(figure3::Q, figure3::A).unwrap();
        assert!(!change.applied);
        let change = live.remove_edge(figure3::Q, figure3::I).unwrap(); // absent edge
        assert!(!change.applied);
        assert_eq!(live.pending(), 0);
        assert!(live.add_edge(figure3::Q, 999).is_err());
        assert!(live.add_vertex(Point::new(f64::NAN, 0.0)).is_err());
        assert_eq!(live.pending(), 0);
    }

    #[test]
    fn move_vertex_publishes_grid_only_epochs() {
        let live = live();
        let engine = Arc::clone(live.engine());
        engine.warm(&[1, 2]);
        // Position-only update: no core maintenance, dirty_up_to stays 0.
        assert!(live
            .move_vertex(figure3::Q, Point::new(10.0, 10.0))
            .unwrap());
        assert!(!live
            .move_vertex(figure3::Q, Point::new(10.0, 10.0))
            .unwrap());
        let report = live.commit().unwrap();
        assert_eq!(report.vertices_moved, 1);
        assert_eq!(report.dirty_up_to, 0);
        assert_eq!(report.cores_changed, 0);
        // Position-only: every warmed per-k index carried across.
        assert_eq!(report.components_carried, 2);
        assert_eq!(report.components_invalidated, 0);
        // The new position is live in the snapshot, and only Q moved.
        let snapshot = engine.snapshot();
        let mut expected = figure3_graph().positions().to_vec();
        expected[figure3::Q as usize] = Point::new(10.0, 10.0);
        assert_eq!(snapshot.positions(), &expected[..]);
        // Invalid moves are typed errors.
        assert!(live.move_vertex(999, Point::ORIGIN).is_err());
        assert!(live
            .move_vertex(figure3::Q, Point::new(f64::NAN, 0.0))
            .is_err());
    }

    #[test]
    fn commit_pipeline_records_into_the_shared_registry() {
        let live = live();
        assert!(live.add_edge(figure3::I, figure3::F).unwrap().applied);
        live.commit().unwrap();
        // Commit series land in the engine's registry, so one exposition
        // covers the whole serving stack.
        let text = live.engine().metrics_text();
        for needle in [
            "sac_commits_total 1",
            "sac_commit_micros_count 1",
            "sac_commit_stage_micros_count{stage=\"snapshot_build\"} 1",
            // The engine's own publish stages fired under this commit.
            "sac_publish_stage_micros_count{stage=\"epoch_build\"} 1",
            "sac_publish_stage_micros_count{stage=\"epoch_swap\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn selective_invalidation_carries_untouched_k() {
        let live = live();
        let engine = Arc::clone(live.engine());
        engine.warm(&[1, 2]);

        // Removing the pendant edge H–I only dirties k <= 1.
        live.remove_edge(figure3::H, figure3::I).unwrap();
        let report = live.commit().unwrap();
        assert_eq!((report.mutations, report.edges_removed), (1, 1));
        assert_eq!(report.dirty_up_to, 1);
        assert_eq!(report.components_carried, 1); // k = 2 survived
        assert_eq!(report.components_invalidated, 1); // k = 1 dropped
    }
}
