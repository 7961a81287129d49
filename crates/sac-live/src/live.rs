//! The live-update handle: a mutable write front over a [`SacEngine`].

use crate::delta::{GraphDelta, Mutation};
use crate::durability::{
    wal_ops, CheckpointReport, CommitError, Durability, RecoveryReport, WalObs, WalState, WalStats,
};
use sac_engine::{EngineConfig, SacEngine};
use sac_geom::Point;
use sac_graph::{
    BatchChange, BatchOp, BatchStrategy, CoreDecomposition, DynamicGraph, EdgeChange, GraphError,
    ShardMap, SpatialGraph, VertexId,
};
use sac_obs::{Counter, Histogram, Span};
use sac_wal::{DeltaRecord, SnapshotFrame, WalError, WalOp, WalWriter};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Pre-bound commit-pipeline instruments, registered into the engine's
/// [`MetricsRegistry`](sac_engine::MetricsRegistry) at construction so the
/// whole serving stack shares one `/metrics` exposition.
#[derive(Debug)]
struct LiveObs {
    /// Whether the engine runs with observability enabled.
    enabled: bool,
    /// `sac_commits_total` — non-empty commits published.
    commits: Arc<Counter>,
    /// `sac_commit_micros` — end-to-end commit latency.
    commit_micros: Arc<Histogram>,
    /// `sac_commit_stage_micros{stage="snapshot_build"}` — CSR + grid
    /// rebuild time (the engine itself records the downstream
    /// `shard_rebuild`/`epoch_swap` publish stages).
    snapshot_build: Arc<Histogram>,
    /// `sac_commit_dirty_shards_total` — shard snapshots marked dirty.
    dirty_shards: Arc<Counter>,
    /// `sac_batch_applies_total{strategy=…}` per repair strategy chosen.
    shared_peel_applies: Arc<Counter>,
    per_edge_applies: Arc<Counter>,
    /// `sac_batch_repair_micros{strategy=…}` — core-repair time per strategy.
    shared_peel_repair: Arc<Histogram>,
    per_edge_repair: Arc<Histogram>,
}

impl LiveObs {
    fn new(engine: &SacEngine) -> LiveObs {
        let registry = engine.metrics();
        LiveObs {
            enabled: engine.observing(),
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
            dirty_shards: registry.counter(
                "sac_commit_dirty_shards_total",
                "Shard snapshots rebuilt because a mutation touched their coverage",
                &[],
            ),
            shared_peel_applies: registry.counter(
                "sac_batch_applies_total",
                "Bulk delta applies by chosen core-repair strategy",
                &[("strategy", "shared_peel")],
            ),
            per_edge_applies: registry.counter(
                "sac_batch_applies_total",
                "Bulk delta applies by chosen core-repair strategy",
                &[("strategy", "per_edge")],
            ),
            shared_peel_repair: registry.histogram(
                "sac_batch_repair_micros",
                "Core-repair time of bulk delta applies, microseconds",
                &[("strategy", "shared_peel")],
            ),
            per_edge_repair: registry.histogram(
                "sac_batch_repair_micros",
                "Core-repair time of bulk delta applies, microseconds",
                &[("strategy", "per_edge")],
            ),
        }
    }
}

/// What one [`LiveEngine::commit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Shard snapshots rebuilt for the new epoch (0 on unsharded engines).
    pub shards_rebuilt: u32,
    /// Shard snapshots carried unchanged (their region saw no mutation).
    pub shards_carried: u32,
    /// Wall-clock cost of the commit (CSR + spatial-index rebuild + publish),
    /// in microseconds.
    pub micros: u64,
    /// CSR + spatial-grid rebuild share of `micros`.
    pub snapshot_build_micros: u64,
    /// Shard/cache rebuild share of the engine-side publish.
    pub rebuild_micros: u64,
    /// Epoch-pointer swap share of the engine-side publish.
    pub swap_micros: u64,
}

/// What one [`LiveEngine::apply_batch`] did (the bulk counterpart of the
/// per-mutation [`sac_graph::EdgeChange`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchApplyReport {
    /// Ops submitted.
    pub ops: usize,
    /// Ops that changed the graph (no-ops dropped).
    pub applied: usize,
    /// Vertices whose core number changed across the batch.
    pub cores_changed: usize,
    /// Dirty bound the batch contributed to the pending delta.
    pub dirty_up_to: u32,
    /// Whether the shared-peel strategy repaired the cores (`false` =
    /// per-edge cascades).
    pub recomputed: bool,
    /// Wall-clock cost of the core repair (the shared peel, or the per-edge
    /// cascade loop), in microseconds.
    pub repair_micros: u64,
}

/// Mutable state between two epochs: the maintained dynamic graph, the vertex
/// positions, the record of what changed, and which shards the changes
/// touched.
#[derive(Debug)]
struct WriteFront {
    dynamic: DynamicGraph,
    positions: Vec<Point>,
    delta: GraphDelta,
    dirty_up_to: u32,
    cores_changed: u64,
    /// Per-shard dirty flags (empty on unsharded engines): a shard is dirty
    /// when a mutation touched a position inside its coverage (region +
    /// halo), so its induced snapshot must be rebuilt at commit.
    dirty_shards: Vec<bool>,
}

impl WriteFront {
    /// Marks every shard whose coverage contains `p` dirty.
    fn mark_dirty(&mut self, map: &Option<Arc<ShardMap>>, p: Point) {
        if let Some(map) = map {
            for s in map.shards_covering(p) {
                self.dirty_shards[s as usize] = true;
            }
        }
    }
}

/// A concurrent-safe live-update handle over a shared [`SacEngine`].
///
/// The handle owns the *write front*: a [`DynamicGraph`] (adjacency +
/// incrementally maintained core numbers) plus the vertex positions.  Edge
/// insertions/removals and vertex additions are applied to the front
/// immediately — each one repairs the core numbers by walking only the
/// affected subcore — and are batched into a [`GraphDelta`] until
/// [`LiveEngine::commit`] rebuilds the immutable snapshot (CSR + grid index)
/// once and publishes it as the engine's next epoch.  Queries running against
/// the engine never see the front: they finish on the epoch they loaded, and
/// the k-core index cache carries over every `k` entry the delta did not
/// touch.
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
    /// The engine's spatial partitioner, captured once (it is stable across
    /// epochs); used to mark dirty shards as mutations arrive.
    map: Option<Arc<ShardMap>>,
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
        let snapshot = engine.snapshot();
        let decomposition = engine.decomposition();
        let dynamic = DynamicGraph::from_parts(snapshot.graph(), &decomposition);
        let positions = snapshot.positions().to_vec();
        let map = engine.shard_map();
        let shard_count = map.as_ref().map_or(0, |m| m.num_shards());
        let obs = LiveObs::new(&engine);
        LiveEngine {
            engine,
            map,
            obs,
            front: Mutex::new(WriteFront {
                dynamic,
                positions,
                delta: GraphDelta::new(),
                dirty_up_to: 0,
                cores_changed: 0,
                dirty_shards: vec![false; shard_count],
            }),
            wal: Mutex::new(None),
        }
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
    /// log; any other anomaly is a hard error), and restores the serialized
    /// shard partition.  The recovered engine is **bit-identical** to the
    /// pre-crash epoch: core numbers, shard layout and query answers all
    /// match, which the crash-recovery property test pins.
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

        // Replay through the same incremental maintenance the live path uses.
        let decomposition = CoreDecomposition::from_core_numbers(image.core_numbers);
        let mut dynamic = DynamicGraph::from_parts(&image.graph, &decomposition);
        let mut positions = image.positions;
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
            for op in &record.ops {
                match *op {
                    WalOp::InsertEdge(u, v) => {
                        dynamic.insert_edge(u, v).map_err(WalError::Graph)?;
                    }
                    WalOp::RemoveEdge(u, v) => {
                        dynamic.remove_edge(u, v).map_err(WalError::Graph)?;
                    }
                    WalOp::AddVertex(x, y) => {
                        dynamic.add_vertex();
                        positions.push(Point::new(x, y));
                    }
                    WalOp::MoveVertex(v, x, y) => {
                        if v as usize >= positions.len() {
                            return Err(WalError::Graph(GraphError::VertexOutOfRange(v)));
                        }
                        positions[v as usize] = Point::new(x, y);
                    }
                }
                mutations_replayed += 1;
            }
            epoch = record.epoch;
            records_replayed += 1;
        }

        let snapshot = SpatialGraph::new(dynamic.to_graph(), positions).map_err(WalError::Graph)?;
        let map = image.map.map(Arc::new);
        let engine = Arc::new(SacEngine::restored(
            Arc::new(snapshot),
            engine_config,
            map,
            epoch,
        ));
        engine.set_term(term);
        let live = LiveEngine::new(Arc::clone(&engine));
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
        if engine.observing() {
            engine.events().publish(
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
        }
        Ok((live, report))
    }

    /// Opens the log for appending and installs the WAL state.  On a fresh
    /// directory (no snapshot yet), writes the base checkpoint.
    fn attach_wal(&self, config: Durability, restored_from: Option<u64>) -> Result<(), WalError> {
        let writer = WalWriter::open(&config.dir, config.sync)?;
        let first_live_segment = sac_wal::list_segments(&config.dir)?
            .first()
            .copied()
            .unwrap_or_else(|| writer.segment());
        let shard_count = self.map.as_ref().map_or(0, |m| m.num_shards());
        let fresh = restored_from.is_none() && sac_wal::latest_snapshot(&config.dir)?.is_none();
        let state = WalState {
            writer,
            config,
            obs: WalObs::new(&self.engine),
            commits_since_checkpoint: 0,
            last_checkpoint_epoch: restored_from.unwrap_or(0),
            last_checkpoint_vertices: usize::MAX,
            frames: Vec::new(),
            dirty_since_checkpoint: vec![true; shard_count],
            appended_records: 0,
            appended_bytes: 0,
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
    /// Shard frames untouched since the previous checkpoint are reused
    /// verbatim.  Errors when durability is disabled.
    pub fn checkpoint(&self) -> Result<CheckpointReport, WalError> {
        // Quiesce commits so the snapshot and the segment cut are one
        // consistent point in the epoch sequence.
        let _front = self.front.lock().expect("write front poisoned");
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
        let graph = snapshot.graph();
        let positions = snapshot.positions();
        let map = self.map.as_deref();
        let n = graph.num_vertices();
        let expected = map.map_or(1, |m| m.num_shards());
        let full = wal.last_checkpoint_vertices != n || wal.frames.len() != expected;
        let mut frames_encoded = 0u32;
        let mut frames_reused = 0u32;
        // The cache moves out for the duration: clean frames are reused by
        // move, and a failed write leaves it empty, forcing a full encode.
        let cached = std::mem::take(&mut wal.frames);
        let frames: Vec<SnapshotFrame> = if full {
            frames_encoded = expected as u32;
            sac_wal::encode_frames(graph, positions, map)
        } else {
            cached
                .into_iter()
                .enumerate()
                .map(|(s, frame)| {
                    let dirty = wal.dirty_since_checkpoint.get(s).copied().unwrap_or(true);
                    if dirty {
                        frames_encoded += 1;
                        sac_wal::encode_frame(graph, positions, map, s as u32)
                    } else {
                        frames_reused += 1;
                        frame
                    }
                })
                .collect()
        };
        let snapshot_bytes = sac_wal::write_snapshot(
            &wal.config.dir,
            epoch,
            positions,
            decomposition.core_numbers(),
            map,
            &frames,
        )?;
        // All records in pre-rotation segments carry epochs <= the snapshot's
        // (commits are serialized with this checkpoint), so everything below
        // the fresh segment is superseded.
        wal.writer.rotate()?;
        let segments_removed = wal.writer.remove_segments_below(wal.writer.segment())?;
        sac_wal::remove_snapshots_below(&wal.config.dir, epoch)?;
        // Only shards have clean frames to reuse.  An unsharded engine
        // re-encodes its single frame every time, so caching it would pin
        // a full adjacency copy between checkpoints for nothing.
        if map.is_some() {
            wal.frames = frames;
        }
        wal.last_checkpoint_vertices = n;
        wal.first_live_segment = wal.writer.segment();
        let report = CheckpointReport {
            epoch,
            snapshot_bytes,
            frames_encoded,
            frames_reused,
            segments_removed,
            segment: wal.writer.segment(),
            micros: start.elapsed().as_micros() as u64,
        };
        wal.note_checkpoint(&report, 1);
        if self.engine.observing() {
            self.engine.events().publish(
                "checkpoint",
                format!(
                    "epoch={} bytes={} frames_encoded={} frames_reused={} segments_removed={}",
                    report.epoch,
                    report.snapshot_bytes,
                    report.frames_encoded,
                    report.frames_reused,
                    report.segments_removed
                ),
            );
        }
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
        let _front = self.front.lock().expect("write front poisoned");
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
            last_checkpoint_epoch: wal.last_checkpoint_epoch,
            appended_records: wal.appended_records,
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
        self.front.lock().expect("write front poisoned").delta.len()
    }

    /// A copy of the buffered delta (application order).
    pub fn pending_delta(&self) -> GraphDelta {
        self.front
            .lock()
            .expect("write front poisoned")
            .delta
            .clone()
    }

    /// Inserts the undirected edge `{u, v}` into the write front.
    ///
    /// Returns the incremental core repair (`applied == false` for self-loops
    /// and already-present edges); errors when an endpoint does not exist.
    pub fn add_edge(&self, u: VertexId, v: VertexId) -> Result<EdgeChange, GraphError> {
        let mut front = self.front.lock().expect("write front poisoned");
        let change = front.dynamic.insert_edge(u, v)?;
        if change.applied {
            front.delta.push(Mutation::InsertEdge(u, v));
            front.dirty_up_to = front.dirty_up_to.max(change.dirty_up_to);
            front.cores_changed += change.changed.len() as u64;
            for w in [u, v] {
                let p = front.positions[w as usize];
                front.mark_dirty(&self.map, p);
            }
        }
        Ok(change)
    }

    /// Removes the undirected edge `{u, v}` from the write front.
    pub fn remove_edge(&self, u: VertexId, v: VertexId) -> Result<EdgeChange, GraphError> {
        let mut front = self.front.lock().expect("write front poisoned");
        let change = front.dynamic.remove_edge(u, v)?;
        if change.applied {
            front.delta.push(Mutation::RemoveEdge(u, v));
            front.dirty_up_to = front.dirty_up_to.max(change.dirty_up_to);
            front.cores_changed += change.changed.len() as u64;
            for w in [u, v] {
                let p = front.positions[w as usize];
                front.mark_dirty(&self.map, p);
            }
        }
        Ok(change)
    }

    /// Applies a whole batch of edge mutations in one pass: the core numbers
    /// are repaired once for the delta (shared `O(n + m)` peel for heavy
    /// batches) instead of once per edge — see
    /// [`sac_graph::DynamicGraph::apply_batch_with`].  The applied ops join
    /// the pending delta exactly as the equivalent single-edge calls would.
    pub fn apply_batch(&self, ops: &[BatchOp]) -> Result<BatchApplyReport, GraphError> {
        self.apply_batch_with(ops, BatchStrategy::Auto)
    }

    /// [`LiveEngine::apply_batch`] with an explicit repair strategy.
    pub fn apply_batch_with(
        &self,
        ops: &[BatchOp],
        strategy: BatchStrategy,
    ) -> Result<BatchApplyReport, GraphError> {
        let mut front = self.front.lock().expect("write front poisoned");
        let change: BatchChange = front.dynamic.apply_batch_with(ops, strategy)?;
        for op in &change.applied {
            let (u, v) = op.endpoints();
            front.delta.push(match op {
                BatchOp::Insert(..) => Mutation::InsertEdge(u, v),
                BatchOp::Remove(..) => Mutation::RemoveEdge(u, v),
            });
            for w in [u, v] {
                let p = front.positions[w as usize];
                front.mark_dirty(&self.map, p);
            }
        }
        front.dirty_up_to = front.dirty_up_to.max(change.dirty_up_to);
        front.cores_changed += change.changed.len() as u64;
        if self.obs.enabled {
            let (applies, repair) = if change.recomputed {
                (&self.obs.shared_peel_applies, &self.obs.shared_peel_repair)
            } else {
                (&self.obs.per_edge_applies, &self.obs.per_edge_repair)
            };
            applies.inc();
            repair.record(change.repair_micros);
            let strategy = if change.recomputed {
                "shared_peel"
            } else {
                "per_edge"
            };
            self.engine.events().publish(
                "batch_apply",
                format!(
                    "strategy={} ops={} applied={} cores_changed={}",
                    strategy,
                    ops.len(),
                    change.applied.len(),
                    change.changed.len()
                ),
            );
        }
        Ok(BatchApplyReport {
            ops: ops.len(),
            applied: change.applied.len(),
            cores_changed: change.changed.len(),
            dirty_up_to: change.dirty_up_to,
            recomputed: change.recomputed,
            repair_micros: change.repair_micros,
        })
    }

    /// Adds a new vertex at `position` (core number 0 until edges attach it)
    /// and returns its id.
    pub fn add_vertex(&self, position: Point) -> Result<VertexId, GraphError> {
        let mut front = self.front.lock().expect("write front poisoned");
        if !position.is_finite() {
            return Err(GraphError::InvalidPosition(
                front.dynamic.num_vertices() as VertexId
            ));
        }
        let v = front.dynamic.add_vertex();
        front.positions.push(position);
        front.delta.push(Mutation::AddVertex(position));
        front.mark_dirty(&self.map, position);
        Ok(v)
    }

    /// Moves an existing vertex to `position` — a **position-only** update:
    /// core numbers are untouched, so the commit publishing it is grid-only
    /// (`dirty_up_to` stays 0 and every per-`k` index carries over).
    ///
    /// Moving a vertex to its current position is a no-op (`Ok(false)`).
    pub fn move_vertex(&self, v: VertexId, position: Point) -> Result<bool, GraphError> {
        let mut front = self.front.lock().expect("write front poisoned");
        if (v as usize) >= front.positions.len() {
            return Err(GraphError::VertexOutOfRange(v));
        }
        if !position.is_finite() {
            return Err(GraphError::InvalidPosition(v));
        }
        let old = front.positions[v as usize];
        if old == position {
            return Ok(false);
        }
        front.positions[v as usize] = position;
        front.delta.push(Mutation::MoveVertex(v, position));
        // Both the vacated and the entered shard coverages change.
        front.mark_dirty(&self.map, old);
        front.mark_dirty(&self.map, position);
        Ok(true)
    }

    /// Rebuilds the immutable snapshot from the write front and publishes it
    /// as the engine's next epoch.
    ///
    /// The CSR adjacency and the spatial grid index are rebuilt once per
    /// commit (`O(n + m)`), but the core decomposition is **not** recomputed —
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
        let mut front = self.front.lock().expect("write front poisoned");
        if front.delta.is_empty() {
            return Ok(CommitReport {
                epoch: self.engine.epoch(),
                mutations: 0,
                edges_inserted: 0,
                edges_removed: 0,
                vertices_added: 0,
                vertices_moved: 0,
                cores_changed: 0,
                dirty_up_to: 0,
                components_carried: 0,
                components_invalidated: 0,
                shards_rebuilt: 0,
                shards_carried: 0,
                micros: 0,
                snapshot_build_micros: 0,
                rebuild_micros: 0,
                swap_micros: 0,
            });
        }
        let start = Instant::now();
        let build_span = if self.obs.enabled {
            Span::start(&self.obs.snapshot_build)
        } else {
            Span::disabled()
        };
        let graph = front.dynamic.to_graph();
        let decomposition = front.dynamic.decomposition();
        let snapshot = SpatialGraph::new(graph, front.positions.clone())?;
        let snapshot_build_micros = build_span.finish();
        let dirty_up_to = front.dirty_up_to;
        // Clean shards (no mutation touched their coverage) carry their
        // induced snapshot across the epoch swap; only dirty ones rebuild.
        let dirty_shards = std::mem::take(&mut front.dirty_shards);
        // Write-ahead: the record must be on the log (durable per policy)
        // before the epoch swap makes the commit visible.  The wal lock is
        // held across the publish so a concurrent checkpoint can never cut
        // the log between this record and its epoch.
        let mut wal_guard = self.wal.lock().expect("wal state poisoned");
        if let Some(wal) = wal_guard.as_mut() {
            let record = DeltaRecord {
                epoch: self.engine.epoch() + 1,
                term: self.engine.term(),
                ops: wal_ops(&front.delta),
            };
            match wal.writer.append(&record) {
                Ok(info) => wal.note_append(&info, &dirty_shards),
                Err(e) => {
                    // Nothing published: restore the dirty flags so a retry
                    // still rebuilds the right shards.
                    front.dirty_shards = dirty_shards;
                    return Err(CommitError::Wal(e.into()));
                }
            }
        }
        let report = self.engine.publish_update(
            Arc::new(snapshot),
            decomposition,
            dirty_up_to,
            (!dirty_shards.is_empty()).then_some(dirty_shards.as_slice()),
        );
        front.dirty_shards = vec![false; dirty_shards.len()];
        let delta = std::mem::take(&mut front.delta);
        let cores_changed = std::mem::take(&mut front.cores_changed);
        front.dirty_up_to = 0;
        if self.obs.enabled {
            self.obs.commits.inc();
            self.obs
                .commit_micros
                .record(start.elapsed().as_micros() as u64);
            self.obs
                .dirty_shards
                .add(dirty_shards.iter().filter(|&&d| d).count() as u64);
        }
        if let Some(wal) = wal_guard.as_mut() {
            wal.commits_since_checkpoint += 1;
            if wal.config.checkpoint_every > 0
                && wal.commits_since_checkpoint >= wal.config.checkpoint_every
            {
                self.run_checkpoint(wal).map_err(CommitError::Wal)?;
            }
        }
        Ok(CommitReport {
            epoch: report.epoch,
            mutations: delta.len(),
            edges_inserted: delta.edges_inserted(),
            edges_removed: delta.edges_removed(),
            vertices_added: delta.vertices_added(),
            vertices_moved: delta.vertices_moved(),
            cores_changed,
            dirty_up_to,
            components_carried: report.components_carried,
            components_invalidated: report.components_invalidated,
            shards_rebuilt: report.shards_rebuilt,
            shards_carried: report.shards_carried,
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
        let req = SacRequest::new(1, figure3::I, 2).with_budget(QueryBudget::exact());
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
        // Grid-only: every warmed per-k index carried across.
        assert_eq!(report.components_carried, 2);
        assert_eq!(report.components_invalidated, 0);
        // The new position is live in the snapshot and its spatial index.
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.position(figure3::Q), Point::new(10.0, 10.0));
        assert!(snapshot
            .vertices_in_circle(&sac_geom::Circle::new(Point::new(10.0, 10.0), 0.1))
            .contains(&figure3::Q));
        // Invalid moves are typed errors.
        assert!(live.move_vertex(999, Point::ORIGIN).is_err());
        assert!(live
            .move_vertex(figure3::Q, Point::new(f64::NAN, 0.0))
            .is_err());
    }

    #[test]
    fn batch_apply_flows_into_the_delta() {
        use sac_graph::{connected_kcore, BatchOp};

        let live = live();
        let engine = Arc::clone(live.engine());
        let report = live
            .apply_batch(&[
                BatchOp::Insert(figure3::I, figure3::F), // closes a 2-core for I
                BatchOp::Insert(figure3::I, figure3::F), // duplicate: no-op
                BatchOp::Remove(figure3::Q, 999),        // would be an error
            ])
            .unwrap_err();
        // One bad endpoint poisons the whole batch, atomically.
        let _ = report;
        assert_eq!(live.pending(), 0);

        let report = live
            .apply_batch(&[
                BatchOp::Insert(figure3::I, figure3::F),
                BatchOp::Insert(figure3::I, figure3::F),
            ])
            .unwrap();
        assert_eq!(report.ops, 2);
        assert_eq!(report.applied, 1);
        assert!(report.cores_changed >= 1);
        assert_eq!(live.pending(), 1);
        let commit = live.commit().unwrap();
        assert_eq!(commit.edges_inserted, 1);
        // The published epoch answers like a fresh build.
        let snapshot = engine.snapshot();
        assert_eq!(
            engine.connected_core(figure3::I, 2),
            connected_kcore(snapshot.graph(), figure3::I, 2)
        );
    }

    #[test]
    fn sharded_commits_republish_only_dirty_shards() {
        use sac_engine::SacEngine;

        let engine = Arc::new(SacEngine::with_shards(figure3_graph(), 2));
        let live = LiveEngine::new(Arc::clone(&engine));
        // The fixture's left component (Q, A..E) and right component (F..I)
        // land in different shards under the median split.  Mutating only the
        // right component must leave the left shard's snapshot carried.
        live.remove_edge(figure3::H, figure3::I).unwrap();
        let report = live.commit().unwrap();
        assert_eq!(
            report.shards_rebuilt + report.shards_carried,
            2,
            "every shard accounted for"
        );
        assert!(report.shards_rebuilt >= 1);
        assert!(
            report.shards_carried >= 1,
            "a localized delta must carry the untouched shard"
        );
        // Queries still answer identically to an unsharded engine on the new
        // epoch.
        let unsharded = SacEngine::new(
            sac_graph::SpatialGraph::new(
                engine.snapshot().graph().clone(),
                engine.snapshot().positions().to_vec(),
            )
            .unwrap(),
        );
        for q in 0..10u32 {
            let req = SacRequest::new(1, q, 2).with_budget(QueryBudget::exact());
            assert_eq!(
                engine
                    .execute(&req)
                    .community()
                    .map(|c| c.members().to_vec()),
                unsharded
                    .execute(&req)
                    .community()
                    .map(|c| c.members().to_vec()),
                "q={q}"
            );
        }
        // Vertex additions invalidate every shard (id-space change).
        live.add_vertex(Point::new(0.5, 0.5)).unwrap();
        let report = live.commit().unwrap();
        assert_eq!(report.shards_rebuilt, 2);
        assert_eq!(report.shards_carried, 0);
    }

    #[test]
    fn commit_pipeline_records_into_the_shared_registry() {
        use sac_graph::BatchOp;

        let live = live();
        let report = live
            .apply_batch(&[BatchOp::Insert(figure3::I, figure3::F)])
            .unwrap();
        assert!(!report.recomputed, "tiny batches repair per edge");
        live.commit().unwrap();
        // Commit + batch series land in the engine's registry, so one
        // exposition covers the whole serving stack.
        let text = live.engine().metrics_text();
        for needle in [
            "sac_commits_total 1",
            "sac_commit_micros_count 1",
            "sac_commit_stage_micros_count{stage=\"snapshot_build\"} 1",
            "sac_batch_applies_total{strategy=\"per_edge\"} 1",
            "sac_batch_repair_micros_count{strategy=\"per_edge\"} 1",
            // The engine's own publish stages fired under this commit.
            "sac_publish_stage_micros_count{stage=\"epoch_swap\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // Unsharded engine: no shard was ever dirty.
        assert!(text.contains("sac_commit_dirty_shards_total 0"), "{text}");
    }

    #[test]
    fn sharded_commit_counts_dirty_shards() {
        let engine = Arc::new(SacEngine::with_shards(figure3_graph(), 2));
        let live = LiveEngine::new(Arc::clone(&engine));
        live.remove_edge(figure3::H, figure3::I).unwrap();
        let report = live.commit().unwrap();
        let text = engine.metrics_text();
        let expected = format!("sac_commit_dirty_shards_total {}", report.shards_rebuilt);
        assert!(text.contains(&expected), "missing {expected} in:\n{text}");
    }

    #[test]
    fn checkpoints_cache_frames_only_for_shards() {
        for shards in [0usize, 2] {
            let dir = std::env::temp_dir().join(format!(
                "sac-live-ckpt-frames-{shards}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let engine = Arc::new(match shards {
                0 => SacEngine::new(figure3_graph()),
                s => SacEngine::with_shards(figure3_graph(), s),
            });
            let durability = Durability {
                dir: dir.clone(),
                sync: sac_wal::SyncPolicy::Never,
                checkpoint_every: 0,
            };
            // A fresh directory gets its base checkpoint on attach.
            let live = LiveEngine::with_durability(engine, durability).unwrap();
            let cached = |live: &LiveEngine| {
                let guard = live.wal.lock().unwrap();
                guard.as_ref().unwrap().frames.len()
            };
            assert_eq!(cached(&live), shards);
            // Dirty only the right component's shard.
            live.remove_edge(figure3::H, figure3::I).unwrap();
            live.commit().unwrap();
            let report = live.checkpoint().unwrap();
            assert_eq!(cached(&live), shards);
            if shards == 0 {
                assert_eq!((report.frames_encoded, report.frames_reused), (1, 0));
            } else {
                assert_eq!(report.frames_encoded + report.frames_reused, 2);
                assert!(
                    report.frames_reused >= 1,
                    "the clean shard's frame is reused"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(report.dirty_up_to, 1);
        assert_eq!(report.components_carried, 1); // k = 2 survived
        assert_eq!(report.components_invalidated, 1); // k = 1 dropped
    }
}
