//! Log-shipping replication: a primary streams its write-ahead log to
//! read replicas over TCP; replicas apply the records through the same
//! write front crash recovery replays into and serve read-only queries at
//! their applied epoch.
//!
//! ## Topology
//!
//! ```text
//!             commits → WAL (segments on disk)
//!   primary ──────────────┬────────────────────────────
//!                         │ read_tail polling
//!                   [log shipper]  ── TCP ──►  [replica tailer]
//!                         │                        │ apply record,
//!                   heartbeats (epoch + tail)      │ commit epoch N
//!                                                  ▼
//!                                   LiveEngine (no WAL) → SacEngine (read-only)
//! ```
//!
//! * The **shipper** ([`spawn_shipper`]) serves any number of replica
//!   connections.  Each connection bootstraps from the newest checkpoint
//!   snapshot (or resumes from an exact `(segment, offset)` log position)
//!   and then follows the live tail via [`sac_wal::read_tail`], which
//!   distinguishes in-flight appends from corruption and reports
//!   checkpoint truncation as the clean [`WalError::SnapshotRequired`]
//!   signal.  Heartbeats carry the primary's served epoch and WAL tail.
//! * The **replica** ([`Replica::boot`]) joins and rejoins its primary
//!   through one path: its tailer thread runs the only retry loop, and each
//!   attempt is one `link` — handshake, term fence, and, when the primary
//!   sends a snapshot, the one install rule (restore the front on first
//!   boot, re-bootstrap it afterwards).  Boot waits for the first link,
//!   bounded by [`ReplicaConfig::boot_attempts`]; reconnects retry until
//!   stopped.  The replica re-verifies every record's CRC
//!   end to end, deduplicates by log position and insists on a gapless
//!   epoch sequence.  It owns a [`LiveEngine`] without a WAL, the same write
//!   front a primary mutates and crash recovery replays into: each record's
//!   ops go through that front's one apply path, and the record is
//!   committed as its own epoch.  So a replica's state at epoch `N` is
//!   bit-identical to the primary's state at epoch `N` (pinned by the
//!   convergence property suite).  The commit publishes with the same dirty
//!   bound a primary commit computes, so per-`k` indexes the record did not
//!   touch (including ones `--warm` built) carry over, and the replica
//!   ticks the commit metrics.  A bootstrap snapshot's stored core numbers
//!   are checked against one peel of its graph before anything builds on
//!   them.
//! * The link is **fault-injectable** on both sides ([`FaultPlan`]): drops,
//!   delays, duplicates, payload corruption and mid-frame truncation all
//!   resolve to a reconnect-and-resume, driven by [`RetryPolicy`] backoff.
//!   A position truncated by a checkpoint ends the stream the same way,
//!   and the next link asks for a snapshot.
//! * Past [`ReplicaConfig::staleness`] without contact the replica
//!   **degrades** rather than fails: it keeps answering queries at its
//!   last applied epoch and flips `/healthz` to `degraded`, recovering
//!   automatically when the link heals.
//! * Heartbeats double as **leases** for failover (see
//!   [`crate::failover`]): each carries the primary's leadership term, a
//!   lease duration, and the roster of connected promotion candidates.
//!   The replica tracks the observed term and rejects streams and records
//!   from a primary whose term regressed (a fenced zombie); a shipping
//!   endpoint likewise refuses replicas that have observed a newer term
//!   than its own, and answers [`probe`] requests with its term and role
//!   so a restarting primary can detect it was superseded.
//!
//! Durability is asymmetric by design: a replica trusts that everything
//! the primary shipped is durable on the primary.  Run primaries with
//! `--wal-sync always` (the default) when replicas are attached.

use crate::fault::{FaultAction, FaultInjector, FaultPlan};
use crate::retry::RetryPolicy;
use crate::LiveEngine;
use sac_engine::{EngineConfig, SacEngine};
use sac_obs::MetricsRegistry;
use sac_proto::replication::{
    ProbeReply, ProbeRequest, ReplFrame, ReplicateHello, ReplicateRequest,
};
use sac_proto::ReplicationStatsReply;
use sac_wal::{crc::crc32, DeltaRecord, WalError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Consecutive heartbeats whose reported tail is ahead of the replica's
/// position — with no record delivered in between — before the replica
/// concludes frames were lost and reconnects to re-request them.
const STALLED_HEARTBEAT_LIMIT: u32 = 3;

// ---------------------------------------------------------------------------
// Primary side: the log shipper.
// ---------------------------------------------------------------------------

/// Configuration of the primary's shipping endpoint.
#[derive(Debug, Clone, Copy)]
pub struct ShipConfig {
    /// How long to sleep between tail polls when caught up.
    pub poll: Duration,
    /// Maximum record frames per tail read (bounds per-iteration memory).
    pub max_frames: usize,
    /// Lease duration stamped into every heartbeat, in milliseconds.  A
    /// replica that hears nothing for this long past its last heartbeat may
    /// start an election (see [`crate::failover`]).
    pub lease_ms: u64,
    /// Send-side fault injection, if armed.
    pub faults: Option<FaultPlan>,
}

impl Default for ShipConfig {
    fn default() -> Self {
        ShipConfig {
            poll: Duration::from_millis(15),
            max_frames: 64,
            lease_ms: 1000,
            faults: None,
        }
    }
}

/// Handle on a running shipping endpoint.
#[derive(Debug)]
pub struct ShipHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ShipHandle {
    /// The address the shipper accepts replica connections on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop and every connection handler to wind down.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Starts the WAL-shipping endpoint on `listener`: accepts replica
/// connections and streams the log under `dir`, stamping heartbeats with
/// `engine`'s served epoch.  Returns immediately; connections are handled
/// on their own threads.
pub fn spawn_shipper(
    listener: TcpListener,
    dir: PathBuf,
    engine: Arc<SacEngine>,
    config: ShipConfig,
) -> std::io::Result<ShipHandle> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    // Connected promotion candidates, broadcast in every heartbeat so all
    // followers elect the same winner when the lease expires.
    let roster: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    thread::spawn(move || {
        let conns = AtomicU64::new(0);
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = stream else { continue };
            let conn_id = conns.fetch_add(1, Ordering::Relaxed) + 1;
            let dir = dir.clone();
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&accept_stop);
            let roster = Arc::clone(&roster);
            thread::spawn(move || {
                // A broken replica connection is that replica's problem; the
                // shipper just moves on to the next accept.
                let _ = ship_connection(stream, &dir, &engine, config, conn_id, &stop, &roster);
            });
        }
    });
    Ok(ShipHandle { addr, stop })
}

/// Registers one candidate in the shipper's roster for the lifetime of its
/// connection; dropping the guard (connection end) deregisters it.
struct RosterGuard<'a> {
    roster: &'a Mutex<Vec<(u64, String)>>,
    id: u64,
}

impl<'a> RosterGuard<'a> {
    fn enroll(roster: &'a Mutex<Vec<(u64, String)>>, id: u64, addr: String) -> RosterGuard<'a> {
        let mut r = roster.lock().expect("roster poisoned");
        r.retain(|(i, _)| *i != id);
        r.push((id, addr));
        r.sort_by_key(|(id, _)| *id);
        RosterGuard { roster, id }
    }
}

impl Drop for RosterGuard<'_> {
    fn drop(&mut self) {
        let mut r = self.roster.lock().expect("roster poisoned");
        r.retain(|(i, _)| *i != self.id);
    }
}

/// Serves one replica connection: handshake, optional snapshot bootstrap,
/// then the frame stream.
#[allow(clippy::too_many_arguments)]
fn ship_connection(
    stream: TcpStream,
    dir: &Path,
    engine: &SacEngine,
    config: ShipConfig,
    conn_id: u64,
    stop: &AtomicBool,
    roster: &Mutex<Vec<(u64, String)>>,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if ProbeRequest::parse_line(line.trim_end()).is_some() {
        // A leadership probe: answer term + role and hang up.  Anyone
        // serving this endpoint is acting as a primary.
        let reply = ProbeReply {
            term: engine.term(),
            role: "primary".to_string(),
            leader: None,
        };
        send_line(&mut writer, reply.encode_line())?;
        return Ok(());
    }
    let Some(request) = ReplicateRequest::parse_line(line.trim_end()) else {
        let hello = ReplicateHello::Error {
            message: "malformed replicate request".to_string(),
        };
        send_line(&mut writer, hello.encode_line())?;
        return Ok(());
    };
    if request.term > engine.term() {
        // The replica has observed a newer leadership term than ours: we
        // were superseded while partitioned.  Refusing the stream keeps a
        // zombie primary from feeding stale history to the fleet.
        let hello = ReplicateHello::Error {
            message: format!(
                "superseded: replica observed term {} above this primary's term {}",
                request.term,
                engine.term()
            ),
        };
        send_line(&mut writer, hello.encode_line())?;
        return Ok(());
    }
    let _candidate = match (request.replica_id, request.advertise.clone()) {
        (Some(id), Some(addr)) => Some(RosterGuard::enroll(roster, id, addr)),
        _ => None,
    };

    let (mut seg, mut pos) = if request.snapshot {
        match stable_snapshot(dir)? {
            Some((epoch, bytes, segment)) => {
                let hello = ReplicateHello::Snapshot {
                    epoch,
                    len: bytes.len() as u64,
                    segment,
                    offset: 0,
                    term: engine.term(),
                };
                send_line(&mut writer, hello.encode_line())?;
                // Bootstrap bytes ship un-injected: faults target the
                // streaming link, and a mangled bootstrap would only retry
                // the (possibly large) transfer from scratch.
                writer.write_all(&bytes)?;
                (segment, 0)
            }
            None => {
                let hello = ReplicateHello::Error {
                    message: "primary has no snapshot (is it running with a WAL?)".to_string(),
                };
                send_line(&mut writer, hello.encode_line())?;
                return Ok(());
            }
        }
    } else {
        let hello = ReplicateHello::Tail {
            segment: request.segment,
            offset: request.offset,
            term: engine.term(),
        };
        send_line(&mut writer, hello.encode_line())?;
        (request.segment, request.offset)
    };

    let mut injector = config.faults.map(|plan| FaultInjector::new(plan, conn_id));
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let chunk = match sac_wal::read_tail(dir, seg, pos, config.max_frames) {
            Ok(chunk) => chunk,
            Err(WalError::SnapshotRequired { .. }) => {
                // The replica's position was truncated by a checkpoint:
                // tell it to re-bootstrap, delivered faithfully (it is the
                // recovery signal, not payload).
                ReplFrame::SnapshotRequired.write_to(&mut writer)?;
                return Ok(());
            }
            // A corrupt or unreadable log is the primary's own emergency;
            // dropping the connection lets the replica keep retrying.
            Err(_) => return Ok(()),
        };
        let caught_up = chunk.frames.is_empty();
        for frame in chunk.frames {
            let record = ReplFrame::Record {
                segment: frame.segment,
                end_offset: frame.end_offset,
                crc: frame.crc,
                payload: frame.payload,
            };
            if !send_frame(&mut writer, &record, injector.as_mut())? {
                return Ok(()); // injector cut the connection mid-frame
            }
        }
        seg = chunk.segment;
        pos = chunk.offset;
        let heartbeat = ReplFrame::Heartbeat {
            epoch: engine.epoch(),
            segment: seg,
            offset: pos,
            term: engine.term(),
            lease_ms: config.lease_ms,
            roster: roster.lock().expect("roster poisoned").clone(),
        };
        if !send_frame(&mut writer, &heartbeat, injector.as_mut())? {
            return Ok(());
        }
        if caught_up {
            thread::sleep(config.poll);
        }
    }
}

/// Reads the newest snapshot so that the `(epoch, bytes, resume segment)`
/// triple is mutually consistent even if a checkpoint runs concurrently:
/// the snapshot listing is re-checked after the read, and the whole
/// sequence retried if it moved.
fn stable_snapshot(dir: &Path) -> std::io::Result<Option<(u64, Vec<u8>, u64)>> {
    for _ in 0..16 {
        let Some((epoch, path)) = sac_wal::latest_snapshot(dir)? else {
            return Ok(None);
        };
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            // Raced a checkpoint's cleanup; take the newer snapshot.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let segments = sac_wal::list_segments(dir)?;
        let Some(&oldest) = segments.first() else {
            continue;
        };
        match sac_wal::latest_snapshot(dir)? {
            Some((e, p)) if e == epoch && p == path => return Ok(Some((epoch, bytes, oldest))),
            _ => continue, // a checkpoint landed mid-read; retry
        }
    }
    Ok(None)
}

/// Sends one frame through the fault injector.  Returns `false` when the
/// injector decided to cut the connection (mid-frame truncation).
fn send_frame(
    writer: &mut TcpStream,
    frame: &ReplFrame,
    injector: Option<&mut FaultInjector>,
) -> std::io::Result<bool> {
    let mut bytes = frame.encode();
    let action = match injector {
        Some(injector) => injector.next_action(bytes.len()),
        None => FaultAction::Deliver,
    };
    match action {
        FaultAction::Deliver => writer.write_all(&bytes)?,
        FaultAction::Drop => {}
        FaultAction::Delay(ms) => {
            thread::sleep(Duration::from_millis(ms));
            writer.write_all(&bytes)?;
        }
        FaultAction::Duplicate => {
            writer.write_all(&bytes)?;
            writer.write_all(&bytes)?;
        }
        FaultAction::CorruptByte(i) => {
            // Flip a byte inside a record's payload — never the framing —
            // so the stream stays parseable and the replica's CRC check is
            // what catches the damage.
            if let ReplFrame::Record { payload, .. } = frame {
                if !payload.is_empty() {
                    let header = bytes.len() - payload.len();
                    let at = header + i % payload.len();
                    bytes[at] ^= 0x40;
                }
            }
            writer.write_all(&bytes)?;
        }
        FaultAction::Truncate(n) => {
            let cut = n.min(bytes.len().saturating_sub(1));
            writer.write_all(&bytes[..cut])?;
            writer.flush()?;
            return Ok(false);
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Replica side.
// ---------------------------------------------------------------------------

/// Why a replica failed to boot (or a bootstrap attempt failed).
#[derive(Debug)]
pub enum ReplicaError {
    /// The link itself failed (connect, read, write).
    Io(std::io::Error),
    /// Snapshot or record decoding failed, or a shipped snapshot failed
    /// validation.
    Wal(WalError),
    /// The primary answered with something other than the expected hello.
    Protocol(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Io(e) => write!(f, "replication link: {e}"),
            ReplicaError::Wal(e) => write!(f, "replication stream: {e}"),
            ReplicaError::Protocol(m) => write!(f, "replication protocol: {m}"),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicaError::Io(e) => Some(e),
            ReplicaError::Wal(e) => Some(e),
            ReplicaError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for ReplicaError {
    fn from(e: std::io::Error) -> Self {
        ReplicaError::Io(e)
    }
}

impl From<WalError> for ReplicaError {
    fn from(e: WalError) -> Self {
        ReplicaError::Wal(e)
    }
}

/// Configuration of a read replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Address of the primary's shipping endpoint (`host:port`).
    pub primary: String,
    /// Contact gap past which the replica reports itself degraded.
    pub staleness: Duration,
    /// Reconnect backoff and per-attempt timeout.
    pub retry: RetryPolicy,
    /// Receive-side fault injection, if armed.
    pub faults: Option<FaultPlan>,
    /// Engine configuration for the replica's serving engine.
    pub engine: EngineConfig,
    /// Seed of the deterministic backoff-jitter stream.
    pub seed: u64,
    /// Connection attempts before [`Replica::boot`] gives up.
    pub boot_attempts: u32,
    /// Stable id announced in the handshake when this replica is a
    /// promotion candidate (`None` = anonymous tailer, never promotes).
    pub replica_id: Option<u64>,
    /// Shipping address this replica would serve on if promoted, broadcast
    /// to its peers via the heartbeat roster.
    pub advertise: Option<String>,
}

impl ReplicaConfig {
    /// A replica of `primary` with default policies: 3 s staleness
    /// threshold, default backoff, no fault injection, no failover
    /// identity.
    pub fn new(primary: impl Into<String>) -> ReplicaConfig {
        ReplicaConfig {
            primary: primary.into(),
            staleness: Duration::from_secs(3),
            retry: RetryPolicy::default(),
            faults: None,
            engine: EngineConfig::default(),
            seed: 0x5AC0_0001,
            boot_attempts: 40,
            replica_id: None,
            advertise: None,
        }
    }
}

/// Shared, lock-free view of a replica's replication state, surfaced by
/// `/stats`, `/healthz` and the redirect error of rejected mutations.
#[derive(Debug)]
pub struct ReplicaStatus {
    /// Believed primary; the failover watchdog re-points it when a peer
    /// wins an election, and the tailer re-reads it on every reconnect.
    primary: Mutex<String>,
    staleness: Duration,
    started: Instant,
    connected: AtomicBool,
    /// Micros since `started` of the last primary contact (record or
    /// heartbeat received).
    last_contact_micros: AtomicU64,
    applied_epoch: AtomicU64,
    primary_epoch: AtomicU64,
    reconnects: AtomicU64,
    records_applied: AtomicU64,
    snapshot_bootstraps: AtomicU64,
    /// Highest leadership term observed on the link.
    term: AtomicU64,
    /// Lease duration granted by the newest heartbeat, ms (0 until the
    /// first lease-bearing heartbeat — failover stays disarmed until then).
    lease_ms: AtomicU64,
    /// Micros since `started` at which the current lease expires.
    lease_until_micros: AtomicU64,
    /// Promotion roster from the newest heartbeat.
    roster: Mutex<Vec<(u64, String)>>,
    /// Set by the failover watchdog after re-pointing `primary`: the new
    /// primary's log coordinates are unrelated to the old one's, so the
    /// next reconnect must bootstrap from a snapshot, not resume a tail.
    bootstrap_requested: AtomicBool,
}

impl ReplicaStatus {
    fn new(primary: String, staleness: Duration) -> ReplicaStatus {
        ReplicaStatus {
            primary: Mutex::new(primary),
            staleness,
            started: Instant::now(),
            connected: AtomicBool::new(false),
            last_contact_micros: AtomicU64::new(0),
            applied_epoch: AtomicU64::new(0),
            primary_epoch: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            records_applied: AtomicU64::new(0),
            snapshot_bootstraps: AtomicU64::new(0),
            term: AtomicU64::new(0),
            lease_ms: AtomicU64::new(0),
            lease_until_micros: AtomicU64::new(0),
            roster: Mutex::new(Vec::new()),
            bootstrap_requested: AtomicBool::new(false),
        }
    }

    fn touch(&self) {
        self.last_contact_micros
            .store(self.started.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    fn since_contact(&self) -> Duration {
        let now = self.started.elapsed().as_micros() as u64;
        Duration::from_micros(now.saturating_sub(self.last_contact_micros.load(Ordering::Relaxed)))
    }

    /// The believed primary's shipping address.
    pub fn primary(&self) -> String {
        self.primary.lock().expect("primary poisoned").clone()
    }

    /// Re-points the believed primary (an elected peer took over); the
    /// tailer picks the new address up on its next reconnect.
    pub fn repoint(&self, primary: String) {
        *self.primary.lock().expect("primary poisoned") = primary;
    }

    /// Highest leadership term observed on the link.
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Relaxed)
    }

    fn observe_term(&self, term: u64) {
        self.term.fetch_max(term, Ordering::Relaxed);
    }

    /// Installs a fresh lease from a heartbeat.
    fn grant_lease(&self, lease_ms: u64) {
        self.lease_ms.store(lease_ms, Ordering::Relaxed);
        let until = self.started.elapsed().as_micros() as u64 + lease_ms * 1000;
        self.lease_until_micros.store(until, Ordering::Relaxed);
    }

    /// Lease duration granted by the newest heartbeat (0 = no lease seen
    /// yet; failover stays disarmed).
    pub fn lease_ms(&self) -> u64 {
        self.lease_ms.load(Ordering::Relaxed)
    }

    /// Whether a granted lease has expired: the primary went silent past
    /// the window it promised to heartbeat within.  Always `false` before
    /// the first lease-bearing heartbeat.
    pub fn lease_expired(&self) -> bool {
        let lease = self.lease_ms.load(Ordering::Relaxed);
        if lease == 0 {
            return false;
        }
        let now = self.started.elapsed().as_micros() as u64;
        now > self.lease_until_micros.load(Ordering::Relaxed)
    }

    fn set_roster(&self, roster: Vec<(u64, String)>) {
        *self.roster.lock().expect("roster poisoned") = roster;
    }

    /// The promotion roster from the newest heartbeat: connected candidate
    /// `(replica id, advertised address)` pairs, ascending by id.
    pub fn roster(&self) -> Vec<(u64, String)> {
        self.roster.lock().expect("roster poisoned").clone()
    }

    /// Forces the tailer's next reconnect to bootstrap from a snapshot (the
    /// flag sticks until a bootstrap succeeds).  Called after [`Self::repoint`].
    pub fn request_bootstrap(&self) {
        self.bootstrap_requested.store(true, Ordering::Relaxed);
    }

    /// Disarms the lease until the next lease-bearing heartbeat, so the
    /// failover watchdog acts on an expiry exactly once.
    pub fn disarm_lease(&self) {
        self.lease_ms.store(0, Ordering::Relaxed);
    }

    /// Whether the replication link is currently established.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed)
    }

    /// Whether the replica has gone without primary contact for longer
    /// than its staleness threshold.  A degraded replica keeps serving
    /// reads at its applied epoch; only its health report changes.
    pub fn degraded(&self) -> bool {
        self.since_contact() > self.staleness
    }

    /// Epoch of the replica's served (applied) state.
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch.load(Ordering::Relaxed)
    }

    /// The primary's served epoch as of the last heartbeat.
    pub fn primary_epoch(&self) -> u64 {
        self.primary_epoch.load(Ordering::Relaxed)
    }

    /// How many epochs the replica trails the primary (0 when caught up).
    pub fn lag_epochs(&self) -> u64 {
        self.primary_epoch().saturating_sub(self.applied_epoch())
    }

    /// Records applied since boot.
    pub fn records_applied(&self) -> u64 {
        self.records_applied.load(Ordering::Relaxed)
    }

    /// Reconnect attempts since boot.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Snapshot re-bootstraps since boot (position truncated by a primary
    /// checkpoint while disconnected).
    pub fn snapshot_bootstraps(&self) -> u64 {
        self.snapshot_bootstraps.load(Ordering::Relaxed)
    }

    /// The wire-level stats object for `/stats` and `/healthz`.
    pub fn stats_reply(&self) -> ReplicationStatsReply {
        ReplicationStatsReply {
            primary: self.primary(),
            connected: self.connected(),
            degraded: self.degraded(),
            last_applied_epoch: self.applied_epoch(),
            primary_epoch: self.primary_epoch(),
            lag_epochs: self.lag_epochs(),
            stale_secs: self.since_contact().as_secs(),
            reconnects: self.reconnects(),
            records_applied: self.records_applied(),
            snapshot_bootstraps: self.snapshot_bootstraps(),
            term: self.term(),
        }
    }
}

/// Registers the replication series in `registry` as readers of `status`,
/// so `/metrics`, `stats` and `/healthz` show the same values, the lag
/// included.
fn register_replication_metrics(registry: &MetricsRegistry, status: &Arc<ReplicaStatus>) {
    let gauge = |name, help, read: fn(&ReplicaStatus) -> u64| {
        let status = Arc::clone(status);
        registry.gauge_fn(name, help, &[], move || read(&status));
    };
    gauge(
        "sac_replication_connected",
        "Whether the replication link is established (0/1)",
        |s| s.connected() as u64,
    );
    gauge(
        "sac_replication_last_applied_epoch",
        "Epoch of the replica's applied state",
        ReplicaStatus::applied_epoch,
    );
    gauge(
        "sac_replication_primary_epoch",
        "Primary epoch as of the last heartbeat",
        ReplicaStatus::primary_epoch,
    );
    gauge(
        "sac_replication_lag_epochs",
        "Epochs the replica trails the primary",
        ReplicaStatus::lag_epochs,
    );
    let counter = |name, help, read: fn(&ReplicaStatus) -> u64| {
        let status = Arc::clone(status);
        registry.counter_fn(name, help, &[], move || read(&status));
    };
    counter(
        "sac_replication_records_applied_total",
        "WAL records applied from the replication stream",
        ReplicaStatus::records_applied,
    );
    counter(
        "sac_replication_reconnects_total",
        "Replication link reconnect attempts",
        ReplicaStatus::reconnects,
    );
    counter(
        "sac_replication_snapshot_bootstraps_total",
        "Snapshot re-bootstraps after checkpoint truncation",
        ReplicaStatus::snapshot_bootstraps,
    );
}

/// A running read replica: a write front without a WAL plus the tailer
/// thread that keeps it converged with the primary.
#[derive(Debug)]
pub struct Replica {
    live: Arc<LiveEngine>,
    status: Arc<ReplicaStatus>,
    stop: Arc<AtomicBool>,
}

impl Replica {
    /// Boots a replica: spawns the tailer thread and waits for its first
    /// link to the primary (up to [`ReplicaConfig::boot_attempts`]
    /// attempts), which restores the write front from the primary's newest
    /// snapshot.  Returns once the snapshot state is being served; the
    /// tailer goes on applying the record stream.
    pub fn boot(config: ReplicaConfig) -> Result<Replica, ReplicaError> {
        let status = Arc::new(ReplicaStatus::new(config.primary.clone(), config.staleness));
        let stop = Arc::new(AtomicBool::new(false));
        let ctx = TailerCtx {
            status: Arc::clone(&status),
            config,
            stop: Arc::clone(&stop),
        };
        let (booted, boot) = mpsc::channel();
        thread::spawn(move || run_tailer(ctx, booted));
        let live = boot
            .recv()
            .expect("the tailer thread reports its first link")?;
        register_replication_metrics(live.engine().metrics(), &status);
        Ok(Replica { live, status, stop })
    }

    /// The replica's serving engine (read path only; mutations are
    /// rejected at the service layer with a redirect to the primary).
    pub fn engine(&self) -> &Arc<SacEngine> {
        self.live.engine()
    }

    /// The write front the tailer replays records into; a service over
    /// this replica serves the same front.
    pub(crate) fn live(&self) -> &Arc<LiveEngine> {
        &self.live
    }

    /// The shared replication status.
    pub fn status(&self) -> &Arc<ReplicaStatus> {
        &self.status
    }

    /// Asks the tailer thread to wind down (it notices within one read
    /// timeout).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Tears the replica down for promotion: stops the tailer and hands
    /// back the write front and the shared status.  The front's engine keeps
    /// serving its applied epoch throughout; promotion attaches a WAL to this
    /// same front without a restart.
    ///
    /// The tailer may still hold a record it read before the stop.  It
    /// checks the stop flag under the front lock before it applies
    /// anything, and attaching a WAL takes that lock too, so a record is
    /// either committed before the attach (and is in its base checkpoint) or
    /// never applied.
    pub fn into_parts(self) -> (Arc<LiveEngine>, Arc<ReplicaStatus>) {
        self.stop();
        (self.live, self.status)
    }
}

/// Probes a shipping endpoint for its leadership term and role.  Used by a
/// restarting primary to detect that it was superseded while down (zombie
/// demotion) before it accepts a single write.
pub fn probe(addr: &str, timeout: Duration) -> Result<ProbeReply, ReplicaError> {
    let mut stream = connect(addr, timeout)?;
    send_line(&mut stream, ProbeRequest.encode_line())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    ProbeReply::parse_line(line.trim_end()).ok_or_else(|| {
        ReplicaError::Protocol(format!("malformed probe reply: {}", line.trim_end()))
    })
}

/// A log position: `(segment, offset)` just past the last consumed record.
type LogPos = (u64, u64);

struct TailerCtx {
    status: Arc<ReplicaStatus>,
    config: ReplicaConfig,
    stop: Arc<AtomicBool>,
}

/// Why the frame stream ended, or a link attempt failed.
enum StreamEnd {
    /// [`Replica::stop`] was called.
    Stop,
    /// The link broke, a frame was damaged, or the epoch sequence gapped:
    /// reconnect and resume from the last consumed position.
    Reconnect,
    /// The position was truncated by a primary checkpoint: re-bootstrap
    /// from a fresh snapshot.
    SnapshotRequired,
}

fn connect(primary: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let addr = primary
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "unresolvable primary"))?;
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Sends one handshake or probe line, newline included, in a single write.
/// The peer answers only once the whole line has arrived, so a line split
/// over two writes could sit behind a delayed ACK.
fn send_line(stream: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Opens a connection to `primary` and runs the handshake; returns the
/// buffered reader (positioned right after the hello line) and the
/// primary's answer.
fn handshake(
    primary: &str,
    config: &ReplicaConfig,
    request: &ReplicateRequest,
) -> Result<(BufReader<TcpStream>, ReplicateHello), ReplicaError> {
    let mut stream = connect(primary, config.retry.attempt_timeout)?;
    send_line(&mut stream, request.encode_line())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let hello = ReplicateHello::parse_line(line.trim_end())
        .ok_or_else(|| ReplicaError::Protocol(format!("malformed hello: {}", line.trim_end())))?;
    if let ReplicateHello::Error { message } = &hello {
        return Err(ReplicaError::Protocol(format!(
            "primary refused: {message}"
        )));
    }
    Ok((reader, hello))
}

/// Receives `len` raw snapshot bytes and decodes them in memory.  `len`
/// comes from the primary's hello and is not trusted: the buffer grows only
/// with the bytes that actually arrive.
fn receive_snapshot(
    reader: &mut BufReader<TcpStream>,
    len: u64,
) -> Result<sac_wal::SnapshotImage, ReplicaError> {
    let mut bytes = Vec::new();
    reader.take(len).read_to_end(&mut bytes)?;
    if bytes.len() as u64 != len {
        return Err(ReplicaError::Protocol(format!(
            "snapshot stream ended after {} of {len} bytes",
            bytes.len()
        )));
    }
    Ok(sac_wal::decode_snapshot(&bytes)?)
}

/// One link attempt, the only way a replica joins or rejoins its primary:
/// handshake and term fence, then — when the primary answers with a
/// snapshot — receive it, check it and [`install`] it.  A tail answer
/// resumes the front as it stands.  A snapshot is asked for on first boot,
/// when `want_snapshot` is set (the stream reported the position
/// truncated), and after a failover re-point.  Returns the stream,
/// positioned at the first frame, the front it feeds, and the position the
/// next record must extend.
fn link(
    ctx: &TailerCtx,
    live: Option<&Arc<LiveEngine>>,
    pos: LogPos,
    want_snapshot: bool,
) -> Result<(BufReader<TcpStream>, Arc<LiveEngine>, LogPos), ReplicaError> {
    let status = &ctx.status;
    let snapshot =
        live.is_none() || want_snapshot || status.bootstrap_requested.load(Ordering::Relaxed);
    let request = ReplicateRequest {
        term: status.term(),
        replica_id: ctx.config.replica_id,
        advertise: ctx.config.advertise.clone(),
        ..ReplicateRequest::new(pos.0, pos.1, snapshot)
    };
    // The believed primary is re-read every attempt: the failover watchdog
    // may have re-pointed it at an elected peer.
    let (mut reader, hello) = handshake(&status.primary(), &ctx.config, &request)?;
    let fence = |term: u64| {
        if term < status.term() {
            // A fenced zombie still answering on the old address.
            return Err(ReplicaError::Protocol(format!(
                "stale primary: hello term {term} below observed term {}",
                status.term()
            )));
        }
        status.observe_term(term);
        Ok(())
    };
    let (live, segment, offset) = match (hello, live) {
        (
            ReplicateHello::Tail {
                segment,
                offset,
                term,
            },
            Some(live),
        ) => {
            fence(term)?;
            (Arc::clone(live), segment, offset)
        }
        (
            ReplicateHello::Snapshot {
                epoch,
                len,
                segment,
                offset,
                term,
            },
            live,
        ) => {
            fence(term)?;
            let image = receive_snapshot(&mut reader, len)?;
            if image.epoch != epoch {
                return Err(ReplicaError::Protocol(format!(
                    "snapshot epoch {} does not match hello epoch {epoch}",
                    image.epoch
                )));
            }
            let live = install(ctx, live, image, segment)?;
            // Either way the position realigns to this primary's log
            // coordinates, which satisfies any pending post-failover
            // bootstrap request.
            status.bootstrap_requested.store(false, Ordering::Relaxed);
            (live, segment, offset)
        }
        (ReplicateHello::SnapshotRequired { oldest }, Some(_)) => {
            return Err(WalError::SnapshotRequired {
                segment: pos.0,
                oldest,
            }
            .into())
        }
        (hello, _) => {
            return Err(ReplicaError::Protocol(format!(
                "expected a snapshot hello, got {hello:?}"
            )))
        }
    };
    live.engine().set_term(status.term());
    Ok((reader, live, (segment, offset)))
}

/// Installs a shipped snapshot: restores the front from it when there is
/// none yet (first boot), and otherwise re-bootstraps the front when the
/// install rule says so.  This is the replica's one install rule.
fn install(
    ctx: &TailerCtx,
    live: Option<&Arc<LiveEngine>>,
    image: sac_wal::SnapshotImage,
    segment: u64,
) -> Result<Arc<LiveEngine>, ReplicaError> {
    let status = &ctx.status;
    let epoch = image.epoch;
    let Some(live) = live else {
        let live = LiveEngine::restore(image, ctx.config.engine)?;
        status.applied_epoch.store(epoch, Ordering::Relaxed);
        status.primary_epoch.store(epoch, Ordering::Relaxed);
        return Ok(Arc::new(live));
    };
    // A post-failover bootstrap is authoritative even at or below our
    // applied epoch: the new primary's history is the fleet's history, and
    // anything we applied beyond it (shipped by the dead primary but never
    // reaching the winner) is discarded so the fleet converges
    // bit-identically.
    let forced = status.bootstrap_requested.load(Ordering::Relaxed);
    let applied = live.engine().epoch();
    if epoch > applied || (forced && epoch != applied) {
        // The records between our applied epoch and the snapshot were
        // truncated by a primary checkpoint (or the snapshot supersedes our
        // fork): jump to it.  `Ok(false)` means promotion stopped the tailer
        // meanwhile.
        if !live.rebootstrap(image, &ctx.stop)? {
            return Err(ReplicaError::Protocol(
                "stopped during a snapshot re-bootstrap".to_string(),
            ));
        }
        status.applied_epoch.store(epoch, Ordering::Relaxed);
        status.snapshot_bootstraps.fetch_add(1, Ordering::Relaxed);
        live.engine().events().publish(
            "replication",
            format!("snapshot_bootstrap epoch={epoch} segment={segment}"),
        );
    }
    // A snapshot at or below our applied epoch carries nothing new: keep the
    // richer local state and just resume the stream — records at or below
    // the applied epoch are skipped on arrival.
    Ok(Arc::clone(live))
}

/// The tailer thread and the replica's one retry loop: link, stream frames
/// until the stream ends, back off, link again — until stopped.  The first
/// successful link restores the front and sends it to [`Replica::boot`];
/// before that, each failed attempt counts against
/// [`ReplicaConfig::boot_attempts`], and the last error is sent once they
/// run out.  First boot counts as neither a reconnect nor a snapshot
/// bootstrap.
fn run_tailer(ctx: TailerCtx, booted: mpsc::Sender<Result<Arc<LiveEngine>, ReplicaError>>) {
    let mut live: Option<Arc<LiveEngine>> = None;
    let mut pos: LogPos = (0, 0);
    let mut want_snapshot = false;
    // Backoff steps since the last successful link.
    let mut backoff = 0u32;
    let mut conn = 0u64;
    loop {
        conn += 1;
        if live.is_some() {
            ctx.status.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        let end = match link(&ctx, live.as_ref(), pos, want_snapshot) {
            Ok((mut reader, front, at)) => {
                pos = at;
                want_snapshot = false;
                backoff = 0;
                ctx.status.connected.store(true, Ordering::Relaxed);
                ctx.status.touch();
                if live.is_none() {
                    let _ = booted.send(Ok(Arc::clone(&front)));
                }
                let front = live.insert(front);
                let end = stream_frames(&ctx, front, &mut reader, &mut pos, conn);
                ctx.status.connected.store(false, Ordering::Relaxed);
                end
            }
            // Until the first link every attempt is a boot attempt.
            Err(e) if live.is_none() => {
                if conn >= u64::from(ctx.config.boot_attempts.max(1)) {
                    let _ = booted.send(Err(e));
                    return;
                }
                StreamEnd::Reconnect
            }
            Err(ReplicaError::Wal(WalError::SnapshotRequired { .. })) => {
                StreamEnd::SnapshotRequired
            }
            Err(_) => StreamEnd::Reconnect,
        };
        match end {
            StreamEnd::Stop => return,
            StreamEnd::SnapshotRequired => want_snapshot = true,
            StreamEnd::Reconnect => {}
        }
        if ctx.stop.load(Ordering::SeqCst) {
            return;
        }
        thread::sleep(
            ctx.config
                .retry
                .delay(backoff, ctx.config.seed ^ conn.rotate_left(32)),
        );
        backoff += 1;
    }
}

/// Consumes frames until the stream ends: records are CRC-checked,
/// deduplicated by position, applied in gapless epoch order and published
/// as epochs; heartbeats update staleness/lag and detect silently dropped
/// records.
fn stream_frames(
    ctx: &TailerCtx,
    live: &LiveEngine,
    reader: &mut BufReader<TcpStream>,
    pos: &mut LogPos,
    conn: u64,
) -> StreamEnd {
    let mut injector = ctx
        .config
        .faults
        .map(|plan| FaultInjector::new(plan, conn ^ 0x8000_0000_0000_0000));
    let mut stalled_heartbeats = 0u32;
    loop {
        if ctx.stop.load(Ordering::SeqCst) {
            return StreamEnd::Stop;
        }
        let mut frame = match ReplFrame::read_from(reader) {
            Ok(frame) => frame,
            Err(_) => return StreamEnd::Reconnect,
        };
        // Re-check after the blocking read: a promotion in progress must
        // not race this thread into publishing one more epoch.
        if ctx.stop.load(Ordering::SeqCst) {
            return StreamEnd::Stop;
        }
        if let Some(injector) = injector.as_mut() {
            let approx_len = match &frame {
                ReplFrame::Record { payload, .. } => 25 + payload.len(),
                _ => 25,
            };
            match injector.next_action(approx_len) {
                FaultAction::Deliver => {}
                FaultAction::Drop => continue,
                FaultAction::Delay(ms) => thread::sleep(Duration::from_millis(ms)),
                FaultAction::Duplicate => {
                    // Feed the frame through twice; the second pass is
                    // deduplicated by position like any wire duplicate.
                    if let Err(end) =
                        process_frame(ctx, live, pos, frame.clone(), &mut stalled_heartbeats)
                    {
                        return end;
                    }
                }
                FaultAction::CorruptByte(i) => {
                    if let ReplFrame::Record { payload, .. } = &mut frame {
                        if !payload.is_empty() {
                            let at = i % payload.len();
                            payload[at] ^= 0x40;
                        }
                    }
                }
                FaultAction::Truncate(_) => return StreamEnd::Reconnect,
            }
        }
        if let Err(end) = process_frame(ctx, live, pos, frame, &mut stalled_heartbeats) {
            return end;
        }
    }
}

fn process_frame(
    ctx: &TailerCtx,
    live: &LiveEngine,
    pos: &mut LogPos,
    frame: ReplFrame,
    stalled_heartbeats: &mut u32,
) -> Result<(), StreamEnd> {
    match frame {
        ReplFrame::Record {
            segment,
            end_offset,
            crc,
            payload,
        } => {
            ctx.status.touch();
            if (segment, end_offset) <= *pos {
                return Ok(()); // duplicate delivery
            }
            if crc32(&payload) != crc {
                // Damage anywhere between the primary's disk and here:
                // never apply, re-request the record.
                return Err(StreamEnd::Reconnect);
            }
            let Ok(record) = DeltaRecord::decode_payload(&payload, segment, end_offset) else {
                return Err(StreamEnd::Reconnect);
            };
            *stalled_heartbeats = 0;
            let applied = live.engine().epoch();
            if record.epoch <= applied {
                // Already covered by our snapshot/applied state; the
                // position still advances past it.
                *pos = (segment, end_offset);
                return Ok(());
            }
            if record.term < ctx.status.term() {
                // A fenced zombie's write: never apply it.  Reconnecting
                // re-runs the handshake, where the stale primary is refused
                // outright.
                return Err(StreamEnd::Reconnect);
            }
            ctx.status.observe_term(record.term);
            if record.epoch != applied + 1 {
                // A gap means an earlier record was lost (e.g. dropped by
                // the fault injector): resume from the last good position.
                return Err(StreamEnd::Reconnect);
            }
            match live.replay(&record, &ctx.stop) {
                // Promotion stopped the tailer: the record stays unapplied.
                Ok(None) => Err(StreamEnd::Stop),
                Ok(Some(report)) if report.epoch == record.epoch => {
                    *pos = (segment, end_offset);
                    ctx.status
                        .applied_epoch
                        .store(record.epoch, Ordering::Relaxed);
                    ctx.status.records_applied.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
                // The shipped ops do not fit our front (or changed nothing):
                // the states have diverged and only a fresh snapshot can
                // realign them.
                _ => Err(StreamEnd::SnapshotRequired),
            }
        }
        ReplFrame::Heartbeat {
            epoch,
            segment,
            offset,
            term,
            lease_ms,
            roster,
        } => {
            ctx.status.touch();
            if term < ctx.status.term() {
                // Stale beacon from a fenced zombie: drop the stream.
                return Err(StreamEnd::Reconnect);
            }
            ctx.status.observe_term(term);
            live.engine().set_term(ctx.status.term());
            if lease_ms > 0 {
                ctx.status.grant_lease(lease_ms);
                ctx.status.set_roster(roster);
            }
            ctx.status.primary_epoch.store(epoch, Ordering::Relaxed);
            if (segment, offset) > *pos {
                // The primary's tail is ahead of us yet no record arrived:
                // after a few of these in a row the records were lost on
                // the wire — reconnect and re-request from our position.
                *stalled_heartbeats += 1;
                if *stalled_heartbeats >= STALLED_HEARTBEAT_LIMIT {
                    *stalled_heartbeats = 0;
                    return Err(StreamEnd::Reconnect);
                }
            } else {
                *stalled_heartbeats = 0;
            }
            Ok(())
        }
        ReplFrame::SnapshotRequired => Err(StreamEnd::SnapshotRequired),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_series_read_the_status_at_scrape_time() {
        let registry = MetricsRegistry::new();
        let status = Arc::new(ReplicaStatus::new(
            "127.0.0.1:1".to_string(),
            Duration::from_secs(3),
        ));
        register_replication_metrics(&registry, &status);
        // A snapshot re-bootstrap moves the applied epoch without a record
        // or a heartbeat; the lag must follow it at once.
        status.primary_epoch.store(9, Ordering::Relaxed);
        status.applied_epoch.store(4, Ordering::Relaxed);
        let text = registry.render_prometheus();
        assert!(text.contains("sac_replication_last_applied_epoch 4\n"));
        assert!(text.contains("sac_replication_lag_epochs 5\n"));
    }
}
