//! Lease-based primary failover: promotion of a read replica to a writable
//! primary, epoch/term fencing of the deposed leader, and the boot-time
//! demotion probe that stops a restarted zombie from forking history.
//!
//! The protocol piggybacks on the replication stream — there is no separate
//! consensus service:
//!
//! * **Leases.** Every heartbeat the primary ships carries a lease duration
//!   (`ShipConfig::lease_ms`) and the roster of connected promotion
//!   candidates.  A replica that applies the heartbeat re-arms its lease;
//!   silence past the lease is the failure signal.
//! * **Deterministic election.** When the lease expires, every candidate
//!   evaluates the *same* rule over the *same* data — the lowest replica id
//!   in the last broadcast roster wins.  No votes are exchanged: the roster
//!   all candidates hold is the one the dead primary broadcast, so they
//!   agree on the winner without talking to each other.
//! * **Promotion.** The winner first checks that its failover directory
//!   holds no WAL state and binds its advertised address; either failure
//!   leaves it a replica on a running tailer, and the next lease expiry
//!   retries.  Then it stops its tailer, attaches a fresh WAL directory to
//!   the write front it was already serving (a snapshot checkpoint of its
//!   applied state is where the new log starts), adopts
//!   `observed term + 1`, starts shipping on the bound address, and lifts
//!   the service's read-only guard — transports keep their handle, writes
//!   start landing.  A failure after the tailer stopped (seeding the WAL on
//!   a failing disk) leaves a read-only node serving its applied epoch.
//!   Losers re-point their believed primary at the winner and force a
//!   snapshot re-bootstrap (the winner's log coordinates are unrelated to
//!   the dead primary's).
//! * **Fencing.** Terms are stamped into every WAL record and replication
//!   frame.  A restarted zombie primary recovers at its old term; before
//!   serving writes it probes its peers ([`find_superseding_primary`]) and,
//!   on finding a leader with a higher term, boots as that leader's replica
//!   instead — its unreplicated tail is discarded by the snapshot bootstrap,
//!   so history never forks.  Even without the probe, replicas refuse
//!   streams whose term regresses, and the shipper refuses replicas that
//!   observed a higher term, so a zombie cannot re-acquire followers.

use crate::replication;
use crate::service::{Role, SacService};
use crate::{Durability, ShipConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Identity and resources a replica needs to stand for promotion.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Stable id this replica announced in its handshake (the election
    /// compares these; lowest connected id wins).
    pub replica_id: u64,
    /// Address to ship the WAL on after promotion (the same address peers
    /// learned from the heartbeat roster).
    pub advertise: String,
    /// Directory the promoted primary's fresh WAL is seeded into.  Must not
    /// hold prior WAL state: promotion starts a new log with a snapshot of
    /// the applied state as its base checkpoint.
    pub dir: PathBuf,
    /// Shipping configuration of the post-promotion endpoint (lease
    /// duration, poll cadence, fault injection).
    pub ship: ShipConfig,
    /// Watchdog poll period override; `None` derives lease/4 (50 ms floor
    /// fallback while no lease has been granted yet).
    pub poll: Option<Duration>,
}

impl FailoverConfig {
    /// A promotion-capable identity with default shipping and poll cadence.
    pub fn new(replica_id: u64, advertise: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        FailoverConfig {
            replica_id,
            advertise: advertise.into(),
            dir: dir.into(),
            ship: ShipConfig::default(),
            poll: None,
        }
    }
}

/// Handle on an armed failover watchdog.
#[derive(Debug)]
pub struct FailoverHandle {
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl FailoverHandle {
    /// Asks the watchdog to wind down and waits for it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Arms the failover watchdog on a replica-fronting service: a background
/// thread polls the lease and, when it expires, either promotes this node
/// (it holds the lowest id in the last roster, or no roster was ever
/// broadcast) or re-points the service's replica link at the deterministic
/// winner.
///
/// Returns `None` when the service does not front a replica — a primary has
/// no lease to watch.
pub fn arm(service: Arc<SacService>, config: FailoverConfig) -> Option<FailoverHandle> {
    service.replica_status()?;
    let stop = Arc::new(AtomicBool::new(false));
    let watchdog_stop = Arc::clone(&stop);
    let thread = thread::spawn(move || watchdog(&service, &config, &watchdog_stop));
    Some(FailoverHandle {
        stop,
        thread: Some(thread),
    })
}

fn watchdog(service: &Arc<SacService>, config: &FailoverConfig, stop: &AtomicBool) {
    loop {
        let Some(status) = service.replica_status() else {
            return; // promoted (or torn down): nothing left to watch
        };
        let poll = config.poll.unwrap_or_else(|| {
            let lease = status.lease_ms();
            Duration::from_millis(if lease == 0 { 50 } else { (lease / 4).max(10) })
        });
        thread::sleep(poll);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if !status.lease_expired() {
            continue;
        }
        // Act on this expiry exactly once; a fresh heartbeat re-arms it.
        status.disarm_lease();
        match status.roster().first() {
            Some((id, addr)) if *id != config.replica_id => {
                // A peer wins: follow it.  Its log is a different history
                // (new term, fresh coordinates), so the next connection must
                // bootstrap from its snapshot rather than resume our tail.
                eprintln!("failover: lease expired, following new primary {addr} (id {id})");
                status.repoint(addr.clone());
                status.request_bootstrap();
            }
            // We hold the roster's lowest id, or no roster was ever
            // broadcast and we are the only candidate we know of: promote.
            _ => match promote(service, config, status.term()) {
                Ok(term) => {
                    eprintln!(
                        "failover: lease expired, promoted to primary at term {term} \
                         (shipping on {})",
                        config.advertise
                    );
                    return;
                }
                Err(e) => {
                    // A step that fails before the tailer stops leaves the
                    // replica following its primary, and the next expiry
                    // retries.  Seeding the WAL can still fail after it:
                    // then the node serves its applied epoch, read-only.
                    eprintln!("failover: promotion failed: {e}");
                    service.set_role(Role::Replica);
                }
            },
        }
    }
}

/// Promotes the service's replica to a writable primary in place; returns
/// the adopted term.
///
/// The steps that can fail without touching the front — the failover
/// directory check and binding the advertised address — run while the
/// tailer still runs, so their failure leaves a working replica.
fn promote(
    service: &Arc<SacService>,
    config: &FailoverConfig,
    observed_term: u64,
) -> Result<u64, String> {
    if sac_wal::has_state(&config.dir) {
        return Err(format!(
            "{} already holds WAL state; promotion starts a new log",
            config.dir.display()
        ));
    }
    let listener = TcpListener::bind(&config.advertise)
        .map_err(|e| format!("cannot bind {}: {e}", config.advertise))?;
    service.set_role(Role::Candidate);
    let replica = service
        .take_replica()
        .ok_or("no replica link to promote (already taken)")?;
    // Stop the tailer before opening the write path: no frame from the old
    // primary may land after we start a new history.  A record the tailer
    // already holds is applied before the attach below or not at all (both
    // take the front lock).
    let (live, _status) = replica.into_parts();
    let term = observed_term + 1;
    // Seed a fresh WAL under the failover directory on the replica's own
    // front: attaching writes a base checkpoint of the applied state, the
    // root of the new log.
    live.attach_wal(Durability::new(&config.dir), None)
        .map_err(|e| format!("cannot seed WAL under {}: {e}", config.dir.display()))?;
    live.adopt_term(term)
        .map_err(|e| format!("cannot adopt term {term}: {e}"))?;
    // The shipper outlives its handle; the endpoint serves until exit.
    replication::spawn_shipper(
        listener,
        config.dir.clone(),
        Arc::clone(live.engine()),
        config.ship,
    )
    .map_err(|e| format!("cannot start shipper: {e}"))?;
    service.promoted();
    Ok(term)
}

/// Probes `peers` and returns the address and term of a live primary whose
/// term exceeds `local_term`, if any (the highest such term wins).
///
/// A restarted primary calls this before serving writes: a superseding
/// leader means this node was deposed while down — it must boot as a
/// replica of that leader instead of forking history from its stale WAL.
pub fn find_superseding_primary(
    peers: &[String],
    local_term: u64,
    timeout: Duration,
) -> Option<(String, u64)> {
    let mut best: Option<(String, u64)> = None;
    for peer in peers {
        let Ok(reply) = replication::probe(peer, timeout) else {
            continue; // an unreachable peer cannot supersede us
        };
        if reply.term <= local_term || reply.role != "primary" {
            continue;
        }
        let addr = reply.leader.unwrap_or_else(|| peer.clone());
        if best.as_ref().is_none_or(|(_, t)| reply.term > *t) {
            best = Some((addr, reply.term));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::spawn_shipper;
    use crate::{FaultPlan, LiveEngine, Replica, ReplicaConfig, RetryPolicy, ServiceConfig};
    use sac_core::fixtures::figure3_graph;
    use sac_engine::{EngineConfig, SacEngine};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sac-failover-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn arm_refuses_a_primary_service() {
        let service = Arc::new(SacService::new(
            Arc::new(SacEngine::new(figure3_graph())),
            ServiceConfig::default(),
        ));
        assert!(arm(service, FailoverConfig::new(1, "127.0.0.1:0", "/tmp/x")).is_none());
    }

    #[test]
    fn superseding_probe_ignores_lower_terms_and_dead_peers() {
        // A live shipper at term 0 never supersedes a node at term 0.
        let dir = temp_dir("probe");
        let engine = Arc::new(SacEngine::new(figure3_graph()));
        let live = LiveEngine::with_durability(Arc::clone(&engine), Durability::new(&dir)).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = spawn_shipper(
            listener,
            dir.clone(),
            Arc::clone(&engine),
            ShipConfig::default(),
        )
        .unwrap();
        let addr = handle.addr().to_string();
        let timeout = Duration::from_millis(500);
        let peers = vec!["127.0.0.1:1".to_string(), addr.clone()];
        assert_eq!(find_superseding_primary(&peers, 0, timeout), None);
        // Raise the shipper's term above ours: now it supersedes.
        live.adopt_term(3).unwrap();
        assert_eq!(
            find_superseding_primary(&peers, 0, timeout),
            Some((addr.clone(), 3))
        );
        assert_eq!(
            find_superseding_primary(&peers, 3, timeout),
            None,
            "equal terms do not supersede"
        );
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Promotion racing a record the tailer already holds: the tailer reads
    /// the record, the fault plan holds it for 300 ms, and promotion stops
    /// the tailer and attaches its WAL meanwhile.  The held record must
    /// never reach the engine, or the promoted front (seeded before it
    /// landed) would fork history on its next commit.
    #[test]
    fn promotion_drops_a_record_the_tailer_still_holds() {
        let dir = temp_dir("race-primary");
        let fdir = temp_dir("race-promoted");
        let engine = Arc::new(SacEngine::new(figure3_graph()));
        let live = LiveEngine::with_durability(Arc::clone(&engine), Durability::new(&dir)).unwrap();
        // Logged before the replica connects, so it is the first frame the
        // tailer reads after its bootstrap from the epoch-1 snapshot.
        live.add_edge(8, 0).unwrap();
        assert_eq!(live.commit().unwrap().epoch, 2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ship = spawn_shipper(listener, dir.clone(), engine, ShipConfig::default()).unwrap();

        let mut config = ReplicaConfig::new(ship.addr().to_string());
        config.faults = Some(FaultPlan::parse("delay=1.0:300").unwrap());
        config.retry = RetryPolicy {
            base: Duration::from_millis(5),
            ..RetryPolicy::default()
        };
        let replica = Replica::boot(config).unwrap();
        let service = Arc::new(SacService::for_replica(replica, ServiceConfig::default()));
        let booted = service.engine().epoch();
        assert_eq!(booted, 1);

        // The tailer is now inside the record's 300 ms delay.
        thread::sleep(Duration::from_millis(100));
        let failover = FailoverConfig::new(1, "127.0.0.1:0", &fdir);
        assert_eq!(promote(&service, &failover, 0).unwrap(), 1);
        thread::sleep(Duration::from_millis(500));
        assert_eq!(
            service.engine().epoch(),
            booted,
            "a record held across promotion reached the engine"
        );

        // Front, engine and base checkpoint are one state: the next commit
        // recovers bit-identically from the new log.
        let (checkpoint, _) = sac_wal::latest_snapshot(&fdir).unwrap().unwrap();
        assert_eq!(checkpoint, booted);
        let promoted = service.live();
        promoted.add_edge(8, 1).unwrap();
        assert_eq!(promoted.commit().unwrap().epoch, booted + 1);
        let (recovered, _) =
            LiveEngine::recover(Durability::new(&fdir), EngineConfig::default()).unwrap();
        let (a, b) = (recovered.engine().snapshot(), service.engine().snapshot());
        assert_eq!(recovered.engine().epoch(), service.engine().epoch());
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..a.num_vertices() as u32 {
            assert_eq!(a.graph().neighbors(v), b.graph().neighbors(v));
        }
        assert_eq!(
            recovered.engine().decomposition().core_numbers(),
            service.engine().decomposition().core_numbers()
        );

        ship.stop();
        for d in [&dir, &fdir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
