//! Failover end-to-end suite: lease-based leadership over the replication
//! stream, deterministic promotion, and epoch/term fencing of a deposed
//! zombie primary.
//!
//! The acceptance gate: kill the primary mid-stream, and
//!
//! * the replica holding the lowest id in the last broadcast roster
//!   promotes itself — tailer stopped, fresh WAL seeded from its applied
//!   state, term bumped, shipping endpoint opened — **within two lease
//!   windows**, and accepts writes;
//! * the losing candidate re-points at the winner, force-bootstraps from
//!   its snapshot (the winner's log is a new history with unrelated
//!   coordinates), and converges bit-identically — also under injected
//!   link faults (the proptest below);
//! * a restarted zombie primary cannot fork history: its recovery
//!   re-establishes its stale term, the boot-time peer probe finds the new
//!   leader at a higher term, and the zombie rejoins as that leader's
//!   replica — unreplicated zombie writes are discarded by the snapshot
//!   bootstrap and the cluster converges bit-identically.

mod common;

use common::{durability, fast_retry, fingerprint, wait_until, N};
use proptest::collection::vec;
use proptest::prelude::*;
use sac_engine::{EngineConfig, SacEngine};
use sac_geom::Point;
use sac_graph::{GraphBuilder, SpatialGraph};
use sac_live::failover::{arm, find_superseding_primary};
use sac_live::{
    spawn_shipper, FailoverConfig, FailoverHandle, FaultPlan, LiveEngine, Replica, ReplicaConfig,
    Role, SacService, ServiceConfig, ShipConfig, ShipHandle,
};
use sac_proto::{ProtoRequest, ProtoResponse};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sac-failover-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reserves a free loopback address for a promotion candidate to advertise
/// (bound, read, released — the promotion re-binds it).
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

fn positions(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new((i % 8) as f64 * 3.0, (i / 8) as f64 * 3.0))
        .collect()
}

fn spatial(initial: &[(u32, u32)]) -> SpatialGraph {
    let mut builder = GraphBuilder::new();
    builder.ensure_vertex(N - 1);
    builder.add_edges(initial.iter().copied().filter(|(u, v)| u != v));
    SpatialGraph::new(builder.build(), positions(N as usize)).unwrap()
}

/// Boots a durable primary over `initial` with a lease-stamping shipper.
fn primary_with_lease(
    dir: &Path,
    initial: &[(u32, u32)],
    lease_ms: u64,
) -> (Arc<SacEngine>, LiveEngine, ShipHandle) {
    let engine = Arc::new(SacEngine::with_config(
        Arc::new(spatial(initial)),
        EngineConfig::default(),
    ));
    let live = LiveEngine::with_durability(Arc::clone(&engine), durability(dir)).unwrap();
    let ship = spawn_shipper(
        TcpListener::bind("127.0.0.1:0").unwrap(),
        dir.to_path_buf(),
        Arc::clone(&engine),
        ShipConfig {
            lease_ms,
            ..ShipConfig::default()
        },
    )
    .unwrap();
    (engine, live, ship)
}

/// Boots a promotion candidate of `ship`: a replica announcing `id` and
/// `advertise`, fronted by a service with an armed failover watchdog.
fn candidate(
    ship: &ShipHandle,
    id: u64,
    advertise: &str,
    failover_dir: &Path,
    lease_ms: u64,
    faults: Option<FaultPlan>,
) -> (Arc<SacService>, FailoverHandle) {
    let mut config = ReplicaConfig::new(ship.addr().to_string());
    config.retry = fast_retry();
    config.staleness = Duration::from_secs(60);
    config.seed = id ^ 0xFA11;
    config.replica_id = Some(id);
    config.advertise = Some(advertise.to_string());
    config.faults = faults;
    let replica = Replica::boot(config).unwrap();
    let service = Arc::new(SacService::for_replica(replica, ServiceConfig::default()));
    let mut failover = FailoverConfig::new(id, advertise, failover_dir);
    failover.ship = ShipConfig {
        lease_ms,
        ..ShipConfig::default()
    };
    failover.poll = Some(Duration::from_millis(20));
    let handle = arm(Arc::clone(&service), failover).expect("service fronts a replica");
    (service, handle)
}

/// Commits one edge through a service's typed API; returns the new epoch.
fn write_through(service: &SacService, u: u32, v: u32) -> Result<u64, String> {
    match service.handle(&ProtoRequest::AddEdge { u, v }) {
        Some(ProtoResponse::Mutation(_)) => {}
        other => return Err(format!("add_edge answered {other:?}")),
    }
    match service.handle(&ProtoRequest::Commit { trace: false }) {
        Some(ProtoResponse::Commit(reply)) => Ok(reply.epoch),
        other => Err(format!("commit answered {other:?}")),
    }
}

/// The tentpole gate: kill -9 the primary (its shipper dies mid-stream);
/// the lowest-id candidate promotes within two lease windows and accepts
/// writes; the loser re-points, force-bootstraps and converges
/// bit-identically to the new history.
#[test]
fn lease_expiry_promotes_lowest_id_within_two_windows() {
    const LEASE_MS: u64 = 600;
    let dir = temp_dir("promote");
    let initial: Vec<(u32, u32)> = (0..N).map(|v| (v, (v + 3) % N)).collect();
    let (engine, live, ship) = primary_with_lease(&dir, &initial, LEASE_MS);

    let advert1 = free_addr();
    let advert2 = free_addr();
    let fdir1 = temp_dir("promote-f1");
    let fdir2 = temp_dir("promote-f2");
    let (svc1, _watch1) = candidate(&ship, 1, &advert1, &fdir1, LEASE_MS, None);
    let (svc2, watch2) = candidate(&ship, 2, &advert2, &fdir2, LEASE_MS, None);

    // A couple of pre-failover epochs flow to both candidates.
    live.add_edge(0, 9).unwrap();
    live.commit().unwrap();
    live.add_edge(1, 12).unwrap();
    live.commit().unwrap();
    let target = engine.epoch();
    for svc in [&svc1, &svc2] {
        let status = svc.replica_status().unwrap();
        assert!(
            wait_until(Duration::from_secs(20), || {
                status.applied_epoch() == target && status.roster().len() == 2
            }),
            "candidate stalled at {} (roster {:?})",
            status.applied_epoch(),
            status.roster()
        );
        assert_eq!(status.lease_ms(), LEASE_MS, "lease must be armed");
    }

    // Kill the primary: the shipper stops serving, the lease runs out.
    let killed = Instant::now();
    ship.stop();

    // Candidate 1 (lowest id in the broadcast roster) promotes itself.
    assert!(
        wait_until(Duration::from_millis(2 * LEASE_MS), || {
            svc1.role() == Role::Primary
        }),
        "no promotion within two lease windows ({}ms)",
        killed.elapsed().as_millis()
    );
    // ...and accepts writes through the same service handle.
    let epoch = write_through(&svc1, 2, 17).expect("the promoted primary takes writes");
    assert!(
        killed.elapsed() <= Duration::from_millis(2 * LEASE_MS),
        "write unavailability window exceeded two lease windows: {}ms",
        killed.elapsed().as_millis()
    );
    assert!(epoch > target, "the new history continues past {target}");
    assert_eq!(svc1.engine().term(), 1, "promotion adopts observed+1");
    assert!(svc1.replica_status().is_none(), "no replica state remains");

    // The loser follows the winner: re-pointed, re-bootstrapped, converged.
    let status2 = svc2.replica_status().expect("the loser stays a replica");
    assert!(
        wait_until(Duration::from_secs(30), || status2.primary() == advert1),
        "loser still believes {}",
        status2.primary()
    );
    let final_epoch = write_through(&svc1, 3, 20).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || {
            status2.applied_epoch() == final_epoch
        }),
        "loser stalled at {} of {} (bootstraps {})",
        status2.applied_epoch(),
        final_epoch,
        status2.snapshot_bootstraps()
    );
    assert_eq!(svc2.role(), Role::Replica);
    assert_eq!(status2.term(), 1, "the loser observed the new term");
    // No snapshot-bootstrap count is asserted: a loser that was fully caught
    // up realigns to the winner's log coordinates through the snapshot
    // handshake without jumping state, and that is the desired behaviour.
    assert_eq!(
        fingerprint(&svc2.engine()),
        fingerprint(&svc1.engine()),
        "loser must converge bit-identically to the promoted primary"
    );

    watch2.stop();
    svc2.stop_replica();
    svc1.live().shutdown_flush().unwrap();
    for d in [&dir, &fdir1, &fdir2] {
        let _ = std::fs::remove_dir_all(d);
    }
    drop(live);
}

/// The fencing gate: a deposed primary keeps writing its own WAL (the
/// fork), restarts, recovers at its stale term, and the boot-time peer
/// probe demotes it — it rejoins as a replica of the new leader and
/// converges bit-identically, the forked writes discarded.
#[test]
fn restarted_zombie_primary_is_fenced_and_rejoins() {
    const LEASE_MS: u64 = 400;
    let dir = temp_dir("zombie");
    let initial: Vec<(u32, u32)> = (0..N).map(|v| (v, (v + 5) % N)).collect();
    let (engine, live, ship) = primary_with_lease(&dir, &initial, LEASE_MS);

    let advert = free_addr();
    let fdir = temp_dir("zombie-f");
    let (svc, _watch) = candidate(&ship, 1, &advert, &fdir, LEASE_MS, None);
    live.add_edge(0, 11).unwrap();
    live.commit().unwrap();
    let target = engine.epoch();
    let status = svc.replica_status().unwrap();
    assert!(wait_until(Duration::from_secs(20), || {
        status.applied_epoch() == target && status.lease_ms() == LEASE_MS
    }));

    // The primary is partitioned away (its shipper dies); the candidate
    // promotes and the new history grows.
    ship.stop();
    assert!(wait_until(Duration::from_secs(5), || {
        svc.role() == Role::Primary
    }));
    write_through(&svc, 4, 19).unwrap();

    // Meanwhile the zombie keeps committing to its own WAL: the fork.
    live.add_edge(30, 25).unwrap();
    live.commit().unwrap();
    live.shutdown_flush().unwrap();
    drop(live);

    // "Restart" the zombie: recovery replays its forked log consistently —
    // fencing happens at the cluster boundary, not in the local replay.
    let (zombie, report) = LiveEngine::recover(durability(&dir), EngineConfig::default()).unwrap();
    assert_eq!(report.term, 0, "the zombie recovers at its stale term");
    let zombie_fork = fingerprint(zombie.engine());

    // The boot-time probe finds the new leader at a higher term: demote.
    let superseding = find_superseding_primary(
        &[advert.clone(), "127.0.0.1:1".to_string()],
        report.term,
        Duration::from_millis(500),
    );
    assert_eq!(superseding, Some((advert.clone(), 1)));
    drop(zombie);

    // Rejoining as a replica discards the fork via the snapshot bootstrap.
    let mut config = ReplicaConfig::new(advert.clone());
    config.retry = fast_retry();
    config.staleness = Duration::from_secs(60);
    config.seed = 0xDEAD;
    let rejoined = Replica::boot(config).unwrap();
    let final_epoch = svc.engine().epoch();
    assert!(
        wait_until(Duration::from_secs(30), || {
            rejoined.status().applied_epoch() == final_epoch
        }),
        "rejoined zombie stalled at {} of {final_epoch}",
        rejoined.status().applied_epoch()
    );
    let converged = fingerprint(rejoined.engine());
    assert_eq!(
        converged,
        fingerprint(&svc.engine()),
        "the rejoined zombie must serve the leader's history"
    );
    assert_ne!(
        converged, zombie_fork,
        "the forked write must not survive the rejoin"
    );
    assert_eq!(rejoined.status().term(), 1);

    rejoined.stop();
    svc.live().shutdown_flush().unwrap();
    for d in [&dir, &fdir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Lets `ship`'s lease run out with the shipper stopped, checks that the
/// candidate behind `svc` did not promote, then brings a shipper back on
/// the primary's address and checks that the candidate applies the next
/// commit.  Returns the restarted shipper.
fn outage_without_promotion(
    svc: &SacService,
    ship: ShipHandle,
    dir: &Path,
    engine: &Arc<SacEngine>,
    live: &LiveEngine,
    lease_ms: u64,
) -> ShipHandle {
    let addr = ship.addr();
    let status = svc.replica_status().expect("the candidate is a replica");
    assert!(wait_until(Duration::from_secs(20), || {
        status.lease_ms() == lease_ms && status.roster().len() == 1
    }));
    ship.stop();
    // The watchdog disarms the lease when it acts on the expiry; give the
    // failed promotion time to settle.
    assert!(wait_until(Duration::from_secs(10), || status.lease_ms() == 0));
    std::thread::sleep(Duration::from_millis(3 * lease_ms));
    assert_eq!(
        svc.role(),
        Role::Replica,
        "the promotion should have failed"
    );
    assert!(!status.connected(), "the primary's shipper is gone");

    // The primary comes back on its address: the same tailer follows it.
    let mut listener = None;
    assert!(wait_until(Duration::from_secs(10), || {
        listener = TcpListener::bind(addr).ok();
        listener.is_some()
    }));
    let ship = spawn_shipper(
        listener.unwrap(),
        dir.to_path_buf(),
        Arc::clone(engine),
        ShipConfig {
            lease_ms,
            ..ShipConfig::default()
        },
    )
    .unwrap();
    live.add_edge(status.applied_epoch() as u32 % N, 13)
        .unwrap();
    let epoch = live.commit().unwrap().epoch;
    assert!(
        wait_until(Duration::from_secs(20), || status.applied_epoch() == epoch),
        "the replica stalled at {} of {epoch} after a failed promotion",
        status.applied_epoch()
    );
    assert_eq!(fingerprint(&svc.engine()), fingerprint(engine));
    ship
}

/// A promotion whose failover directory already holds WAL state, or whose
/// advertised address is taken, fails before the tailer stops: the
/// candidate stays a replica on the same link and applies the primary's
/// next commits once its shipper returns.  The next expiry with both
/// obstacles gone promotes.
#[test]
fn failed_promotion_leaves_a_working_replica() {
    const LEASE_MS: u64 = 300;
    let dir = temp_dir("stranded");
    let initial: Vec<(u32, u32)> = (0..N).map(|v| (v, (v + 7) % N)).collect();
    let (engine, live, ship) = primary_with_lease(&dir, &initial, LEASE_MS);
    let advert = free_addr();
    let fdir = temp_dir("stranded-f");
    // Leftover WAL state in the failover directory.
    drop(sac_wal::WalWriter::open(&fdir, sac_wal::SyncPolicy::Never).unwrap());
    assert!(sac_wal::has_state(&fdir));
    let (svc, _watch) = candidate(&ship, 1, &advert, &fdir, LEASE_MS, None);

    let ship = outage_without_promotion(&svc, ship, &dir, &engine, &live, LEASE_MS);
    std::fs::remove_dir_all(&fdir).unwrap();
    let squatter = TcpListener::bind(&advert).unwrap();
    let ship = outage_without_promotion(&svc, ship, &dir, &engine, &live, LEASE_MS);
    assert!(!fdir.exists(), "a failed bind must not seed the directory");
    drop(squatter);

    let status = svc.replica_status().unwrap();
    assert!(wait_until(Duration::from_secs(20), || {
        status.lease_ms() == LEASE_MS && status.roster().len() == 1
    }));
    ship.stop();
    assert!(
        wait_until(Duration::from_secs(10), || svc.role() == Role::Primary),
        "the next expiry with the obstacles gone must promote"
    );
    write_through(&svc, 5, 21).expect("the promoted primary takes writes");

    svc.live().shutdown_flush().unwrap();
    for d in [&dir, &fdir] {
        let _ = std::fs::remove_dir_all(d);
    }
    drop(live);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The acceptance property under faults: kill the primary, let the
    /// winner promote, stream writes into the new history over a faulty
    /// link — the losing candidate still converges bit-identically.
    #[test]
    fn failover_under_link_faults_converges_bit_identical(
        initial in vec((0u32..N, 0u32..N), 20usize..40),
        stream in vec((0u32..N, 0u32..N), 6usize..12),
        fault_seed in 0u64..1_000,
    ) {
        const LEASE_MS: u64 = 300;
        let dir = temp_dir("faulty");
        let (engine, live, ship) = primary_with_lease(&dir, &initial, LEASE_MS);
        let plan = FaultPlan::parse(&format!(
            "seed={fault_seed},drop=0.06,dup=0.06,corrupt=0.05,truncate=0.03,delay=0.05:1"
        ))
        .unwrap();

        let advert1 = free_addr();
        let advert2 = free_addr();
        let fdir1 = temp_dir("faulty-f1");
        let fdir2 = temp_dir("faulty-f2");
        // The winner's link stays clean (its promotion must be prompt); the
        // loser tails every history through a mangling link.
        let (svc1, _watch1) = candidate(&ship, 1, &advert1, &fdir1, LEASE_MS, None);
        let (svc2, watch2) = candidate(&ship, 2, &advert2, &fdir2, LEASE_MS, Some(plan));

        let target = engine.epoch();
        for svc in [&svc1, &svc2] {
            let status = svc.replica_status().unwrap();
            prop_assert!(
                wait_until(Duration::from_secs(60), || {
                    status.applied_epoch() == target && status.roster().len() == 2
                }),
                "candidate stalled at {} of {target}",
                status.applied_epoch()
            );
        }

        ship.stop();
        prop_assert!(
            wait_until(Duration::from_secs(10), || svc1.role() == Role::Primary),
            "no promotion under faults"
        );

        // Stream writes into the new history.
        let mut last = 0;
        for &(u, v) in &stream {
            if u != v {
                if let Ok(epoch) = write_through(&svc1, u, v) {
                    last = epoch;
                }
            }
        }
        if last == 0 {
            last = write_through(&svc1, 0, 1).unwrap();
        }

        let status2 = svc2.replica_status().expect("loser stays a replica");
        prop_assert!(
            wait_until(Duration::from_secs(60), || {
                status2.applied_epoch() == last
            }),
            "loser stalled at {} of {last} under faults (seed {fault_seed}, \
             bootstraps {}, reconnects {})",
            status2.applied_epoch(),
            status2.snapshot_bootstraps(),
            status2.reconnects()
        );
        prop_assert_eq!(
            fingerprint(&svc2.engine()),
            fingerprint(&svc1.engine()),
            "divergence after failover under faults (seed {})",
            fault_seed
        );

        watch2.stop();
        svc2.stop_replica();
        svc1.live().shutdown_flush().unwrap();
        for d in [&dir, &fdir1, &fdir2] {
            let _ = std::fs::remove_dir_all(d);
        }
        drop(live);
    }
}
