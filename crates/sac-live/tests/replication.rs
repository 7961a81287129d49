//! Replication end-to-end suite: a read replica tailing a live primary's
//! WAL-shipping endpoint must converge to a state **bit-identical** to the
//! primary — core numbers, positions and query answers — at every applied
//! epoch, even when the link injects drops, delays,
//! duplicates, corruption and mid-frame truncation on both sides.
//!
//! Also covered here:
//!
//! * checkpoint truncation racing a disconnected replica: on reconnect the
//!   stale tail position resolves to `SnapshotRequired` and the replica
//!   re-bootstraps from the primary's latest snapshot (never a wrong apply);
//! * staleness-aware degradation: a replica that loses its primary keeps
//!   answering at its last applied epoch, reports `degraded`, and recovers
//!   on its own once the primary is back;
//! * the read-only contract: mutations on a replica get a typed redirect
//!   carrying the primary's address.

use proptest::collection::vec;
use proptest::prelude::*;
use sac_engine::{SacEngine, SacRequest};
use sac_geom::Point;
use sac_graph::{GraphBuilder, SpatialGraph};
use sac_live::{
    spawn_shipper, Durability, FaultPlan, LiveEngine, Replica, ReplicaConfig, RetryPolicy,
    SacService, ServiceConfig, ShipConfig, SyncPolicy,
};
use sac_proto::{ProtoRequest, ProtoResponse};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: u32 = 32;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sac-replication-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Positions in four well-separated clusters.
fn positions(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let cluster = i % 4;
            let (cx, cy) = ((cluster % 2) as f64 * 100.0, (cluster / 2) as f64 * 100.0);
            Point::new(
                cx + (i / 4 % 4) as f64 + 0.3 * (i % 3) as f64,
                cy + (i / 16) as f64,
            )
        })
        .collect()
}

fn spatial(initial: &[(u32, u32)], n: u32) -> SpatialGraph {
    let mut builder = GraphBuilder::new();
    builder.ensure_vertex(n - 1);
    builder.add_edges(initial.iter().copied().filter(|(u, v)| u != v));
    SpatialGraph::new(builder.build(), positions(n as usize)).unwrap()
}

fn durability(dir: &Path) -> Durability {
    Durability {
        dir: dir.to_path_buf(),
        sync: SyncPolicy::Never,
        checkpoint_every: 0, // manual only: the log keeps every record
    }
}

/// A retry policy tight enough that fault-driven reconnects cost
/// milliseconds, not the production-scale backoff.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(5),
        max: Duration::from_millis(50),
        multiplier: 2.0,
        jitter: 0.2,
        attempt_timeout: Duration::from_secs(2),
    }
}

/// Everything "bit-identical" means, captured from an engine.
#[derive(Clone, PartialEq, Debug)]
struct StateFingerprint {
    epoch: u64,
    cores: Vec<u32>,
    position_bits: Vec<(u64, u64)>,
    answers: Vec<Option<Vec<u32>>>,
}

fn fingerprint(engine: &SacEngine) -> StateFingerprint {
    let snapshot = engine.snapshot();
    let n = snapshot.num_vertices() as u32;
    let mut answers = Vec::new();
    for q in (0..n).step_by(5) {
        for k in 1..4u32 {
            let response = engine.execute(&SacRequest::new(u64::from(q), q, k));
            answers.push(response.community().map(|c| c.members().to_vec()));
        }
    }
    StateFingerprint {
        epoch: engine.epoch(),
        cores: engine.decomposition().core_numbers().to_vec(),
        position_bits: snapshot
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect(),
        answers,
    }
}

/// Applies stream op `i` to the live front; returns whether it buffered
/// a mutation.
fn apply_op(live: &LiveEngine, u: u32, v: u32, op: u32) -> bool {
    match op {
        7 => {
            let p = Point::new((u % 9) as f64 * 23.0, (v % 9) as f64 * 17.0);
            live.move_vertex(u % N, p).unwrap()
        }
        8 => {
            live.add_vertex(Point::new((u % 11) as f64, (v % 11) as f64))
                .unwrap();
            true
        }
        _ if u != v => live.add_edge(u, v).unwrap().applied,
        _ => false,
    }
}

/// Polls `done` until it returns true or `deadline` elapses.
fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    done()
}

/// Boots a durable primary over `initial` plus its shipping endpoint.
fn primary(
    dir: &Path,
    initial: &[(u32, u32)],
    faults: Option<FaultPlan>,
) -> (Arc<SacEngine>, LiveEngine, sac_live::ShipHandle) {
    let graph = spatial(initial, N);
    let engine = Arc::new(SacEngine::new(graph));
    let live = LiveEngine::with_durability(Arc::clone(&engine), durability(dir)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let ship = spawn_shipper(
        listener,
        dir.to_path_buf(),
        Arc::clone(&engine),
        ShipConfig {
            faults,
            ..ShipConfig::default()
        },
    )
    .unwrap();
    (engine, live, ship)
}

fn replica_config(primary: &sac_live::ShipHandle, seed: u64) -> ReplicaConfig {
    let mut config = ReplicaConfig::new(primary.addr().to_string());
    config.retry = fast_retry();
    config.staleness = Duration::from_secs(60); // degradation tested separately
    config.seed = seed;
    config
}

/// Commits on the primary one at a time over a clean link; the replica must
/// land on a bit-identical fingerprint at **every** applied epoch.
#[test]
fn replica_converges_in_lockstep_with_identical_fingerprints() {
    let dir = temp_dir("lockstep");
    let initial: Vec<(u32, u32)> = (0..N).map(|v| (v, (v + 3) % N)).collect();
    let (engine, live, ship) = primary(&dir, &initial, None);
    let replica = Replica::boot(replica_config(&ship, 11)).unwrap();

    // Bootstrap lands on the base checkpoint's state.
    assert!(
        wait_until(Duration::from_secs(20), || {
            replica.status().applied_epoch() == engine.epoch()
        }),
        "bootstrap stalled: replica at {}, primary at {}",
        replica.status().applied_epoch(),
        engine.epoch()
    );
    assert_eq!(fingerprint(replica.engine()), fingerprint(&engine));

    let stream: [(u32, u32, u32); 10] = [
        (1, 2, 0),
        (5, 9, 7),
        (3, 4, 0),
        (0, 0, 8),
        (1, 3, 0),
        (7, 8, 7),
        (2, 4, 0),
        (0, 0, 8),
        (9, 14, 0),
        (12, 13, 7),
    ];
    for &(u, v, op) in &stream {
        if !apply_op(&live, u, v, op) {
            continue;
        }
        live.commit().unwrap();
        let target = engine.epoch();
        assert!(
            wait_until(Duration::from_secs(20), || {
                replica.status().applied_epoch() == target
            }),
            "replica stalled at {} waiting for epoch {}",
            replica.status().applied_epoch(),
            target
        );
        assert_eq!(
            fingerprint(replica.engine()),
            fingerprint(&engine),
            "divergence at epoch {target}"
        );
    }
    assert!(replica.status().records_applied() > 0);
    assert_eq!(replica.status().lag_epochs(), 0);

    replica.stop();
    ship.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance property: under fault injection on **both** sides of
    /// the link (drops, delays, duplicates, corruption, mid-frame
    /// truncation), a replica tailing a live primary still converges
    /// bit-identical at every applied epoch it waits for.
    #[test]
    fn faulty_link_replica_converges_bit_identical(
        initial in vec((0u32..N, 0u32..N), 20usize..60),
        stream in vec((0u32..N, 0u32..N, 0u32..10), 10usize..20),
        commit_every in 2usize..4,
        fault_seed in 0u64..1_000,
    ) {
        let dir = temp_dir("faulty");
        let plan = FaultPlan::parse(&format!(
            "seed={fault_seed},drop=0.08,dup=0.08,corrupt=0.06,truncate=0.04,delay=0.05:1"
        ))
        .unwrap();
        let (engine, live, ship) = primary(&dir, &initial, Some(plan));
        let mut config = replica_config(&ship, fault_seed ^ 0xD1CE);
        config.faults = Some(plan); // receive side mangles frames too
        let replica = Replica::boot(config).unwrap();

        prop_assert!(
            wait_until(Duration::from_secs(60), || {
                replica.status().applied_epoch() == engine.epoch()
            }),
            "bootstrap stalled: replica at {}, primary at {}",
            replica.status().applied_epoch(),
            engine.epoch()
        );

        for (i, &(u, v, op)) in stream.iter().enumerate() {
            apply_op(&live, u, v, op);
            if (i + 1) % commit_every == 0 && live.pending() > 0 {
                live.commit().unwrap();
                let target = engine.epoch();
                prop_assert!(
                    wait_until(Duration::from_secs(60), || {
                        replica.status().applied_epoch() == target
                    }),
                    "replica stalled at {} waiting for epoch {} (reconnects: {})",
                    replica.status().applied_epoch(),
                    target,
                    replica.status().reconnects()
                );
                prop_assert_eq!(
                    fingerprint(replica.engine()),
                    fingerprint(&engine),
                    "divergence at epoch {} under faults (seed {})",
                    target,
                    fault_seed
                );
            }
        }
        if live.pending() > 0 {
            live.commit().unwrap();
        }
        let target = engine.epoch();
        prop_assert!(
            wait_until(Duration::from_secs(60), || {
                replica.status().applied_epoch() == target
            }),
            "final convergence stalled at {} of {}",
            replica.status().applied_epoch(),
            target
        );
        prop_assert_eq!(fingerprint(replica.engine()), fingerprint(&engine));

        replica.stop();
        ship.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite: a checkpoint on the primary truncates the log segments a
/// disconnected replica's tail position points into.  On reconnect the
/// replica must get a clean `SnapshotRequired`, re-bootstrap from the new
/// snapshot via the restored-publish path, and converge — and in between it
/// must keep serving at its last applied epoch, flipping health to
/// `degraded` past the staleness threshold and back once caught up.
#[test]
fn checkpoint_truncation_forces_snapshot_rebootstrap() {
    let dir = temp_dir("truncate");
    let initial: Vec<(u32, u32)> = (0..N).map(|v| (v, (v + 5) % N)).collect();
    let (engine, live, ship) = primary(&dir, &initial, None);
    let port_addr = ship.addr();

    let mut config = replica_config(&ship, 29);
    config.staleness = Duration::from_millis(300);
    let replica = Replica::boot(config).unwrap();

    for i in 0..3u32 {
        live.add_edge(i, i + 7).unwrap();
        live.commit().unwrap();
    }
    let pre_partition = engine.epoch();
    assert!(wait_until(Duration::from_secs(20), || {
        replica.status().applied_epoch() == pre_partition
    }));
    assert_eq!(fingerprint(replica.engine()), fingerprint(&engine));
    assert!(!replica.status().degraded());

    // Partition: the shipping endpoint goes away entirely.
    ship.stop();
    assert!(
        wait_until(Duration::from_secs(10), || replica.status().degraded()),
        "replica never degraded after losing its primary"
    );
    // Degraded, not dead: reads still answer at the last applied epoch.
    assert_eq!(replica.engine().epoch(), pre_partition);
    let reply = replica.engine().execute(&SacRequest::new(1, 0, 1));
    assert!(reply.community().is_some() || reply.community().is_none()); // served, not panicked
    assert!(replica.status().stats_reply().degraded);

    // Meanwhile the primary advances and checkpoints: every segment the
    // replica's tail position points into is truncated away.
    for i in 0..4u32 {
        live.add_edge(i + 2, i + 11).unwrap();
        live.commit().unwrap();
    }
    let report = live.checkpoint().unwrap();
    assert_eq!(report.epoch, engine.epoch());
    assert!(engine.epoch() > pre_partition);

    // The primary comes back on the same address (new listener, same port).
    let start = Instant::now();
    let listener = loop {
        match TcpListener::bind(port_addr) {
            Ok(listener) => break listener,
            Err(e) => {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "cannot rebind {port_addr}: {e}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    let ship2 = spawn_shipper(
        listener,
        dir.clone(),
        Arc::clone(&engine),
        ShipConfig::default(),
    )
    .unwrap();

    // The replica re-bootstraps from the snapshot and converges.
    assert!(
        wait_until(Duration::from_secs(20), || {
            replica.status().applied_epoch() == engine.epoch()
        }),
        "replica stalled at {} after checkpoint truncation (bootstraps: {})",
        replica.status().applied_epoch(),
        replica.status().snapshot_bootstraps()
    );
    assert!(
        replica.status().snapshot_bootstraps() >= 1,
        "stale tail position must force a snapshot re-bootstrap"
    );
    assert_eq!(fingerprint(replica.engine()), fingerprint(&engine));
    assert!(
        wait_until(Duration::from_secs(10), || !replica.status().degraded()),
        "health must recover once the replica is caught up"
    );

    // And the link keeps working: one more commit flows through.
    live.add_edge(20, 27).unwrap();
    live.commit().unwrap();
    let target = engine.epoch();
    assert!(wait_until(Duration::from_secs(20), || {
        replica.status().applied_epoch() == target
    }));
    assert_eq!(fingerprint(replica.engine()), fingerprint(&engine));

    replica.stop();
    ship2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The read-only contract: on a replica-backed service, every mutation gets
/// a typed redirect carrying the primary's address, queries are served
/// normally, and `stats` exposes the replication state.
#[test]
fn mutations_on_a_replica_redirect_to_the_primary() {
    let dir = temp_dir("redirect");
    let initial: Vec<(u32, u32)> = (0..N).map(|v| (v, (v + 2) % N)).collect();
    let (engine, _live, ship) = primary(&dir, &initial, None);
    let replica = Replica::boot(replica_config(&ship, 41)).unwrap();
    assert!(wait_until(Duration::from_secs(20), || {
        replica.status().applied_epoch() == engine.epoch()
    }));
    let service = SacService::for_replica(replica, ServiceConfig::default());

    let primary_addr = ship.addr().to_string();
    for request in [
        ProtoRequest::AddEdge { u: 1, v: 2 },
        ProtoRequest::RemoveEdge { u: 1, v: 2 },
        ProtoRequest::Commit { trace: false },
    ] {
        match service.handle(&request) {
            Some(ProtoResponse::Redirect { primary, .. }) => {
                assert_eq!(primary, primary_addr);
            }
            other => panic!("expected redirect, got {other:?}"),
        }
    }
    let line = service
        .handle_line(r#"{"cmd":"add_edge","u":1,"v":2}"#)
        .unwrap();
    assert!(
        line.contains(r#""redirect_to":"#) && line.contains(&primary_addr),
        "got: {line}"
    );

    // Queries still flow.
    let line = service.handle_line(r#"{"q":0,"k":1}"#).unwrap();
    assert!(line.contains(r#""ok":true"#), "got: {line}");

    // Stats carry the replication block.
    match service.handle(&ProtoRequest::Stats) {
        Some(ProtoResponse::Stats(reply)) => {
            let replication = reply.replication.expect("replica stats");
            assert_eq!(replication.primary, primary_addr);
            assert_eq!(replication.last_applied_epoch, engine.epoch());
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Every engine mode reports its role; this service fronts a replica.
    assert_eq!(service.role(), sac_live::Role::Replica);

    service.stop_replica();
    ship.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hostile primary whose `Snapshot` hello claims 2^62 bytes, sends a few
/// and hangs up: bootstrap must fail cleanly instead of allocating the
/// claimed length up front.
#[test]
fn oversized_snapshot_hello_fails_without_allocating() {
    use sac_proto::replication::ReplicateHello;
    use std::io::{BufRead, BufReader, Write};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let mut request = String::new();
        reader.read_line(&mut request).unwrap();
        let hello = ReplicateHello::Snapshot {
            epoch: 1,
            len: 1 << 62,
            segment: 0,
            offset: 0,
            term: 0,
        };
        let mut stream = reader.into_inner();
        let reply = format!("{}\nSACSNAP1", hello.encode_line());
        stream.write_all(reply.as_bytes()).unwrap();
    });

    let mut config = ReplicaConfig::new(addr);
    config.retry = fast_retry();
    config.boot_attempts = 1;
    let result = Replica::boot(config);
    fake.join().unwrap();
    assert!(result.is_err(), "bootstrap accepted a truncated snapshot");
}
