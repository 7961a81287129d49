//! Failover bench: how long writes are unavailable when the primary dies.
//!
//! A durable primary ships its WAL (heartbeats carrying a lease) to two
//! promotion candidates fronted by [`SacService`]s with armed failover
//! watchdogs.  A redirect-chasing client (enter at any service, follow the
//! typed `redirect_to` up to [`MAX_HOPS`] hops) first demonstrates steady-
//! state write routing, then the primary is killed — its shipping endpoint
//! vanishes mid-stream — and the client hammers the cluster until a write
//! lands on the promoted candidate.  The kill-to-first-commit gap is the
//! **write-unavailability window**; the losing candidate's re-point and
//! bit-identical convergence to the new history are timed after it.
//!
//! Run with: `cargo run --release -p sac-bench --example bench_failover`
//!
//! Results land in `bench_failover.json` in the current directory (written
//! *before* the gates are asserted, so a regression run keeps its numbers).
//! Three gates:
//!
//! * **bounded unavailability** — the first post-kill write must commit
//!   within [`GATE_WINDOWS`] lease windows.  Promotion is driven by
//!   background watchdog threads, so on hosts with fewer than 3 available
//!   cores the timing gate is reported but SKIPPED (loudly — the JSON row
//!   says so);
//! * **loser convergence** — the losing candidate must re-point at the
//!   winner and fully apply the new history within [`CATCH_UP_LIMIT`];
//! * **bit-identity** — winner and loser must fingerprint identically
//!   (epoch, cores, position bits, sample answers) on the new history.

use sac_bench::{bench_dataset_scaled, fingerprint, temp_dir};
use sac_data::DatasetKind;
use sac_engine::SacEngine;
use sac_live::failover::arm;
use sac_live::{
    spawn_shipper, Durability, FailoverConfig, LiveEngine, Replica, ReplicaConfig, RetryPolicy,
    Role, SacService, ServiceConfig, ShipConfig, SyncPolicy,
};
use sac_proto::{ProtoRequest, ProtoResponse};
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lease duration the primary stamps into heartbeats.
const LEASE_MS: u64 = 600;

/// Gate: the write-unavailability window in lease windows (the acceptance
/// bound — a replica must promote and take writes within two windows).
const GATE_WINDOWS: f64 = 2.0;

/// Gate: how long the losing candidate may take to converge on the new
/// history after the winner promotes.
const CATCH_UP_LIMIT: Duration = Duration::from_secs(20);

/// Redirect-chasing budget of the client.
const MAX_HOPS: usize = 3;

/// Steady-state writes demonstrating redirect routing before the kill.
const STEADY_WRITES: u32 = 8;

/// Reserves a free loopback address for a candidate to advertise.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

/// Boots a promotion candidate: a replica announcing its id and advertise
/// address, fronted by a service with an armed failover watchdog.
fn candidate(
    primary_addr: &str,
    id: u64,
    advertise: &str,
    failover_dir: &std::path::Path,
) -> (Arc<SacService>, sac_live::FailoverHandle) {
    let mut config = ReplicaConfig::new(primary_addr.to_string());
    config.retry = RetryPolicy {
        base: Duration::from_millis(10),
        max: Duration::from_millis(100),
        attempt_timeout: Duration::from_secs(5),
        ..RetryPolicy::default()
    };
    config.staleness = Duration::from_secs(60);
    config.seed = id;
    config.replica_id = Some(id);
    config.advertise = Some(advertise.to_string());
    let replica = Replica::boot(config).expect("replica bootstrap");
    let service = Arc::new(SacService::for_replica(replica, ServiceConfig::default()));
    let mut failover = FailoverConfig::new(id, advertise, failover_dir);
    failover.ship = ShipConfig {
        lease_ms: LEASE_MS,
        ..ShipConfig::default()
    };
    let handle = arm(Arc::clone(&service), failover).expect("service fronts a replica");
    (service, handle)
}

/// One write through the redirect-chasing client: enter at `entry`, follow
/// typed redirects up to [`MAX_HOPS`] across the in-process address map (a
/// missing address models a dead endpoint — connection refused).  Returns
/// the committed epoch and the hops taken.
fn chase_write(
    entry: &Arc<SacService>,
    by_addr: &HashMap<String, Arc<SacService>>,
    u: u32,
    v: u32,
) -> Result<(u64, usize), String> {
    let mut service = Arc::clone(entry);
    let mut hops = 0usize;
    loop {
        match service.handle(&ProtoRequest::AddEdge { u, v }) {
            Some(ProtoResponse::Mutation(_)) => break,
            Some(ProtoResponse::Redirect { primary, .. }) => {
                hops += 1;
                if hops > MAX_HOPS {
                    return Err(format!("gave up after {MAX_HOPS} redirect hops"));
                }
                service = Arc::clone(
                    by_addr
                        .get(&primary)
                        .ok_or_else(|| format!("redirect target {primary} is unreachable"))?,
                );
            }
            other => return Err(format!("add_edge answered {other:?}")),
        }
    }
    match service.handle(&ProtoRequest::Commit { trace: false }) {
        Some(ProtoResponse::Commit(reply)) => Ok((reply.epoch, hops)),
        other => Err(format!("commit answered {other:?}")),
    }
}

fn main() {
    let data = bench_dataset_scaled(DatasetKind::Brightkite, 0.1);
    let graph = Arc::new(data.graph);
    let n = graph.num_vertices() as u32;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "dataset: {} vertices, {} edges; lease {LEASE_MS}ms; {cores} cores",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Primary: durable live front + lease-stamping shipper, fronted by a
    // service so the redirect-chasing client can write through it.
    let dir = temp_dir("failover", "primary");
    let engine = Arc::new(SacEngine::from_snapshot(Arc::clone(&graph)));
    let live = LiveEngine::with_durability(
        Arc::clone(&engine),
        Durability {
            dir: dir.clone(),
            sync: SyncPolicy::Never,
            checkpoint_every: 0,
        },
    )
    .unwrap();
    let ship = spawn_shipper(
        TcpListener::bind("127.0.0.1:0").unwrap(),
        dir.clone(),
        Arc::clone(&engine),
        ShipConfig {
            lease_ms: LEASE_MS,
            ..ShipConfig::default()
        },
    )
    .unwrap();
    let old_addr = ship.addr().to_string();
    let primary_svc = Arc::new(SacService::with_live(live, ServiceConfig::default()));

    // Two promotion candidates; id 1 wins any election.
    let advert1 = free_addr();
    let advert2 = free_addr();
    let fdir1 = temp_dir("failover", "f1");
    let fdir2 = temp_dir("failover", "f2");
    let (svc1, _watch1) = candidate(&old_addr, 1, &advert1, &fdir1);
    let (svc2, watch2) = candidate(&old_addr, 2, &advert2, &fdir2);
    let mut by_addr: HashMap<String, Arc<SacService>> = HashMap::from([
        (old_addr.clone(), Arc::clone(&primary_svc)),
        (advert1.clone(), Arc::clone(&svc1)),
        (advert2.clone(), Arc::clone(&svc2)),
    ]);

    // Steady state: writes entering at a replica chase one redirect hop to
    // the primary; both candidates apply the stream and hold a lease.
    let mut steady_hops = 0usize;
    for i in 0..STEADY_WRITES {
        let (u, v) = (i % n, (i * 7 + 3) % n);
        if u == v {
            continue;
        }
        let (_, hops) = chase_write(&svc2, &by_addr, u, v).expect("steady-state write");
        steady_hops = steady_hops.max(hops);
    }
    let target = engine.epoch();
    let synced = Instant::now();
    while svc1.replica_status().map_or(0, |s| s.applied_epoch()) < target
        || svc2.replica_status().map_or(0, |s| s.applied_epoch()) < target
    {
        assert!(
            synced.elapsed() < Duration::from_secs(30),
            "candidates never caught up to epoch {target}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    println!("steady state: {STEADY_WRITES} writes routed (max {steady_hops} hop), epoch {target}");

    // Kill -9 the primary: the shipping endpoint vanishes mid-stream and
    // its service stops answering (modelled by dropping it from the map).
    ship.stop();
    by_addr.remove(&old_addr);
    let killed = Instant::now();

    // The client hammers the cluster until a write lands: redirects to the
    // dead address fail like refused connections, then the watchdogs fire —
    // candidate 1 promotes, candidate 2 re-points at it.
    let mut attempts = 0u64;
    let (first_epoch, first_hops) = loop {
        attempts += 1;
        match chase_write(
            &svc2,
            &by_addr,
            attempts as u32 % n,
            (attempts as u32 + 11) % n,
        ) {
            Ok(done) => break done,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
        assert!(
            killed.elapsed() < Duration::from_secs(30),
            "no write landed within 30s of the kill"
        );
    };
    let unavailable_ms = killed.elapsed().as_secs_f64() * 1e3;
    let windows = unavailable_ms / LEASE_MS as f64;
    let new_term = svc1.engine().term();
    println!(
        "failover: write unavailable {unavailable_ms:.0}ms = {windows:.2} lease windows \
         ({attempts} attempts, landed at epoch {first_epoch} via {first_hops} hop(s), \
         term {new_term}, winner role {:?})",
        svc1.role()
    );

    // The loser follows the winner onto the new history.
    let mut last_epoch = first_epoch;
    for i in 0..4u32 {
        let (epoch, _) = chase_write(&svc1, &by_addr, (i * 13 + 1) % n, (i * 29 + 5) % n)
            .expect("post-failover write");
        last_epoch = epoch;
    }
    let chase_start = Instant::now();
    let status2 = svc2.replica_status().expect("loser stays a replica");
    while status2.applied_epoch() < last_epoch && chase_start.elapsed() < CATCH_UP_LIMIT {
        std::thread::sleep(Duration::from_millis(2));
    }
    let converged = status2.applied_epoch() >= last_epoch;
    let catch_up_ms = chase_start.elapsed().as_secs_f64() * 1e3;
    let identical = fingerprint(&svc1.engine()) == fingerprint(&svc2.engine());
    println!(
        "loser: re-pointed at {}, converged={converged} in {catch_up_ms:.0}ms, \
         bit_identical={identical} at epoch {last_epoch}",
        status2.primary()
    );

    let gate_enforced = cores >= 3;
    let rows = [
        format!(
            r#"{{"bench":"failover_redirect","steady_writes":{STEADY_WRITES},"max_hops":{steady_hops}}}"#
        ),
        format!(
            r#"{{"bench":"failover_unavailability","lease_ms":{LEASE_MS},"unavailable_ms":{unavailable_ms:.0},"windows":{windows:.3},"gate_windows":{GATE_WINDOWS},"attempts":{attempts},"new_term":{new_term},"gate_enforced":{gate_enforced},"cores":{cores}}}"#
        ),
        format!(
            r#"{{"bench":"failover_convergence","loser_catch_up_ms":{catch_up_ms:.0},"converged":{converged},"bit_identical":{identical},"final_epoch":{last_epoch}}}"#
        ),
    ];
    let json = format!(r#"{{"bench":"failover","results":[{}]}}"#, rows.join(","));
    std::fs::write("bench_failover.json", format!("{json}\n")).expect("write bench_failover.json");
    println!("wrote bench_failover.json");

    watch2.stop();
    svc2.stop_replica();
    for d in [&dir, &fdir1, &fdir2] {
        let _ = std::fs::remove_dir_all(d);
    }

    // Regression gates (after the JSON is written, so a failing run keeps
    // its numbers).
    assert_eq!(svc1.role(), Role::Primary, "candidate 1 must have promoted");
    assert!(new_term >= 1, "promotion must raise the term");
    assert!(
        converged,
        "the losing candidate failed to converge within {CATCH_UP_LIMIT:?}"
    );
    assert!(identical, "loser state diverged from the promoted primary");
    if gate_enforced {
        assert!(
            windows <= GATE_WINDOWS,
            "write-unavailability window {unavailable_ms:.0}ms = {windows:.2} lease windows \
             exceeds the {GATE_WINDOWS} window gate"
        );
    } else {
        println!(
            "unavailability gate SKIPPED: {cores} cores < 3 \
             (measured {windows:.2} windows, gate {GATE_WINDOWS})"
        );
    }
}
