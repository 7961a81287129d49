//! Replication bench: what read replicas buy, and what staleness they cost.
//!
//! A durable primary ships its WAL to two in-process read replicas; the
//! same closed-loop query workload then runs two ways — every serving
//! thread pinned to the primary, and the threads spread across
//! primary + 2 replicas (one per instance, the per-instance capacity
//! model: each real deployment gives an instance its own cores).  Total
//! read throughput is compared.  A burst of commits then lands on the
//! primary and the replicas' catch-up is timed, sampling replication lag
//! throughout; finally all three engines are checked **bit-identical**.
//!
//! Run with: `cargo run --release -p sac-bench --example bench_replication`
//!
//! Results land in `bench_replication.json` in the current directory
//! (written *before* the gates are asserted, so a regression run keeps its
//! numbers).  Three gates:
//!
//! * **read scaling** — primary + 2 replicas must serve at least
//!   [`MIN_SCALING`]× the single-instance throughput.  This needs one core
//!   per instance: on hosts with fewer than 3 available cores the gate is
//!   reported but SKIPPED (loudly — the JSON row says so);
//! * **bounded lag** — after the commit burst, both replicas must converge
//!   within [`CATCH_UP_LIMIT`]; the peak `lag_epochs` seen is reported;
//! * **bit-identity** — primary and both replicas must fingerprint
//!   identically (epoch, cores, position bits, sample answers).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_bench::{bench_dataset_scaled, fingerprint, temp_dir};
use sac_data::DatasetKind;
use sac_engine::{SacEngine, SacRequest};
use sac_geom::Point;
use sac_live::{
    spawn_shipper, Durability, LiveEngine, Replica, ReplicaConfig, RetryPolicy, ShipConfig,
    SyncPolicy,
};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gate: total read QPS of primary + 2 replicas over the single-instance
/// baseline (enforced only when >= 3 cores are available).
const MIN_SCALING: f64 = 1.7;

/// Gate: how long the replicas may take to fully apply the commit burst.
const CATCH_UP_LIMIT: Duration = Duration::from_secs(20);

/// Commit burst driving the lag measurement.
const BURST_COMMITS: usize = 8;
const MUTATIONS_PER_COMMIT: usize = 4;

/// Closed-loop measurement window per throughput phase.
const MEASURE: Duration = Duration::from_millis(1200);

/// One serving thread's closed loop: cycles the query set against its
/// instance until `stop`, counting answered queries.
fn serve_loop(engine: &SacEngine, queries: &[u32], stop: &AtomicBool, served: &AtomicU64) {
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let q = queries[i % queries.len()];
        let k = 2 + (i % 3) as u32;
        let _ = engine.execute(&SacRequest::new(i as u64, q, k));
        served.fetch_add(1, Ordering::Relaxed);
        i += 1;
    }
}

/// Runs `engines.len()` serving threads (one per instance) for [`MEASURE`]
/// and returns the total QPS.
fn measure_qps(engines: &[&Arc<SacEngine>], queries: &[u32]) -> f64 {
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for engine in engines {
            scope.spawn(|| serve_loop(engine, queries, &stop, &served));
        }
        std::thread::sleep(MEASURE);
        stop.store(true, Ordering::Relaxed);
    });
    served.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

fn boot_replica(addr: &str, seed: u64) -> Replica {
    let mut config = ReplicaConfig::new(addr.to_string());
    config.retry = RetryPolicy {
        base: Duration::from_millis(10),
        max: Duration::from_millis(200),
        attempt_timeout: Duration::from_secs(5),
        ..RetryPolicy::default()
    };
    config.staleness = Duration::from_secs(60);
    config.seed = seed;
    Replica::boot(config).expect("replica bootstrap")
}

fn wait_applied(replicas: &[&Replica], target: u64, limit: Duration) -> (bool, u64) {
    let start = Instant::now();
    let mut max_lag = 0u64;
    loop {
        let mut caught_up = true;
        for replica in replicas {
            max_lag = max_lag.max(replica.status().lag_epochs());
            if replica.status().applied_epoch() < target {
                caught_up = false;
            }
        }
        if caught_up {
            return (true, max_lag);
        }
        if start.elapsed() > limit {
            return (false, max_lag);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn main() {
    let data = bench_dataset_scaled(DatasetKind::Brightkite, 0.1);
    let graph = Arc::new(data.graph);
    let n = graph.num_vertices() as u32;
    let queries: Vec<u32> = data.queries.clone();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "dataset: {} vertices, {} edges; {} query vertices; {cores} cores",
        graph.num_vertices(),
        graph.num_edges(),
        queries.len()
    );

    // Primary with a WAL and a shipping endpoint.
    let dir = temp_dir("repl", "primary");
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
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let ship = spawn_shipper(
        listener,
        dir.clone(),
        Arc::clone(&engine),
        ShipConfig::default(),
    )
    .unwrap();
    let addr = ship.addr().to_string();

    // Two replicas bootstrap from the primary's snapshot.
    let r1 = boot_replica(&addr, 1);
    let r2 = boot_replica(&addr, 2);
    let (ok, _) = wait_applied(&[&r1, &r2], engine.epoch(), Duration::from_secs(30));
    assert!(ok, "replicas never bootstrapped");
    println!("replicas bootstrapped at epoch {}", engine.epoch());

    // Warm every instance's caches with one pass of the query set.
    for instance in [&engine, r1.engine(), r2.engine()] {
        for (i, &q) in queries.iter().enumerate() {
            let _ = instance.execute(&SacRequest::new(i as u64, q, 3));
        }
    }

    // Phase A: every read goes to the primary (one serving thread — the
    // per-instance capacity model gives each instance one core here).
    let qps_one = measure_qps(&[&engine], &queries);
    println!("1 instance : {qps_one:>9.0} qps");

    // Phase B: the same reads spread across primary + 2 replicas.
    let qps_three = measure_qps(&[&engine, r1.engine(), r2.engine()], &queries);
    let scaling = qps_three / qps_one;
    let gate_enforced = cores >= 3;
    println!(
        "3 instances: {qps_three:>9.0} qps ({scaling:.2}x{})",
        if gate_enforced {
            ""
        } else {
            ", gate SKIPPED: < 3 cores"
        }
    );

    // Phase C: a commit burst on the primary; time the replicas' catch-up
    // and sample peak lag while they chase the tail.
    let mut rng = StdRng::seed_from_u64(0x5AC_2E91);
    for _ in 0..BURST_COMMITS {
        for _ in 0..MUTATIONS_PER_COMMIT {
            match rng.gen_range(0u32..10) {
                9 => {
                    let p = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
                    live.add_vertex(p).unwrap();
                }
                _ => {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v {
                        live.add_edge(u, v).unwrap();
                    }
                }
            }
        }
        live.commit().unwrap();
    }
    let burst_target = engine.epoch();
    let start = Instant::now();
    let (converged, max_lag) = wait_applied(&[&r1, &r2], burst_target, CATCH_UP_LIMIT);
    let catch_up_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "catch-up  : {BURST_COMMITS} commits applied in {catch_up_ms:.0}ms \
         (peak lag {max_lag} epochs, converged={converged})"
    );

    let expected = fingerprint(&engine);
    let identical = fingerprint(r1.engine()) == expected && fingerprint(r2.engine()) == expected;
    println!("bit_identical={identical} at epoch {burst_target}");

    let rows = [
        format!(r#"{{"bench":"replication_read_scaling","instances":1,"qps":{qps_one:.0}}}"#),
        format!(
            r#"{{"bench":"replication_read_scaling","instances":3,"qps":{qps_three:.0},"scaling_vs_one":{scaling:.3},"gate_enforced":{gate_enforced},"cores":{cores}}}"#
        ),
        format!(
            r#"{{"bench":"replication_lag","burst_commits":{BURST_COMMITS},"catch_up_ms":{catch_up_ms:.0},"peak_lag_epochs":{max_lag},"converged":{converged},"bit_identical":{identical}}}"#
        ),
    ];
    let json = format!(
        r#"{{"bench":"replication","results":[{}]}}"#,
        rows.join(",")
    );
    std::fs::write("bench_replication.json", format!("{json}\n"))
        .expect("write bench_replication.json");
    println!("wrote bench_replication.json");

    r1.stop();
    r2.stop();
    ship.stop();
    let _ = std::fs::remove_dir_all(&dir);

    // Regression gates (after the JSON is written, so a failing run keeps
    // its numbers).
    assert!(
        converged,
        "replicas failed to apply the commit burst within {CATCH_UP_LIMIT:?} \
         (peak lag {max_lag} epochs)"
    );
    assert!(identical, "replica state diverged from the primary");
    if gate_enforced {
        assert!(
            scaling >= MIN_SCALING,
            "read throughput scaled only {scaling:.2}x with 2 replicas \
             (gate: {MIN_SCALING}x; 1 instance {qps_one:.0} qps, 3 instances {qps_three:.0} qps)"
        );
    } else {
        println!(
            "read-scaling gate SKIPPED: {cores} cores < 3 (measured {scaling:.2}x, gate {MIN_SCALING}x)"
        );
    }
}
