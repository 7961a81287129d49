//! WAL bench: what durability costs on the commit path, and how fast
//! recovery replays the log.
//!
//! The same seeded mutation/commit stream runs four ways — no WAL at all,
//! then WAL with each sync policy (`never`, `every 8 commits`, `always`) —
//! and the mean commit latency is compared.  The log written by the `never`
//! run (no clean-shutdown marker: a simulated crash) is then recovered and
//! timed, and the recovered engine is checked **bit-identical** to the
//! still-running original: epoch, core numbers, position bits and a sample
//! of query answers.
//!
//! Run with: `cargo run --release -p sac-bench --example bench_wal`
//!
//! Results land in `bench_wal.json` in the current directory (written
//! *before* the gates are asserted, so a regression run keeps its numbers).
//! Two gates:
//!
//! * **commit overhead** — the batched-fsync policy (`every 8`) must stay
//!   within [`MAX_EVERY_N_OVERHEAD`]× of the no-WAL commit latency (the
//!   paper-facing claim: durability is not allowed to dominate the epoch
//!   pipeline; `always` is reported but not gated — it is bounded by device
//!   fsync latency, not by code);
//! * **recovery bit-identity** — the recovered state must match the live
//!   engine exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_bench::{bench_dataset_scaled, fingerprint, temp_dir};
use sac_data::DatasetKind;
use sac_engine::{EngineConfig, SacEngine};
use sac_geom::Point;
use sac_live::{Durability, LiveEngine, SyncPolicy};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Commits per configuration (each carries [`MUTATIONS_PER_COMMIT`] ops).
const COMMITS: usize = 120;
const MUTATIONS_PER_COMMIT: usize = 4;

/// Gate: mean commit latency with batched fsyncs (`every 8`) relative to
/// the no-WAL baseline.
const MAX_EVERY_N_OVERHEAD: f64 = 1.25;

/// Replays the identical seeded stream of edge/vertex/move mutations,
/// committing every [`MUTATIONS_PER_COMMIT`] ops; returns the mean commit
/// latency in microseconds.
fn run_stream(live: &LiveEngine, n: u32) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x5AC_3A1);
    let mut total_micros = 0u128;
    for _ in 0..COMMITS {
        for _ in 0..MUTATIONS_PER_COMMIT {
            match rng.gen_range(0u32..10) {
                8 => {
                    let v = rng.gen_range(0..n);
                    let p = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
                    live.move_vertex(v, p).unwrap();
                }
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
        let start = Instant::now();
        live.commit().unwrap();
        total_micros += start.elapsed().as_micros();
    }
    total_micros as f64 / COMMITS as f64
}

fn durability(dir: &Path, sync: SyncPolicy) -> Durability {
    Durability {
        dir: dir.to_path_buf(),
        sync,
        checkpoint_every: 0, // keep every record so recovery replays them all
    }
}

fn main() {
    // Large enough that a commit's snapshot rebuild is a realistic epoch
    // cost (the quantity the overhead gate is relative to) rather than
    // being dwarfed by a single device fsync.
    let data = bench_dataset_scaled(DatasetKind::Brightkite, 0.2);
    let graph = Arc::new(data.graph);
    let n = graph.num_vertices() as u32;
    println!(
        "dataset: {} vertices, {} edges; {COMMITS} commits x {MUTATIONS_PER_COMMIT} mutations",
        graph.num_vertices(),
        graph.num_edges()
    );

    let engine_for = || Arc::new(SacEngine::from_snapshot(Arc::clone(&graph)));

    // Baseline: the same stream with no WAL attached.
    let baseline = LiveEngine::new(engine_for());
    let no_wal_micros = run_stream(&baseline, n);
    println!("no-wal   mean commit = {no_wal_micros:>8.1}us");

    let mut rows = vec![format!(
        r#"{{"bench":"wal_commit","policy":"none","mean_commit_micros":{no_wal_micros:.1}}}"#
    )];
    let mut overhead_every_n = 0.0;
    let mut never_dir = None;
    let mut never_engine = None;
    for (label, sync) in [
        ("never", SyncPolicy::Never),
        ("every_8", SyncPolicy::EveryN(8)),
        ("always", SyncPolicy::Always),
    ] {
        let dir = temp_dir("wal", label);
        let engine = engine_for();
        let live =
            LiveEngine::with_durability(Arc::clone(&engine), durability(&dir, sync)).unwrap();
        let micros = run_stream(&live, n);
        let overhead = micros / no_wal_micros;
        let stats = live.wal_stats().expect("durability enabled");
        println!(
            "{label:<8} mean commit = {micros:>8.1}us ({overhead:.3}x), \
             {} records / {} log bytes",
            stats.appended_records, stats.log_bytes
        );
        rows.push(format!(
            r#"{{"bench":"wal_commit","policy":"{label}","mean_commit_micros":{micros:.1},"overhead_vs_none":{overhead:.4},"appended_records":{},"log_bytes":{}}}"#,
            stats.appended_records, stats.log_bytes
        ));
        if label == "every_8" {
            overhead_every_n = overhead;
        }
        if label == "never" {
            // Keep this run's state: its directory (no clean marker — a
            // simulated crash) feeds the recovery measurement below.
            never_dir = Some(dir);
            never_engine = Some(engine);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // Recovery: replay the `never` run's full log and check bit-identity.
    let dir = never_dir.expect("never run kept its directory");
    let expected = fingerprint(&never_engine.expect("never run kept its engine"));
    let start = Instant::now();
    let (recovered, report) =
        LiveEngine::recover(durability(&dir, SyncPolicy::Never), EngineConfig::default()).unwrap();
    let recovery_secs = start.elapsed().as_secs_f64();
    let records_per_sec = report.records_replayed as f64 / recovery_secs.max(1e-9);
    let got = fingerprint(recovered.engine());
    let identical = got == expected;
    println!(
        "recovery: {} records / {} mutations in {:.1}ms ({records_per_sec:.0} records/s), \
         bit_identical={identical}",
        report.records_replayed,
        report.mutations_replayed,
        recovery_secs * 1e3
    );
    rows.push(format!(
        r#"{{"bench":"wal_recovery","records_replayed":{},"mutations_replayed":{},"recovery_micros":{:.0},"records_per_sec":{records_per_sec:.0},"bit_identical":{identical}}}"#,
        report.records_replayed,
        report.mutations_replayed,
        recovery_secs * 1e6
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(r#"{{"bench":"wal","results":[{}]}}"#, rows.join(","));
    std::fs::write("bench_wal.json", format!("{json}\n")).expect("write bench_wal.json");
    println!("wrote bench_wal.json");

    // Regression gates (after the JSON is written, so a failing run keeps
    // its numbers).
    assert!(
        identical,
        "recovered state diverged from the live engine (epoch/cores/positions/answers)"
    );
    assert!(
        overhead_every_n <= MAX_EVERY_N_OVERHEAD,
        "batched-fsync WAL commit overhead {overhead_every_n:.3}x exceeds \
         {MAX_EVERY_N_OVERHEAD}x the no-WAL baseline"
    );
}
