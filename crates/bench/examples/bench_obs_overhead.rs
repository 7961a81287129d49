//! Machine-readable observability-overhead bench runner.
//!
//! The `sac-obs` pitch is "always-on": per-query histograms, stage spans and
//! fallback counters stay enabled in production because recording is a
//! handful of relaxed atomic adds.  This runner keeps that claim honest by
//! timing the same sequential query workloads on two otherwise-identical
//! engines — one with `EngineConfig::observe` on (plus a slow-log threshold
//! low enough that the heavy workload also pays the ring-buffer push) and
//! one with it off — under two gates:
//!
//! * **`balanced` ratio-budget queries** (milliseconds each — the paper's
//!   representative dispatch shape): instrumented wall time must stay within
//!   **1.05x** of uninstrumented.
//! * **small-θ local queries** (a few *microseconds* each): a 5% ratio of an
//!   almost-empty denominator would gate scheduler noise, not code, so the
//!   floor is pinned **absolutely** — the per-query overhead must stay under
//!   [`MAX_FLOOR_NANOS`], which a lock or an allocation on the record path
//!   would blow instantly (the whole path is ~16 relaxed atomic RMWs).
//!
//! Each workload is timed as [`REPS`] interleaved pairs (one instrumented
//! pass, then one bare pass), and each gate reads the **median over the
//! pairs** of a per-pair figure, so one pass a neighbour on a shared machine
//! slowed cannot fail it alone.
//!
//! Run with: `cargo run --release -p sac-bench --example bench_obs_overhead`
//!
//! Results land in `bench_obs.json` in the current directory (written
//! *before* the gates are asserted, so a regression run keeps its numbers).
//! One `dispatch` row per workload:
//!
//! * `queries`: requests in one pass; `pairs`: interleaved pass pairs timed;
//! * `observed_micros` / `baseline_micros`: median pass time of the
//!   instrumented / bare engine;
//! * `overhead`: median of the per-pair ratios instrumented / bare (the
//!   `balanced` gate);
//! * `per_query_overhead_nanos`: median of the per-pair differences
//!   instrumented − bare, divided by `queries` (the `theta` gate).
//!
//! One `record_cost` row gives `ns_per_record`, the best-of-[`REPS`] cost of
//! a single `Histogram::record` call — the unit price everything above is
//! built from.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sac_bench::bench_dataset_scaled;
use sac_data::{select_query_vertices, DatasetKind};
use sac_engine::{EngineConfig, QueryBudget, SacEngine, SacRequest};
use sac_geom::Point;
use sac_graph::{SpatialGraph, VertexId};
use sac_obs::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// Interleaved sample pairs per workload (the gates read their median), and
/// repetitions of the best-of `record_cost` loop.
const REPS: usize = 12;

/// Target wall time per timing sample; the inner round count is calibrated
/// so each sample runs the workload long enough to time a ≤5% delta
/// reliably (tiny θ queries finish in microseconds).
const SAMPLE_SECS: f64 = 0.03;

/// Query vertices sampled per run.
const QUERY_COUNT: usize = 24;

/// `Histogram::record` calls in the unit-cost microbench.
const RECORD_CALLS: u64 = 4_000_000;

const K: u32 = 4;

/// Overhead gate on the ms-scale dispatch workload: instrumented sequential
/// dispatch vs uninstrumented.
const MAX_OVERHEAD: f64 = 1.05;

/// Overhead gate on the µs-scale workload: absolute per-query instrumentation
/// cost in nanoseconds.
const MAX_FLOOR_NANOS: f64 = 400.0;

fn requests(queries: &[VertexId], budget: QueryBudget) -> Vec<SacRequest> {
    queries
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            SacRequest::builder(q, K)
                .id(i as u64)
                .budget(budget)
                .build()
                .expect("valid budget")
        })
        .collect()
}

/// Diagonal of the data bounding box (the scale θ-radii are expressed in).
fn data_diagonal(graph: &SpatialGraph) -> f64 {
    let positions = graph.positions();
    let first = *positions.first().expect("non-empty graph");
    let (min, max) = positions.iter().fold((first, first), |(lo, hi), p| {
        (
            Point::new(lo.x.min(p.x), lo.y.min(p.y)),
            Point::new(hi.x.max(p.x), hi.y.max(p.y)),
        )
    });
    min.distance(max)
}

/// Wall time of `rounds` passes over the sequential workload on `engine`,
/// averaged per pass.
fn one_sample(engine: &SacEngine, requests: &[SacRequest], rounds: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..rounds {
        for request in requests {
            std::hint::black_box(engine.execute(request));
        }
    }
    start.elapsed().as_secs_f64() / rounds as f64
}

/// REPS pass-time pairs for both engines, sampled **interleaved** — one
/// `a` sample, then one `b` sample — so clock-frequency and cache drift
/// land on both sides instead of biasing whichever engine was measured
/// second.
fn time_pairs(a: &SacEngine, b: &SacEngine, requests: &[SacRequest]) -> Vec<(f64, f64)> {
    // Calibrate the per-sample round count off an untimed warm-up pass
    // (which also touches both engines' caches).
    let pass = one_sample(a, requests, 1).max(one_sample(b, requests, 1));
    let rounds = ((SAMPLE_SECS / pass).ceil() as usize).clamp(1, 1024);
    (0..REPS)
        .map(|_| {
            let a = one_sample(a, requests, rounds);
            (a, one_sample(b, requests, rounds))
        })
        .collect()
}

/// Median of `values` (mean of the middle two for an even count).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn main() {
    let data = bench_dataset_scaled(DatasetKind::Brightkite, 0.02);
    let graph = Arc::new(data.graph);
    let mut rng = StdRng::seed_from_u64(0x5AC0B5);
    let queries = select_query_vertices(graph.graph(), QUERY_COUNT, K, &mut rng);
    assert!(!queries.is_empty(), "bench dataset has no feasible query");
    let theta = 0.02 * data_diagonal(&graph);
    let workloads = [
        ("balanced", requests(&queries, QueryBudget::balanced())),
        (
            "theta",
            requests(&queries, QueryBudget::balanced().with_theta(theta)),
        ),
    ];

    // The instrumented engine runs the worst case: observation on *and* a
    // slow-log threshold the ms-scale balanced queries all cross, so the
    // gated workload also pays the ring-buffer push per query.
    let instrumented = SacEngine::with_config(
        Arc::clone(&graph),
        EngineConfig {
            slow_query_micros: 1_000,
            ..EngineConfig::default()
        },
    );
    let bare = SacEngine::with_config(
        Arc::clone(&graph),
        EngineConfig {
            observe: false,
            ..EngineConfig::default()
        },
    );
    instrumented.warm(&[K]);
    bare.warm(&[K]);

    let mut rows = String::new();
    let mut push_row = |row: String| {
        if !rows.is_empty() {
            rows.push(',');
        }
        rows.push_str(&row);
    };

    let mut dispatch_overhead = 0.0f64;
    let mut floor_nanos = 0.0f64;
    for (name, workload) in &workloads {
        let pairs = time_pairs(&instrumented, &bare, workload);
        let observed = median(pairs.iter().map(|&(o, _)| o));
        let baseline = median(pairs.iter().map(|&(_, b)| b));
        let overhead = median(pairs.iter().map(|&(o, b)| o / b));
        let per_query_nanos = median(
            pairs
                .iter()
                .map(|&(o, b)| (o - b) * 1e9 / workload.len() as f64),
        );
        if *name == "balanced" {
            dispatch_overhead = overhead;
        } else {
            floor_nanos = per_query_nanos;
        }
        push_row(format!(
            r#"{{"bench":"dispatch","workload":"{name}","queries":{},"pairs":{REPS},"observed_micros":{:.1},"baseline_micros":{:.1},"overhead":{:.4},"per_query_overhead_nanos":{:.0}}}"#,
            workload.len(),
            observed * 1e6,
            baseline * 1e6,
            overhead,
            per_query_nanos,
        ));
        println!(
            "{name:<9} observed={:>9.1}us baseline={:>9.1}us overhead={overhead:.4}x ({per_query_nanos:.0}ns/query)",
            observed * 1e6,
            baseline * 1e6,
        );
    }
    // The instrumented engine must actually have been recording, else the
    // gate compares two bare engines and passes vacuously.
    let recorded: u64 = instrumented
        .stats()
        .tier_latency
        .iter()
        .map(|t| t.summary.count)
        .sum();
    assert!(recorded > 0, "instrumented engine recorded no samples");

    // Unit price: one `Histogram::record` call in a tight loop.
    let hist = Histogram::new();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        for i in 0..RECORD_CALLS {
            hist.record(std::hint::black_box(i & 0xFFFF));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    let ns_per_record = best * 1e9 / RECORD_CALLS as f64;
    assert_eq!(hist.snapshot().count(), RECORD_CALLS * REPS as u64);
    push_row(format!(
        r#"{{"bench":"record_cost","calls":{RECORD_CALLS},"ns_per_record":{ns_per_record:.2}}}"#
    ));
    println!("record_cost {ns_per_record:.2}ns/record over {RECORD_CALLS} calls");

    let json = format!(r#"{{"bench":"obs_overhead","results":[{rows}]}}"#);
    std::fs::write("bench_obs.json", format!("{json}\n")).expect("write bench_obs.json");
    println!("wrote bench_obs.json");

    // Regression gates (after the JSON is written, so a failing run keeps
    // its numbers).
    assert!(
        dispatch_overhead <= MAX_OVERHEAD,
        "instrumented dispatch exceeded {MAX_OVERHEAD}x the uninstrumented \
         engine: {dispatch_overhead:.4}x"
    );
    assert!(
        floor_nanos <= MAX_FLOOR_NANOS,
        "per-query instrumentation floor exceeded {MAX_FLOOR_NANOS}ns on the \
         µs-scale workload: {floor_nanos:.0}ns"
    );
}
