//! Machine-readable radius-sweep bench runner.
//!
//! Times the probe loops of one query two ways (from-scratch
//! `feasible_in_circle` vs incremental `begin_sweep`/`probe` over the shared
//! dyadic schedule) with plain `Instant` timers, averages them over every
//! bench query vertex, and writes the results to `BENCH_radius_sweep.json`
//! in the current directory — one JSON document per run, so CI can track the
//! perf trajectory without parsing human-oriented bench output.
//!
//! Run with: `cargo run --release -p sac-bench --example bench_radius_sweep`
//!
//! The run fails (non-zero exit) when the sweep is slower than 2x the
//! from-scratch path at ≥ 100 probes, pinning the perf win this subsystem
//! exists for.

use sac_bench::radius_probe::{probe_case, search_schedule, ProbeCase, PROBE_COUNTS};
use sac_bench::{bench_dataset, bench_kinds};
use sac_core::SearchContext;
use sac_geom::Circle;
use sac_graph::SpatialGraph;
use std::time::Instant;

/// Repetitions per (query, probe-count) measurement.
const REPS: usize = 5;

fn time_from_scratch(g: &SpatialGraph, case: &ProbeCase, schedule: &[f64]) -> f64 {
    let q_pos = g.position(case.q);
    let mut ctx = SearchContext::new(g, case.q, case.k).unwrap();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        for &r in schedule {
            std::hint::black_box(
                ctx.feasible_in_circle(&Circle::new(q_pos, r), Some(&case.universe)),
            );
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn time_sweep(g: &SpatialGraph, case: &ProbeCase, schedule: &[f64]) -> f64 {
    let q_pos = g.position(case.q);
    let mut ctx = SearchContext::new(g, case.q, case.k).unwrap();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        ctx.begin_sweep(q_pos, case.r_max, Some(&case.universe));
        for &r in schedule {
            std::hint::black_box(ctx.probe(r));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut rows = String::new();
    let mut speedup_at_100_plus = f64::INFINITY;
    for kind in bench_kinds() {
        let data = bench_dataset(kind);
        let g = &data.graph;
        let cases: Vec<ProbeCase> = data
            .queries
            .iter()
            .filter_map(|&q| probe_case(g, q, 4))
            .collect();
        assert!(!cases.is_empty(), "bench dataset has no feasible query");
        for probes in PROBE_COUNTS {
            let (mut scratch_total, mut sweep_total) = (0.0f64, 0.0f64);
            for case in &cases {
                let schedule = search_schedule(case.r_max, probes);
                scratch_total += time_from_scratch(g, case, &schedule);
                sweep_total += time_sweep(g, case, &schedule);
            }
            let speedup = scratch_total / sweep_total;
            if probes >= 100 {
                speedup_at_100_plus = speedup_at_100_plus.min(speedup);
            }
            if !rows.is_empty() {
                rows.push(',');
            }
            rows.push_str(&format!(
                r#"{{"dataset":"{}","queries":{},"probes":{},"from_scratch_micros":{:.1},"sweep_micros":{:.1},"speedup":{:.2}}}"#,
                data.name(),
                cases.len(),
                probes,
                scratch_total * 1e6,
                sweep_total * 1e6,
                speedup
            ));
            println!(
                "{:>12} probes={:<5} from_scratch={:>10.1}us sweep={:>10.1}us speedup={:.2}x",
                data.name(),
                probes,
                scratch_total * 1e6,
                sweep_total * 1e6,
                speedup
            );
        }
    }
    let json = format!(r#"{{"bench":"radius_sweep","results":[{rows}]}}"#);
    std::fs::write("BENCH_radius_sweep.json", format!("{json}\n"))
        .expect("write BENCH_radius_sweep.json");
    println!("wrote BENCH_radius_sweep.json");
    assert!(
        speedup_at_100_plus >= 2.0,
        "sweep speedup at >=100 probes fell below 2x: {speedup_at_100_plus:.2}x"
    );
}
