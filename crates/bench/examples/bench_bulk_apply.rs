//! Machine-readable bulk-delta-apply bench runner.
//!
//! Times one heavy-churn delta repaired per edge (incremental subcore
//! cascades) against `apply_batch`'s shared peel, with plain `Instant`
//! timers, and writes the result to `bench_bulk_apply.json` in the current
//! directory.  The run fails below 1.5x: bulk apply exists to beat per-edge
//! repair on heavy deltas.
//!
//! Run with: `cargo run --release -p sac-bench --example bench_bulk_apply`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_bench::bench_dataset_scaled;
use sac_data::{select_query_vertices, DatasetKind};
use sac_graph::{BatchOp, BatchStrategy, DynamicGraph, SpatialGraph, VertexId};
use std::time::Instant;

/// Repetitions per measurement (best-of, to shed scheduler noise).
const REPS: usize = 7;

/// Query vertices drawn from the generator before the delta (see `main`).
const QUERY_COUNT: usize = 24;

const K: u32 = 4;

/// All undirected edges of `graph` as `(u, v)` with `u < v`.
fn edges_of(graph: &SpatialGraph) -> Vec<(VertexId, VertexId)> {
    let mut edges = Vec::with_capacity(graph.num_edges());
    for u in 0..graph.num_vertices() as VertexId {
        for &v in graph.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// A heavy-churn delta: remove a spread of existing edges and insert the
/// same number of fresh ones.
fn heavy_delta(graph: &SpatialGraph, rng: &mut StdRng) -> Vec<BatchOp> {
    let edges = edges_of(graph);
    let n = graph.num_vertices() as VertexId;
    let churn = (edges.len() / 4).max(64);
    let mut ops = Vec::with_capacity(2 * churn);
    for i in 0..churn {
        let (u, v) = edges[(i * 4 + 1) % edges.len()];
        ops.push(BatchOp::Remove(u, v));
    }
    for _ in 0..churn {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            ops.push(BatchOp::Insert(u, v));
        }
    }
    ops
}

/// Best-of-REPS apply time of `ops` under `strategy` (clone outside the
/// timer).
fn time_apply(base: &DynamicGraph, ops: &[BatchOp], strategy: BatchStrategy) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut dynamic = base.clone();
        let start = Instant::now();
        std::hint::black_box(dynamic.apply_batch_with(ops, strategy).unwrap());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let graph = bench_dataset_scaled(DatasetKind::Brightkite, 0.02).graph;
    let mut rng = StdRng::seed_from_u64(0x5AC5);
    // The delta's inserts are drawn after a query-vertex sample from the
    // same generator; drawing the sample keeps the delta the 1.5x gate was
    // set against.
    let queries = select_query_vertices(graph.graph(), QUERY_COUNT, K, &mut rng);
    assert!(!queries.is_empty(), "bench dataset has no feasible query");

    let base = DynamicGraph::from_graph(graph.graph());
    let ops = heavy_delta(&graph, &mut rng);
    let per_edge = time_apply(&base, &ops, BatchStrategy::PerEdge);
    let shared = time_apply(&base, &ops, BatchStrategy::Recompute);
    // The two strategies must land on identical cores (cheap self-check).
    {
        let mut a = base.clone();
        let mut b = base.clone();
        a.apply_batch_with(&ops, BatchStrategy::PerEdge).unwrap();
        b.apply_batch_with(&ops, BatchStrategy::Recompute).unwrap();
        assert_eq!(a.core_numbers(), b.core_numbers(), "strategies diverged");
    }
    let apply_speedup = per_edge / shared;
    let row = format!(
        r#"{{"bench":"bulk_apply","ops":{},"per_edge_micros":{:.1},"batch_micros":{:.1},"speedup":{:.2}}}"#,
        ops.len(),
        per_edge * 1e6,
        shared * 1e6,
        apply_speedup,
    );
    println!(
        "bulk_apply ops={} per_edge={:.1}us batch={:.1}us speedup={apply_speedup:.2}x",
        ops.len(),
        per_edge * 1e6,
        shared * 1e6,
    );

    let json = format!(r#"{{"bench":"bulk_apply","results":[{row}]}}"#);
    std::fs::write("bench_bulk_apply.json", format!("{json}\n"))
        .expect("write bench_bulk_apply.json");
    println!("wrote bench_bulk_apply.json");

    // Regression gate (after the JSON is written, so a failing run keeps
    // its numbers).
    assert!(
        apply_speedup >= 1.5,
        "bulk delta apply fell below 1.5x over per-edge repair: {apply_speedup:.2}x"
    );
}
