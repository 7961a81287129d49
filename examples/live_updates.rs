//! Live-update example: serve queries over a mutating geo-social graph.
//!
//! A `LiveEngine` write front accepts edge churn (users befriending and
//! unfriending each other, newcomers joining with a location), maintains the
//! k-core structure incrementally, and publishes epoch snapshots into the
//! shared `SacEngine` — while query traffic keeps flowing and the k-core index
//! cache carries over every `k` the delta did not touch.
//!
//! Run with: `cargo run --release --example live_updates`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sackit::data::{select_query_vertices, DatasetKind, DatasetSpec};
use sackit::{LiveEngine, Point, SacEngine, SacRequest};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // 1. Epoch 1: a Gowalla-like surrogate snapshot.
    let graph = DatasetSpec::scaled(DatasetKind::Gowalla, 0.01)
        .with_seed(23)
        .generate();
    println!(
        "epoch 1: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let engine = Arc::new(SacEngine::new(graph));
    engine.warm(&[2, 3, 4]);
    let live = LiveEngine::new(Arc::clone(&engine));

    let mut rng = StdRng::seed_from_u64(7);
    let queries = select_query_vertices(engine.snapshot().graph(), 8, 4, &mut rng);
    let requests: Vec<SacRequest> = (0..64)
        .map(|i| {
            SacRequest::builder(queries[i % queries.len()], 4)
                .id(i as u64)
                .build()
                .expect("valid budget")
        })
        .collect();

    // 2. Serve a batch, then mutate and commit, then serve again — five rounds
    //    of churn with the engine hot the whole time.
    for round in 1..=5u32 {
        let served = engine.execute_batch(&requests, 4);
        let feasible = served.iter().filter(|r| r.community().is_some()).count();

        // A newcomer joins next to a popular query vertex: a vertex addition
        // touches no k >= 1 core, so this commit carries the whole (currently
        // resident) index cache into the next epoch.
        let anchor = queries[round as usize % queries.len()];
        let spot = engine.snapshot().position(anchor);
        let newcomer = live
            .add_vertex(Point::new(spot.x + 1e-4, spot.y + 1e-4))
            .expect("finite position");
        let join = live.commit().expect("newcomer commit");

        // Edge churn: random befriend/unfriend among existing users.
        let snapshot = engine.snapshot();
        let n = snapshot.num_vertices() as u32;
        let mut applied = 0usize;
        for _ in 0..32 {
            let u = rng.gen_range(0..n);
            let change = if round % 2 == 0 {
                // Unfriend: drop a real edge of u (if it has any left).
                let neighbors = snapshot.neighbors(u);
                if neighbors.is_empty() {
                    continue;
                }
                let v = neighbors[rng.gen_range(0..neighbors.len())];
                live.remove_edge(u, v).expect("in range")
            } else {
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                live.add_edge(u, v).expect("in range")
            };
            if change.applied {
                applied += 1;
            }
        }
        let commit_clock = Instant::now();
        let churn = live.commit().expect("churn commit");
        let commit_cost = commit_clock.elapsed();

        println!(
            "round {round}: {feasible}/{} feasible | newcomer {newcomer} -> epoch {} \
             (carried {}) | churn of {applied} edges -> epoch {} in {commit_cost:.1?} \
             (cores changed {}, dirty k<={}, carried {} / invalidated {})",
            requests.len(),
            join.epoch,
            join.components_carried,
            churn.epoch,
            churn.cores_changed,
            churn.dirty_up_to,
            churn.components_carried,
            churn.components_invalidated,
        );
    }

    // 3. The cumulative counters tell the carry-over story.
    let stats = engine.stats();
    println!(
        "served {} queries across {} epochs | component indexes carried {} / invalidated {} | \
         component cache {}h/{}m",
        stats.queries,
        stats.epoch,
        stats.components_carried,
        stats.components_invalidated,
        stats.cache.components.hits,
        stats.cache.components.misses,
    );
    assert_eq!(stats.epoch, 11, "ten commits after epoch 1");
    assert!(stats.errors == 0);
}
