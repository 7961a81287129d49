//! Integration tests of the live-update subsystem end-to-end: committed
//! deltas change engine answers exactly as a rebuilt engine would, old
//! snapshots stay serviceable across concurrent epoch swaps, and the
//! selective cache carry-over is observable in the engine counters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sackit::data::{select_query_vertices, DatasetKind, DatasetSpec};
use sackit::graph::{core_decomposition, is_connected_subset, min_degree_in_subset};
use sackit::{LiveEngine, Point, QueryBudget, SacEngine, SacRequest, SpatialGraph};
use std::sync::Arc;

fn surrogate() -> SpatialGraph {
    DatasetSpec::scaled(DatasetKind::Brightkite, 0.01)
        .with_seed(20_26)
        .generate()
}

/// Rounds of random churn + commit: after every commit the engine must answer
/// exactly like a cold engine built from the committed snapshot.
#[test]
fn committed_epochs_answer_like_cold_engines() {
    let engine = Arc::new(SacEngine::new(surrogate()));
    engine.warm(&[2, 4]);
    let live = LiveEngine::new(Arc::clone(&engine));
    let mut rng = StdRng::seed_from_u64(0x11FE);

    for round in 0..4u64 {
        let snapshot = engine.snapshot();
        let n = snapshot.num_vertices() as u32;
        // Churn: 20 toggles plus one located newcomer per round.
        for _ in 0..20 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            if !live.add_edge(u, v).unwrap().applied {
                live.remove_edge(u, v).unwrap();
            }
        }
        let newcomer = live
            .add_vertex(Point::new(0.1 * round as f64, 0.2))
            .unwrap();
        live.add_edge(newcomer, rng.gen_range(0..n)).unwrap();
        let report = live.commit().unwrap();
        assert_eq!(report.epoch, round + 2);

        // Published decomposition is exact.
        let committed = engine.snapshot();
        let fresh = core_decomposition(committed.graph());
        assert_eq!(engine.decomposition().core_numbers(), fresh.core_numbers());

        // Engine answers equal a cold engine over the same snapshot, across
        // budget families (hence across every cache-backed planner arm).
        let cold = SacEngine::new((*committed).clone());
        let queries = select_query_vertices(committed.graph(), 6, 3, &mut rng);
        let budgets = [
            QueryBudget::exact(),
            QueryBudget::balanced(),
            QueryBudget::interactive(),
        ];
        for (i, &q) in queries.iter().enumerate() {
            for k in [2u32, 3] {
                let request = SacRequest::builder(q, k)
                    .id(i as u64)
                    .budget(budgets[i % 3])
                    .build()
                    .unwrap();
                let warm_answer = engine.execute(&request);
                let cold_answer = cold.execute(&request);
                assert_eq!(
                    warm_answer.plan, cold_answer.plan,
                    "round {round} q={q} k={k}"
                );
                match (warm_answer.community(), cold_answer.community()) {
                    (Some(a), Some(b)) => assert_eq!(a.members(), b.members()),
                    (None, None) => {}
                    _ => panic!("feasibility mismatch at round {round} q={q} k={k}"),
                }
            }
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.epoch, 5);
    assert_eq!(stats.epochs_published, 4);
    assert_eq!(stats.errors, 0);
}

/// Queries racing a swap must complete on a coherent snapshot: reader threads
/// hammer the engine while the main thread publishes epochs; every response
/// must be valid, and responses that provably ran inside one epoch must be
/// bit-identical to direct calls on that epoch's snapshot.
#[test]
fn old_snapshot_queries_complete_correctly_across_concurrent_swaps() {
    let engine = Arc::new(SacEngine::new(surrogate()));
    engine.warm(&[2]);
    let live = LiveEngine::new(Arc::clone(&engine));
    let mut rng = StdRng::seed_from_u64(0xACE);
    let queries = select_query_vertices(engine.snapshot().graph(), 8, 2, &mut rng);

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for t in 0..3usize {
            let engine = Arc::clone(&engine);
            let queries = queries.clone();
            readers.push(scope.spawn(move || {
                let mut verified_in_epoch = 0usize;
                let mut completed = 0usize;
                for i in 0..400usize {
                    let q = queries[(i + t) % queries.len()];
                    let request = SacRequest::builder(q, 2).id(i as u64).build().unwrap();
                    // Pin the epoch, then the snapshot, then query: if the
                    // epoch number is unchanged after the query, no publish
                    // landed anywhere in the window, so the snapshot and the
                    // response belong to the same epoch.
                    let epoch_before = engine.epoch();
                    let snapshot = engine.snapshot();
                    let response = engine.execute(&request);
                    let epoch_after = engine.epoch();
                    let outcome = response.outcome.as_ref().expect("no errors under swaps");
                    completed += 1;
                    if let Some(community) = outcome {
                        assert!(community.contains(q));
                        if epoch_before == epoch_after {
                            assert!(is_connected_subset(snapshot.graph(), community.members()));
                            assert!(
                                min_degree_in_subset(snapshot.graph(), community.members())
                                    .unwrap()
                                    >= 2
                            );
                            verified_in_epoch += 1;
                        }
                    }
                }
                (completed, verified_in_epoch)
            }));
        }

        // Publisher: keep toggling edges and swapping epochs under the
        // readers.  Toggles re-commit the same pairs, so the graph keeps
        // oscillating between nearby states.
        let n = engine.snapshot().num_vertices() as u32;
        for _ in 0..40 {
            for _ in 0..4 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                if !live.add_edge(u, v).unwrap().applied {
                    live.remove_edge(u, v).unwrap();
                }
            }
            live.commit().unwrap();
        }

        for reader in readers {
            let (completed, verified) = reader.join().expect("reader panicked");
            assert_eq!(completed, 400, "every query must complete despite swaps");
            assert!(
                verified > 0,
                "at least some queries must be verifiable within one epoch"
            );
        }
    });

    let stats = engine.stats();
    assert_eq!(stats.errors, 0);
    assert!(stats.epochs_published >= 40);
    assert_eq!(stats.queries, 3 * 400);
}

/// The carry-over is observable: a delta that only touches low k keeps the
/// high-k index resident, and the counters say so.
#[test]
fn cache_carry_over_is_observable_in_stats() {
    let engine = Arc::new(SacEngine::new(surrogate()));
    let live = LiveEngine::new(Arc::clone(&engine));
    engine.warm(&[2, 3, 4]);

    // A brand-new pendant vertex: its single edge has min core 1, so only
    // k <= 1 indexes are dirtied — all three warmed indexes must carry.
    let v = live.add_vertex(Point::new(0.5, 0.5)).unwrap();
    live.add_edge(v, 0).unwrap();
    let report = live.commit().unwrap();
    assert_eq!(report.dirty_up_to, 1);
    assert_eq!(report.components_carried, 3);

    let misses_before = engine.stats().cache.components.misses;
    for k in [2u32, 3, 4] {
        // Served from the carried indexes: hits, no rebuild.
        let _ = engine.core_components(k);
    }
    let stats = engine.stats();
    assert_eq!(stats.cache.components.misses, misses_before);
    assert_eq!(stats.components_carried, 3);
    assert_eq!(stats.epoch, 2);
}

/// Locality pin: an edge insert repairs the core numbers by visiting the
/// few vertices whose k-order position can change, not the whole core
/// level of the flat Brightkite surrogate (~1,000 vertices at this scale).
/// The summed `visited` of a seeded stream of 2,000 inserts is pinned, and
/// `/metrics` exports the same sum.
#[test]
fn edge_inserts_visit_a_local_neighbourhood() {
    const PINNED_VISITED: u64 = 27_096;
    let graph = DatasetSpec::scaled(DatasetKind::Brightkite, 0.02).generate();
    let n = graph.num_vertices() as u32;
    let engine = Arc::new(SacEngine::new(graph));
    let live = LiveEngine::new(Arc::clone(&engine));
    let mut rng = StdRng::seed_from_u64(0x10CA1);
    let (mut inserts, mut visited) = (0, 0u64);
    while inserts < 2_000 {
        let change = live
            .add_edge(rng.gen_range(0..n), rng.gen_range(0..n))
            .unwrap();
        if change.applied {
            inserts += 1;
            visited += change.visited;
        }
    }
    assert_eq!(visited, PINNED_VISITED);
    let needle = format!("sac_live_core_repair_visited_total {visited}\n");
    assert!(engine.metrics_text().contains(&needle), "missing {needle}");

    live.commit().unwrap();
    let fresh = core_decomposition(engine.snapshot().graph());
    assert_eq!(engine.decomposition().core_numbers(), fresh.core_numbers());
}
