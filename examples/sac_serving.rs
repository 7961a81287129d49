//! End-to-end serving example: stand up a `SacEngine` over a surrogate
//! geo-social graph, fan a mixed workload across worker threads, show what
//! the k-core cache buys on repeated traffic, and drive the same engine
//! through the typed `sac-proto` protocol the `sac-serve`/`sac-http`
//! transports speak.
//!
//! Run with: `cargo run --release --example sac_serving`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sackit::data::{select_query_vertices, DatasetKind, DatasetSpec};
use sackit::engine::LatencyTier;
use sackit::{Algorithm, QueryBudget, SacEngine, SacRequest, SacService, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // 1. Build the immutable snapshot (a Brightkite-like surrogate).
    let graph = DatasetSpec::scaled(DatasetKind::Brightkite, 0.02)
        .with_seed(17)
        .generate();
    println!(
        "snapshot: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let engine = Arc::new(SacEngine::new(graph));
    let snapshot = engine.snapshot();

    // The closed algorithm set the planner chooses from (in metric-series
    // order); `shared decomposition` marks the algorithms whose structural
    // phase reuses the engine's cached core decomposition.
    println!("algorithms:");
    for algorithm in Algorithm::ALL {
        println!(
            "  {:<12} shared decomposition: {}",
            algorithm.name(),
            if algorithm.shares_decomposition() {
                "yes"
            } else {
                "no"
            }
        );
    }

    // 2. Interactive traffic over popular query vertices: low-latency lookups,
    //    radius-constrained (θ-SAC) queries, and the occasional vertex that is
    //    in no k-core at all (answered by the cache's feasibility fast path).
    let mut rng = StdRng::seed_from_u64(99);
    let queries = select_query_vertices(snapshot.graph(), 12, 4, &mut rng);
    let interactive = [
        QueryBudget::interactive(),
        QueryBudget::balanced()
            .with_theta(0.5)
            .with_tier(LatencyTier::Interactive),
    ];
    let requests: Vec<SacRequest> = (0..200)
        .map(|i| {
            let (q, k) = if i % 5 == 0 {
                (queries[i % queries.len()], 40) // hopeless k: infeasible
            } else {
                (queries[i % queries.len()], 4)
            };
            SacRequest::builder(q, k)
                .id(i as u64)
                .budget(interactive[i % 2])
                .build()
                .expect("valid budget")
        })
        .collect();

    // 3. Cold run: the first queries pay for the k-core index builds.
    let cold = Instant::now();
    let responses = engine.execute_batch(&requests, 4);
    let cold = cold.elapsed();

    // 4. Warm run: the same traffic again, now fully cache-resident.
    let warm = Instant::now();
    let responses_warm = engine.execute_batch(&requests, 4);
    let warm = warm.elapsed();
    assert_eq!(responses.len(), responses_warm.len());

    let feasible = responses.iter().filter(|r| r.community().is_some()).count();
    println!(
        "interactive batch of {} queries on 4 threads: cold {:.1?}, warm {:.1?} ({feasible} feasible)",
        requests.len(),
        cold,
        warm
    );

    // 5. One query per budget family, showing what the planner dispatched.
    let showcase = [
        ("exact      ", QueryBudget::exact()),
        ("balanced   ", QueryBudget::balanced()),
        ("interactive", QueryBudget::interactive()),
        ("theta=0.5  ", QueryBudget::balanced().with_theta(0.5)),
    ];
    for (i, (name, budget)) in showcase.into_iter().enumerate() {
        // The validating builder rejects budget nonsense before the engine
        // ever sees it; valid budgets build into plain requests.
        let request = SacRequest::builder(queries[0], 4)
            .id(1000 + i as u64)
            .budget(budget)
            .build()
            .expect("showcase budgets are valid");
        let response = engine.execute(&request);
        let answer = match response.community() {
            Some(c) => format!("{} members, radius {:.4}", c.len(), c.radius()),
            None => "infeasible".to_string(),
        };
        println!(
            "  {name} -> plan {:<24} {answer:<32} {}us (epoch {}, plan {}us + exec {}us)",
            response.plan.to_string(),
            response.micros,
            response.trace.epoch,
            response.trace.plan_micros,
            response.trace.exec_micros,
        );
    }
    assert!(SacRequest::builder(queries[0], 4)
        .ratio(0.2)
        .build()
        .is_err());

    // 6. Engine counters: the cache hit on everything after the first queries.
    let stats = engine.stats();
    println!(
        "served {} queries | decomposition {}h/{}m | k-core components {}h/{}m | fast-path {}",
        stats.queries,
        stats.cache.decomposition.hits,
        stats.cache.decomposition.misses,
        stats.cache.components.hits,
        stats.cache.components.misses,
        stats.infeasible_fast_path
    );
    assert_eq!(
        stats.cache.decomposition.misses, 1,
        "one decomposition per snapshot"
    );

    // 7. The same engine behind the typed wire protocol (what `sac-serve`
    //    and `sac-http` serve): one LDJSON document in, one reply line out.
    let service = SacService::new(Arc::clone(&engine), ServiceConfig::default());
    for line in [
        format!(r#"{{"id":1,"q":{},"k":4,"ratio":1.5}}"#, queries[0]),
        r#"{"cmd":"stats"}"#.to_string(),
    ] {
        let reply = service.handle_line(&line).expect("not a quit command");
        println!("proto> {line}");
        println!("     < {reply}");
    }
}
