//! Integration tests of the `sac-engine` serving subsystem: concurrency smoke
//! (many threads × many queries over one shared engine) and planner-dispatch
//! equivalence (engine answers must be identical to direct `sac_core` calls).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sackit::core::{app_acc, app_fast, app_inc, exact_plus, theta_sac};
use sackit::data::{select_query_vertices, DatasetKind, DatasetSpec};
use sackit::engine::{EngineConfig, LatencyTier, Plan, SacEngine};
use sackit::fixtures::{figure3, figure3_graph};
use sackit::graph::{
    core_decomposition, is_connected_subset, min_degree_in_subset, KCoreComponents, SweepStats,
};
use sackit::{Algorithm, Community, QueryBudget, SacRequest, SearchContext, SpatialGraph};
use std::sync::Arc;

fn surrogate() -> SpatialGraph {
    DatasetSpec::scaled(DatasetKind::Brightkite, 0.01)
        .with_seed(7_2024)
        .generate()
}

/// A mixed workload: every budget family (exact / acc / inc / fast / theta),
/// feasible and infeasible vertices, several k.
fn mixed_requests(graph: &SpatialGraph, count: usize) -> Vec<SacRequest> {
    let mut rng = StdRng::seed_from_u64(0xE47);
    let queries = select_query_vertices(graph.graph(), 8, 4, &mut rng);
    assert!(!queries.is_empty(), "surrogate must have core-4 vertices");
    let budgets = [
        QueryBudget::exact(),
        QueryBudget::balanced(),
        QueryBudget::within_ratio(2.0),
        QueryBudget::within_ratio(2.5).with_tier(LatencyTier::Interactive),
        QueryBudget::balanced().with_theta(0.2),
    ];
    (0..count)
        .map(|i| {
            // Mix in random (often infeasible at k=5) vertices.
            let q = if i % 3 == 0 {
                rng.gen_range(0..graph.num_vertices() as u32)
            } else {
                queries[i % queries.len()]
            };
            let k = [2u32, 4, 5][i % 3];
            SacRequest::builder(q, k)
                .id(i as u64)
                .budget(budgets[i % budgets.len()])
                .build()
                .unwrap()
        })
        .collect()
}

/// The direct `sac_core` free-function call corresponding to a dispatched
/// plan (the planner's tuned parameters are read back out of the plan).
fn direct_call(graph: &SpatialGraph, request: &SacRequest, plan: Plan) -> Option<Community> {
    let planned = match plan {
        Plan::Infeasible => return None,
        Plan::Rejected => panic!("mixed workload must not produce rejected plans"),
        Plan::Execute(planned) => planned,
    };
    let (q, k) = (request.q, request.k);
    match planned.algorithm {
        "exact_plus" => exact_plus(graph, q, k, planned.query.eps_a()).unwrap(),
        "app_acc" => app_acc(graph, q, k, planned.query.eps_a()).unwrap(),
        "app_fast" => app_fast(graph, q, k, planned.query.eps_f())
            .unwrap()
            .map(|o| o.community),
        "app_inc" => app_inc(graph, q, k).unwrap().map(|o| o.community),
        "theta_sac" => theta_sac(
            graph,
            q,
            k,
            planned.query.theta().expect("theta plans carry theta"),
        )
        .unwrap(),
        other => panic!("unexpected algorithm '{other}' in mixed workload"),
    }
}

/// ≥ 100 mixed-algorithm queries fanned across multiple threads: every
/// response must be identical to the direct `sac_core` call for its plan, and
/// every community structurally valid.
#[test]
fn concurrent_mixed_workload_matches_direct_calls() {
    let graph = surrogate();
    // Disable the small-core exact upgrade so the workload genuinely exercises
    // every algorithm family, not just Exact+.
    let config = EngineConfig {
        small_exact_threshold: 0,
        ..EngineConfig::default()
    };
    let engine = SacEngine::with_config(Arc::new(graph), config);
    let snapshot = engine.snapshot();

    let requests = mixed_requests(&snapshot, 120);
    let responses = engine.execute_batch(&requests, 8);
    assert_eq!(responses.len(), requests.len());

    let mut plans_seen = std::collections::BTreeSet::new();
    let mut feasible = 0usize;
    for (request, response) in requests.iter().zip(&responses) {
        assert_eq!(response.id, request.id);
        let members = response
            .outcome
            .as_ref()
            .expect("no errors in this workload");
        plans_seen.insert(response.plan.algorithm().unwrap_or("infeasible"));
        let direct = direct_call(&snapshot, request, response.plan);
        match (members, &direct) {
            (Some(got), Some(want)) => {
                assert_eq!(
                    got.members(),
                    want.members(),
                    "engine/direct mismatch for q={} k={} plan={}",
                    request.q,
                    request.k,
                    response.plan
                );
                assert!(got.contains(request.q));
                assert!(is_connected_subset(snapshot.graph(), got.members()));
                assert!(
                    min_degree_in_subset(snapshot.graph(), got.members()).unwrap()
                        >= request.k as usize
                );
                feasible += 1;
            }
            (None, None) => {}
            _ => panic!(
                "feasibility mismatch for q={} k={} plan={}",
                request.q, request.k, response.plan
            ),
        }
    }
    assert!(
        feasible >= 20,
        "workload too degenerate: only {feasible} feasible"
    );
    assert!(
        plans_seen.len() >= 4,
        "workload must exercise several algorithm families, saw {}",
        plans_seen.len()
    );
    let stats = engine.stats();
    assert_eq!(stats.queries as usize, requests.len());
    assert_eq!(stats.errors, 0);
    assert!(
        stats.cache.decomposition.hits > 0,
        "repeated queries must hit the cache"
    );
}

/// N threads × M queries, each thread issuing single queries against the
/// shared engine (no batch API): exercises the cache under racy first access.
#[test]
fn engine_is_safe_under_many_threads() {
    let engine = Arc::new(SacEngine::new(surrogate()));
    let snapshot = engine.snapshot();
    let requests = Arc::new(mixed_requests(&snapshot, 64));
    let mut handles = Vec::new();
    for t in 0..6 {
        let engine = Arc::clone(&engine);
        let requests = Arc::clone(&requests);
        handles.push(std::thread::spawn(move || {
            let mut checksum = 0u64;
            for request in requests.iter().skip(t % 2) {
                let response = engine.execute(request);
                if let Ok(Some(c)) = &response.outcome {
                    checksum = checksum.wrapping_add(c.len() as u64);
                }
            }
            checksum
        }));
    }
    let checksums: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Same skip-parity threads must agree bit-for-bit.
    assert_eq!(checksums[0], checksums[2]);
    assert_eq!(checksums[1], checksums[3]);
    let stats = engine.stats();
    assert_eq!(stats.queries, 6 * 64 - 3);
    assert_eq!(
        stats.cache.decomposition.misses, 1,
        "decomposition computed once"
    );
}

/// Planner dispatch on the paper's Figure 3 fixture: every budget family gives
/// exactly the community the corresponding direct call gives.
#[test]
fn figure3_engine_answers_match_direct_calls() {
    let graph = figure3_graph();
    let config = EngineConfig {
        small_exact_threshold: 0,
        ..EngineConfig::default()
    };
    let engine = SacEngine::with_config(Arc::new(graph), config);
    let snapshot = engine.snapshot();
    let budgets = [
        QueryBudget::exact(),
        QueryBudget::balanced(),
        QueryBudget::within_ratio(2.0),
        QueryBudget::interactive(),
        QueryBudget::balanced().with_theta(5.0),
    ];
    let mut id = 0u64;
    for q in [figure3::Q, figure3::A, figure3::C, figure3::F, figure3::I] {
        for k in [2u32, 3] {
            for budget in budgets {
                id += 1;
                let request = SacRequest::builder(q, k)
                    .id(id)
                    .budget(budget)
                    .build()
                    .unwrap();
                let response = engine.execute(&request);
                let direct = direct_call(&snapshot, &request, response.plan);
                let got = response.outcome.as_ref().unwrap();
                match (got, &direct) {
                    (Some(a), Some(b)) => assert_eq!(
                        a.members(),
                        b.members(),
                        "q={q} k={k} plan={}",
                        response.plan
                    ),
                    (None, None) => {}
                    _ => panic!("feasibility mismatch q={q} k={k} plan={}", response.plan),
                }
            }
        }
    }
    // The cache proves infeasibility without running algorithms: I at k=2.
    let response = engine.execute(
        &SacRequest::builder(figure3::I, 2)
            .id(id + 1)
            .build()
            .unwrap(),
    );
    assert_eq!(response.plan, Plan::Infeasible);
    assert!(engine.stats().infeasible_fast_path > 0);
}

/// 64-bit FNV-1a: a fixed byte-level hash, so a pinned digest means the same
/// on every toolchain and platform (unlike `std`'s `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The Brightkite 0.02 surrogate and the 72 seeded requests on it: 16 query
/// vertices (12 drawn from the 4-core, 4 uniform) at k = 3 and 4 under the
/// default and interactive budgets, and the first 4 of them under the
/// ratio-1 (`exact_plus`) budget.
fn pinned_workload() -> (SpatialGraph, Vec<SacRequest>) {
    let graph = DatasetSpec::scaled(DatasetKind::Brightkite, 0.02).generate();
    let mut rng = StdRng::seed_from_u64(0x5AC_D16E);
    let mut queries = select_query_vertices(graph.graph(), 12, 4, &mut rng);
    queries.extend((0..4).map(|_| rng.gen_range(0..graph.num_vertices() as u32)));
    let budgets = [
        (QueryBudget::default(), 16),
        (QueryBudget::interactive(), 16),
        (QueryBudget::exact(), 4),
    ];
    let mut requests = Vec::new();
    for (budget, count) in budgets {
        for (&q, k) in queries[..count].iter().flat_map(|q| [(q, 3u32), (q, 4)]) {
            let id = requests.len() as u64 + 1;
            let request = SacRequest::builder(q, k).id(id).budget(budget).build();
            requests.push(request.unwrap());
        }
    }
    (graph, requests)
}

/// The pinned workload answers bit-identically to the pinned digest of plan
/// label, members, radius bits, probe count and candidate count.  Search
/// refactors must leave it unchanged; a change to the dataset generator
/// moves every answer and re-pins the constant.
#[test]
fn seeded_engine_answers_match_the_pinned_digest() {
    let (graph, requests) = pinned_workload();
    let engine = SacEngine::new(graph);
    let mut bytes = Vec::new();
    for request in &requests {
        let response = engine.execute(request);
        let community = response.outcome.expect("valid request");
        let members = community.as_ref().map_or(&[][..], |c| c.members());
        let radius = community.as_ref().map_or(f64::NAN, |c| c.radius());
        let trace = [response.trace.probe_count, response.trace.candidate_count];
        bytes.extend(response.plan.label().bytes());
        for x in [members.len() as u64, radius.to_bits()]
            .into_iter()
            .chain(trace)
            .chain(members.iter().map(|&v| u64::from(v)))
        {
            bytes.extend(x.to_le_bytes());
        }
    }
    assert_eq!(
        fnv1a(&bytes),
        5_417_157_178_920_587_270,
        "answer digest moved"
    );
}

/// The pinned workload's planned queries, each run through a context over
/// the shared k-core index as the engine dispatches them, take the pinned
/// sweep path mix: how many sweeps, probes, candidates and pre-peel reseeds
/// they cost in total.  A probe that moves from an incremental path to a
/// reseed (or a sweep that materialises more candidates) moves these sums
/// even when every answer stays the same.
#[test]
fn seeded_queries_take_the_pinned_sweep_path_mix() {
    let (graph, requests) = pinned_workload();
    let engine = SacEngine::new(graph.clone());
    let decomposition = core_decomposition(graph.graph());
    let mut total = SweepStats::default();
    for request in &requests {
        let response = engine.execute(request);
        let Plan::Execute(planned) = response.plan else {
            continue;
        };
        let (q, k) = (request.q, request.k);
        let components = Arc::new(KCoreComponents::build(graph.graph(), &decomposition, k));
        let mut ctx = SearchContext::with_components(&graph, q, k, components).unwrap();
        let outcome = Algorithm::from_name(planned.algorithm)
            .expect("the planner plans only Algorithm names")
            .run(&mut ctx, &planned.query)
            .unwrap();
        assert_eq!(outcome.community, response.outcome.unwrap(), "q={q} k={k}");
        let stats = ctx.sweep_stats();
        assert_eq!(stats.probes, response.trace.probe_count, "q={q} k={k}");
        total.sweeps += stats.sweeps;
        total.probes += stats.probes;
        total.candidates += stats.candidates;
        total.reseeds += stats.reseeds;
    }
    assert_eq!(
        [total.sweeps, total.probes, total.candidates, total.reseeds],
        [12_947, 80_500, 3_121_289, 13_701],
        "sweep path mix moved"
    );
}

/// The cache-served structural query agrees with the library's
/// `connected_kcore`.
#[test]
fn cached_connected_core_matches_library() {
    let graph = surrogate();
    let engine = SacEngine::new(graph);
    let snapshot = engine.snapshot();
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..30 {
        let q = rng.gen_range(0..snapshot.num_vertices() as u32);
        for k in [2u32, 3, 4] {
            let cached = engine.connected_core(q, k);
            let direct = sackit::graph::connected_kcore(snapshot.graph(), q, k).map(|mut v| {
                v.sort_unstable();
                v
            });
            assert_eq!(cached, direct, "q={q} k={k}");
        }
    }
}
