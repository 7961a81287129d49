//! The traced run: the same seeded inputs replayed in process through each
//! layer's public calls, with a span around every call (see [`crate::trace`]
//! for how calls the program makes internally are re-issued and charged).
//!
//! ```text
//! request ─┬─ decode         ProtoRequest::parse_line
//!          ├─ handle         SacService::handle
//!          │   └─ execute    SacEngine::execute
//!          │       ├─ plan   SacEngine::plan_for
//!          │       │   └─ core_lookup      SacEngine::connected_core
//!          │       ├─ context              SearchContext::{new,with_decomposition}
//!          │       └─ search               AlgorithmRegistry::run
//!          │           ├─ candidate_view   SpatialGraph::vertices_by_distance_into (× sweeps)
//!          │           └─ mcc              minimum_enclosing_circle
//!          ├─ encode         ProtoResponse::encode_line
//!          └─ http           the client round trip measured over HTTP
//!              └─ handle_line  SacService::handle_line
//! ```
//!
//! The write path replays the `ingest` stream against a durable
//! [`LiveEngine`] with manual checkpoints, then recovers from its directory.

use crate::drive::{Op, Sample};
use crate::metrics::metric;
use crate::results::Metric;
use crate::run::RunConfig;
use crate::stats::{mean, median};
use crate::trace::{self_times, Span, Tracer};
use crate::workload::{Answer, MutationStream, QueryCase, Workload, K};
use sac_core::{SacError, SearchContext};
use sac_engine::{EngineConfig, Plan, SacEngine, SacRequest};
use sac_geom::minimum_enclosing_circle;
use sac_graph::{SpatialGraph, SweepStats};
use sac_live::{Durability, LiveEngine, SacService, ServiceConfig, SyncPolicy};
use sac_proto::ProtoRequest;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries replayed untimed before the traced replay, to warm caches.
const WARM_REQUESTS: usize = 16;

/// Queries replayed at least, even past the time budget, so medians rest on
/// enough calls.
const MIN_REQUESTS: usize = 32;

/// Queries replayed at most (bounds `spans.json`).
const MAX_REQUESTS: usize = 2000;

/// Answers compared across the write path's simulated crash.
const RECOVERY_PROBES: usize = 8;

/// What the traced run produced.
pub struct Traced {
    pub layers: Vec<Metric>,
    pub spans: Vec<Span>,
    pub failures: Vec<String>,
}

/// Facts one replayed query reports besides its spans.
#[derive(Default)]
struct QueryFacts {
    reply_bytes: usize,
    found: bool,
    community_size: usize,
    sweep: SweepStats,
    view_len: usize,
}

/// Replays the measured queries of `samples` (for up to half the
/// measurement window) and the workload's write stream; `wal_dir` holds the
/// write replay's log.
pub fn run(
    cfg: &RunConfig,
    workload: Workload,
    graph: &SpatialGraph,
    cases: &[QueryCase],
    samples: &[Sample],
    wal_dir: &Path,
) -> Traced {
    // Span times count from the first HTTP request, so the `http` spans
    // (measured before the replay) keep their real intervals.
    let epoch = samples
        .iter()
        .map(|s| s.sent)
        .min()
        .unwrap_or_else(Instant::now);
    let mut tracer = Tracer::new(true, epoch);
    let mut failures = Vec::new();
    let mut layers = query_replay(
        graph,
        cases,
        samples,
        cfg.measure / 2,
        &mut tracer,
        &mut failures,
    );
    let requests: Vec<&SacRequest> = cases.iter().map(|c| &c.request).collect();
    layers.extend(write_replay(
        workload,
        cfg,
        graph,
        &requests,
        wal_dir,
        &mut tracer,
        &mut failures,
    ));
    Traced {
        layers,
        spans: tracer.into_spans(),
        failures,
    }
}

/// The fixed pieces a replayed query runs against.
struct Stack {
    service: SacService,
    engine: Arc<SacEngine>,
    graph: Arc<SpatialGraph>,
}

fn query_replay(
    graph: &SpatialGraph,
    cases: &[QueryCase],
    samples: &[Sample],
    budget: Duration,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let engine = Arc::new(SacEngine::new(graph.clone()));
    engine.warm(&[K]);
    let stack = Stack {
        service: SacService::new(Arc::clone(&engine), ServiceConfig::default()),
        graph: engine.snapshot(),
        engine,
    };
    let queries: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.measured && s.ok && matches!(s.op, Op::Query(_)))
        .collect();
    let mut untraced = Tracer::new(false, Instant::now());
    for sample in queries.iter().take(WARM_REQUESTS) {
        let _ = replay_one(&stack, cases, sample, &mut untraced);
    }
    let started = Instant::now();
    let (mut traced_time, mut untraced_time) = (Duration::ZERO, Duration::ZERO);
    let mut facts = Vec::new();
    for (i, sample) in queries.iter().enumerate().take(MAX_REQUESTS) {
        if i >= MIN_REQUESTS && started.elapsed() >= budget {
            break;
        }
        tracer.set_request(i as u64);
        // Alternate which half runs first so cache warmth favours neither.
        for traced_pass in [i % 2 == 0, i % 2 == 1] {
            let start = Instant::now();
            if traced_pass {
                match replay_one(&stack, cases, sample, tracer) {
                    Ok(f) => facts.push(f),
                    Err(e) => failures.push(format!("traced query {i}: {e}")),
                }
                traced_time += start.elapsed();
            } else {
                let _ = replay_one(&stack, cases, sample, &mut untraced);
                untraced_time += start.elapsed();
            }
        }
    }
    let overhead = traced_time.as_secs_f64() / untraced_time.as_secs_f64().max(1e-9) - 1.0;
    query_layers(tracer.spans(), &facts, overhead)
}

/// Replays one measured query through every layer's public call.
fn replay_one(
    stack: &Stack,
    cases: &[QueryCase],
    sample: &Sample,
    tracer: &mut Tracer,
) -> Result<QueryFacts, String> {
    let Op::Query(case) = sample.op else {
        unreachable!("only query samples are replayed")
    };
    let case = &cases[case];
    let (engine, graph) = (&stack.engine, &stack.graph);
    let mut facts = QueryFacts::default();
    let root = tracer.open("request", None);

    let (decoded, _) = tracer.time("decode", root, || ProtoRequest::parse_line(&case.body));
    let decoded = decoded.map_err(|e| e.to_string())?;
    let (response, handle) = tracer.time("handle", root, || stack.service.handle(&decoded));
    let response = response.ok_or("a query never quits")?;
    let (line, _) = tracer.time("encode", root, || {
        response.encode_line(stack.service.encode_options())
    });
    facts.reply_bytes = line.len();

    let (executed, execute) = tracer.time("execute", handle, || engine.execute(&case.request));
    let (plan, plan_span) = tracer.time("plan", execute, || engine.plan_for(&case.request));
    let (core, _) = tracer.time("core_lookup", plan_span, || {
        engine.connected_core(case.request.q, case.request.k)
    });
    let plan = plan.map_err(|e| e.to_string())?;
    if let Plan::Execute(planned) = plan {
        let q = case.request.q;
        let decomposition = engine
            .registry()
            .get(planned.algorithm)
            .ok_or("planned algorithm is not registered")?
            .profile()
            .shares_decomposition
            .then(|| engine.decomposition());
        let (ctx, _) = tracer.time("context", execute, || match decomposition {
            Some(d) => SearchContext::with_decomposition(graph, q, K, d),
            None => SearchContext::new(graph, q, K),
        });
        let mut ctx = ctx.map_err(|e| e.to_string())?;
        let (outcome, search) = tracer.time("search", execute, || {
            engine
                .registry()
                .run(planned.algorithm, &mut ctx, &planned.query)
        });
        let community = outcome.map_err(|e: SacError| e.to_string())?.community;
        facts.sweep = ctx.sweep_stats();

        let q_pos = graph.position(q);
        let extent = core
            .iter()
            .flatten()
            .map(|&v| graph.position(v).distance(q_pos))
            .fold(0.0, f64::max);
        let (mut scratch, mut view) = (Vec::new(), Vec::new());
        let (_, view_span) = tracer.time("candidate_view", search, || {
            graph.vertices_by_distance_into(q_pos, extent, &mut scratch, &mut view)
        });
        tracer.set_calls(view_span, facts.sweep.sweeps);
        facts.view_len = view.len();

        if let Some(community) = &community {
            let points = graph.positions_of(community.members());
            let (mcc, _) = tracer.time("mcc", search, || minimum_enclosing_circle(&points));
            if mcc.map_err(|e| e.to_string())?.radius.to_bits() != community.radius().to_bits() {
                return Err(format!("q={q}: MCC radius differs from the community's"));
            }
            facts.found = true;
            facts.community_size = community.len();
        }
        let decomposed = Answer::of(plan.label(), community.as_ref(), executed.trace.epoch);
        if decomposed != Answer::from_response(&executed) {
            return Err(format!("q={q}: the decomposed search differs from execute"));
        }
    }

    let http = tracer.record("http", root, sample.sent, sample.rtt, 1);
    tracer.time("handle_line", http, || {
        stack.service.handle_line(&case.body)
    });
    tracer.close(root);
    Ok(facts)
}

/// Median duration in µs of the spans named `name`, with its call count.
fn span_median(spans: &[Span], values: &[u64], name: &str) -> (f64, usize) {
    let us: Vec<f64> = spans
        .iter()
        .zip(values)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    (median(&us).unwrap_or(0.0), us.len())
}

fn query_layers(spans: &[Span], facts: &[QueryFacts], overhead: f64) -> Vec<Metric> {
    let durations: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    let selfs = self_times(spans);
    let timing = |name: &str, span: &str| {
        let (value, n) = span_median(spans, &durations, span);
        metric(name, value, n)
    };
    let self_time = |name: &str, span: &str| {
        let (value, n) = span_median(spans, &selfs, span);
        metric(name, value, n)
    };
    let n = facts.len();
    let count = |name: &str, f: &dyn Fn(&QueryFacts) -> f64| {
        let values: Vec<f64> = facts.iter().map(f).collect();
        metric(name, mean(&values).unwrap_or(0.0), n)
    };
    // Per execute span: the share its children's time covers.
    let cover: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "execute" && s.duration_ns() > 0)
        .map(|(i, s)| 1.0 - selfs[i] as f64 / s.duration_ns() as f64)
        .collect();
    // Per search span: the time its sweeps' candidate views would take.
    let share: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "candidate_view")
        .filter_map(|view| {
            let search = &spans[view.parent?];
            (search.duration_ns() > 0)
                .then(|| (view.calls * view.duration_ns()) as f64 / search.duration_ns() as f64)
        })
        .collect();
    vec![
        self_time("http.self_us", "http"),
        timing("proto.decode_us", "decode"),
        timing("proto.encode_us", "encode"),
        count("proto.reply_bytes", &|f| f.reply_bytes as f64),
        timing("service.handle_us", "handle"),
        timing("engine.execute_us", "execute"),
        timing("engine.plan_us", "plan"),
        timing("engine.core_lookup_us", "core_lookup"),
        self_time("engine.self_us", "execute"),
        metric(
            "engine.children_cover_frac",
            median(&cover).unwrap_or(0.0),
            cover.len(),
        ),
        count("engine.found_frac", &|f| f64::from(u8::from(f.found))),
        timing("core.context_us", "context"),
        timing("core.search_us", "search"),
        self_time("core.self_us", "search"),
        count("core.community_size", &|f| f.community_size as f64),
        count("graph.sweeps", &|f| f.sweep.sweeps as f64),
        count("graph.probes", &|f| f.sweep.probes as f64),
        count("graph.candidates", &|f| f.sweep.candidates as f64),
        count("graph.reseeds", &|f| f.sweep.reseeds as f64),
        timing("graph.candidate_view_us", "candidate_view"),
        count("graph.candidate_view_len", &|f| f.view_len as f64),
        metric(
            "graph.candidate_view_share",
            median(&share).unwrap_or(0.0),
            share.len(),
        ),
        timing("geom.mcc_us", "mcc"),
        metric("trace.overhead_frac", overhead, n),
    ]
}

/// Replays `cadence` commits of the workload's write stream, checkpoints,
/// replays `cadence / 2` more, drops the engine without a clean shutdown and
/// recovers from the directory.
fn write_replay(
    workload: Workload,
    cfg: &RunConfig,
    graph: &SpatialGraph,
    probes: &[&SacRequest],
    dir: &Path,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let mut fail = |what: String| {
        failures.push(format!("write replay: {what}"));
        Vec::new()
    };
    let _ = std::fs::remove_dir_all(dir);
    let durability = || Durability {
        dir: dir.to_path_buf(),
        sync: SyncPolicy::EveryN(8),
        checkpoint_every: 0,
    };
    let engine = Arc::new(SacEngine::new(graph.clone()));
    engine.warm(&[K]);
    let live = match LiveEngine::with_durability(Arc::clone(&engine), durability()) {
        Ok(live) => live,
        Err(e) => return fail(e.to_string()),
    };
    let log_bytes = |live: &LiveEngine| live.wal_stats().map_or(0, |w| w.log_bytes);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let cadence = cfg.cadence;
    let mut stream = MutationStream::new(workload, cfg.seed, graph.graph());
    let (mut mutate, mut cores_changed) = (Vec::new(), Vec::new());
    let (mut commit, mut build, mut rebuild, mut swap, mut append) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut invalidated, mut kcore_rebuild) = (Vec::new(), Vec::new());
    let (mut checkpoint, mut snapshot_bytes) = (Vec::new(), Vec::new());
    let mut base = log_bytes(&live);
    let mut written = 0u64;
    for n in 1..=cadence + cadence / 2 {
        tracer.set_request(n);
        for m in stream.next_batch() {
            let start = Instant::now();
            let changed = m.apply(&live);
            let elapsed = start.elapsed();
            tracer.record("mutate", None, start, elapsed, 1);
            match changed {
                Ok(changed) => cores_changed.push(changed as f64),
                Err(e) => return fail(e),
            }
            mutate.push(us(elapsed));
        }
        let (report, _) = tracer.time("commit", None, || live.commit());
        let report = match report {
            Ok(report) => report,
            Err(e) => return fail(e.to_string()),
        };
        let micros = |m: u64| m as f64;
        commit.push(micros(report.micros));
        build.push(micros(report.snapshot_build_micros));
        rebuild.push(micros(report.rebuild_micros));
        swap.push(micros(report.swap_micros));
        append.push(micros(report.micros.saturating_sub(
            report.snapshot_build_micros + report.rebuild_micros + report.swap_micros,
        )));
        invalidated.push(report.components_invalidated as f64);
        if report.components_invalidated > 0 {
            let start = Instant::now();
            let (components, _) =
                tracer.time("kcore_index_rebuild", None, || engine.core_components(K));
            std::hint::black_box(components);
            kcore_rebuild.push(us(start.elapsed()));
        }
        if n % cadence == 0 {
            let before = log_bytes(&live);
            let start = Instant::now();
            let (report, _) = tracer.time("checkpoint", None, || live.checkpoint());
            checkpoint.push(us(start.elapsed()));
            match report {
                Ok(report) => {
                    written += before - base + report.snapshot_bytes;
                    snapshot_bytes.push(report.snapshot_bytes as f64);
                }
                Err(e) => return fail(e.to_string()),
            }
            base = log_bytes(&live);
        }
    }
    written += log_bytes(&live) - base;
    let before: Vec<Answer> = probes
        .iter()
        .take(RECOVERY_PROBES)
        .map(|r| Answer::from_response(&engine.execute(r)))
        .collect();
    let epoch = engine.epoch();
    // A crash: no shutdown flush, no clean-shutdown marker.
    drop(live);
    drop(engine);
    let start = Instant::now();
    let (recovered, _) = tracer.time("recover", None, || {
        LiveEngine::recover(durability(), EngineConfig::default())
    });
    let recover_us = us(start.elapsed());
    let (recovered, report) = match recovered {
        Ok(recovered) => recovered,
        Err(e) => return fail(e.to_string()),
    };
    if report.records_replayed != cadence / 2 || recovered.engine().epoch() != epoch {
        fail(format!(
            "recovery replayed {} records to epoch {}, expected {} to epoch {epoch}",
            report.records_replayed,
            recovered.engine().epoch(),
            cadence / 2
        ));
    }
    let after: Vec<Answer> = probes
        .iter()
        .take(RECOVERY_PROBES)
        .map(|r| Answer::from_response(&recovered.engine().execute(r)))
        .collect();
    if after != before {
        fail("recovered answers differ from the pre-crash answers".into());
    }
    let mutations = mutate.len();
    let med =
        |name: &str, values: &[f64]| metric(name, median(values).unwrap_or(0.0), values.len());
    let avg = |name: &str, values: &[f64]| metric(name, mean(values).unwrap_or(0.0), values.len());
    vec![
        med("live.mutate_us", &mutate),
        avg("live.cores_changed", &cores_changed),
        med("live.commit_us", &commit),
        med("live.snapshot_build_us", &build),
        med("engine.publish_rebuild_us", &rebuild),
        med("engine.publish_swap_us", &swap),
        med("wal.append_us", &append),
        med("wal.checkpoint_us", &checkpoint),
        avg("wal.snapshot_bytes", &snapshot_bytes),
        metric(
            "wal.bytes_written_per_mutation",
            written as f64 / mutations.max(1) as f64,
            mutations,
        ),
        avg("engine.components_invalidated", &invalidated),
        med("engine.kcore_index_rebuild_us", &kcore_rebuild),
        metric("wal.recover_us", recover_us, 1),
        metric("wal.records_replayed", report.records_replayed as f64, 1),
    ]
}
