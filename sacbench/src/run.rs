//! `sac-bench run`: one workload end to end — dataset files, `sac-http`
//! set-ups, closed-loop traffic with tracing off, output checks, and
//! (with `--trace 1`) the traced in-process run.

use crate::drive::{self, Op, Sample, Window};
use crate::metrics::metric;
use crate::results::WorkloadResult;
use crate::server::{Connection, Server};
use crate::stats::{median, percentile, sorted};
use crate::trace::Span;
use crate::traced;
use crate::workload::{self, Answer, Dataset, MutationStream, Queries, Workload, K};
use sac_engine::SacEngine;
use sac_proto::json::Json;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Sample answers compared across the `ingest` kill and restart.
const RECOVERY_SAMPLES: usize = 32;

/// Failure messages kept per workload (the count is always exact).
const MAX_MESSAGES: usize = 20;

/// How a run measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub warmup: Duration,
    pub measure: Duration,
    pub trace: bool,
    /// Smoke mode: short windows, one set-up, a refused percentile is not a
    /// failure.
    pub quick: bool,
    /// `sac-http` spawns per run; the median is `setup_s`.
    pub setups: usize,
    /// Checkpoint cadence in commits (`--checkpoint-every` of `ingest`, and
    /// of the traced write replay).
    pub cadence: u64,
    pub out: PathBuf,
    pub server: PathBuf,
}

/// Tallies of one workload's checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Counts one request; `problem` is what was wrong with its reply.
    fn request(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.fail(problem);
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }
}

/// The HTTP traffic of one workload and what the checks made of it.
struct Traffic {
    samples: Vec<Sample>,
    rss_mib: Option<f64>,
    recovery_s: Option<f64>,
}

fn server_args(dataset: &Dataset, wal: Option<&Path>, cadence: u64) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--edges".into(),
        dataset.edges.display().to_string(),
        "--locations".into(),
        dataset.locations.display().to_string(),
        "--warm".into(),
        K.to_string(),
    ];
    if let Some(wal) = wal {
        args.extend([
            "--wal-dir".into(),
            wal.display().to_string(),
            "--wal-sync".into(),
            "8".into(),
            "--checkpoint-every".into(),
            cadence.to_string(),
        ]);
    }
    args
}

/// Runs `workload`; returns its result and the traced run's spans.
pub fn run_workload(
    cfg: &RunConfig,
    workload: Workload,
) -> Result<(WorkloadResult, Vec<Span>), String> {
    let dir = cfg.out.join(workload.name());
    let dataset = workload::prepare_dataset(workload, &dir.join("data"))?;
    let mut checks = Checks::default();
    for failure in &dataset.failures {
        checks.fail(failure.clone());
    }
    let queries = {
        let engine = SacEngine::new(dataset.graph.clone());
        engine.warm(&[K]);
        workload::queries(workload, cfg.seed, &engine)
    };

    let log = dir.join("sac-http.log");
    let _ = std::fs::remove_file(&log);
    let durable = workload == Workload::Ingest;
    let mut setup = Vec::new();
    let mut server: Option<(Server, PathBuf)> = None;
    for i in 0..cfg.setups.max(1) {
        if let Some((previous, _)) = server.take() {
            previous.kill();
        }
        let wal = dir.join(format!("wal-boot{i}"));
        let _ = std::fs::remove_dir_all(&wal);
        let args = server_args(&dataset, durable.then_some(wal.as_path()), cfg.cadence);
        let (started, elapsed) = Server::start(&cfg.server, &args, &log)?;
        setup.push(elapsed.as_secs_f64());
        server = Some((started, wal));
    }
    let (server, wal) = server.expect("at least one set-up");

    let window = Window::starting_now(cfg.warmup, cfg.measure);
    let traffic = if durable {
        ingest(
            cfg,
            &dataset,
            &queries,
            server,
            &wal,
            &log,
            window,
            &mut checks,
        )?
    } else {
        reads(&queries, server, window, &mut checks)
    };

    let secs = cfg.measure.as_secs_f64();
    let measured_ok = |want: &dyn Fn(&Op) -> bool| -> Vec<f64> {
        let rtts: Vec<f64> = traffic
            .samples
            .iter()
            .filter(|s| s.ok && s.measured && want(&s.op))
            .map(|s| s.rtt.as_secs_f64() * 1e6)
            .collect();
        sorted(&rtts)
    };
    let all = measured_ok(&|_| true);
    let query_rtts = measured_ok(&|op| matches!(op, Op::Query(_)));
    let mut metrics = vec![
        metric("setup_s", median(&setup).unwrap_or(0.0), setup.len()),
        metric("qps", all.len() as f64 / secs, all.len()),
    ];
    let mut quantile =
        |name: &str, values: &[f64], p: f64, required: bool| match percentile(values, p) {
            Some(v) => metrics.push(metric(name, v, values.len())),
            None if required && !cfg.quick => checks.fail(format!(
                "{name} refused: {} samples leave fewer than 10 beyond the percentile",
                values.len()
            )),
            None => {}
        };
    quantile("p50_us", &query_rtts, 0.5, true);
    quantile("p90_us", &query_rtts, 0.9, true);
    quantile("p99_us", &query_rtts, 0.99, false);
    if durable {
        let commits = measured_ok(&|op| matches!(op, Op::Commit));
        quantile("commit_p50_us", &commits, 0.5, false);
        quantile("commit_p90_us", &commits, 0.9, false);
        metrics.push(metric(
            "commits_per_s",
            commits.len() as f64 / secs,
            commits.len(),
        ));
    }
    match traffic.rss_mib {
        Some(rss) => metrics.push(metric("server_rss_mb", rss, 1)),
        None => checks.fail("cannot read the server's VmHWM".into()),
    }
    if let Some(recovery) = traffic.recovery_s {
        metrics.push(metric("recovery_s", recovery, 1));
    }

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    if cfg.trace {
        let traced = traced::run(
            cfg,
            workload,
            &dataset.graph,
            &queries.cases,
            &traffic.samples,
            &dir.join("wal-trace"),
        );
        for failure in traced.failures {
            checks.fail(failure);
        }
        layers = traced.layers;
        spans = traced.spans;
    }
    metrics.push(metric(
        "error_frac",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.attempted as usize,
    ));
    let result = WorkloadResult {
        name: workload.name().to_string(),
        dataset: "Brightkite".to_string(),
        scale: workload.scale(),
        vertices: dataset.graph.num_vertices(),
        edges: dataset.graph.num_edges(),
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.messages,
        metrics,
        layers,
    };
    Ok((result, spans))
}

/// Checks every sample of a read phase against its expected answer.
fn check_reads(samples: &mut [Sample], queries: &Queries, checks: &mut Checks) {
    for (i, s) in samples.iter_mut().enumerate() {
        let Op::Query(case) = s.op else {
            unreachable!("read phases send queries")
        };
        let problem = match &s.reply {
            Err(e) => Some(e.clone()),
            Ok(r) if r.status != 200 => Some(format!("HTTP {}", r.status)),
            Ok(r) => queries.cases[case].expect.check(&r.body),
        };
        s.ok = problem.is_none();
        checks.request(problem.map(|p| format!("reply {i} to {}: {p}", queries.cases[case].body)));
    }
}

/// `balanced`, `interactive_large`, `theta`: every connection cycles
/// through its order of the workload's queries.
fn reads(queries: &Queries, server: Server, window: Window, checks: &mut Checks) -> Traffic {
    let addr = server.addr;
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let clients: Vec<_> = queries
            .streams
            .iter()
            .map(|order| scope.spawn(move || drive::read_loop(addr, &queries.cases, order, window)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let rss_mib = server.peak_rss_mib();
    server.kill();
    samples.sort_by_key(|s| s.sent);
    check_reads(&mut samples, queries, checks);
    Traffic {
        samples,
        rss_mib,
        recovery_s: None,
    }
}

/// Whether a write reply is right; every commit advances `epoch`, the epoch
/// its ack must carry.
fn check_write(
    op: &Op,
    reply: &Result<crate::server::Reply, String>,
    epoch: &mut u64,
) -> Option<String> {
    if matches!(op, Op::Commit) {
        *epoch += 1;
    }
    let reply = match reply {
        Err(e) => return Some(e.clone()),
        Ok(r) if r.status != 200 => return Some(format!("HTTP {}", r.status)),
        Ok(r) => r,
    };
    let json = match Json::parse(reply.body.trim()) {
        Ok(json) => json,
        Err(e) => return Some(e.to_string()),
    };
    let field = |key: &str| json.get(key).cloned().unwrap_or(Json::Null);
    match op {
        Op::Commit => (field("ok").as_bool() != Some(true)
            || field("epoch").as_u64() != Some(*epoch))
        .then(|| format!("commit acked {}, expected epoch {epoch}", reply.body.trim())),
        _ => (field("ok").as_bool() != Some(true) || field("applied").as_bool() != Some(true))
            .then(|| format!("mutation not applied: {}", reply.body.trim())),
    }
}

/// `ingest`: connection A writes (batches of mutations, each committed),
/// connection B reads; then the commit count is padded so recovery replays
/// exactly `cadence / 2` records, the server is killed with SIGKILL and
/// restarted on its WAL, and its epoch and sample answers are compared.
#[allow(clippy::too_many_arguments)]
fn ingest(
    cfg: &RunConfig,
    dataset: &Dataset,
    queries: &Queries,
    server: Server,
    wal: &Path,
    log: &Path,
    window: Window,
    checks: &mut Checks,
) -> Result<Traffic, String> {
    let addr = server.addr;
    let mut stream = MutationStream::new(Workload::Ingest, cfg.seed, dataset.graph.graph());
    let ((mut writes, conn), mut reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| drive::write_loop(addr, &mut stream, window));
        let reader =
            scope.spawn(|| drive::read_loop(addr, &queries.cases, &queries.streams[1], window));
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let mut conn = conn.ok_or("the write connection failed")?;
    // A fresh server serves epoch 1; every acked commit publishes the next.
    let mut epoch = 1u64;
    for (i, s) in writes.iter_mut().enumerate() {
        let problem = check_write(&s.op, &s.reply, &mut epoch);
        s.ok = problem.is_none();
        checks.request(problem.map(|p| format!("write {i}: {p}")));
    }
    while (epoch - 1) % cfg.cadence != cfg.cadence / 2 {
        let m = stream.next_mutation();
        for (op, body) in [
            (Op::Mutation, m.body()),
            (Op::Commit, r#"{"cmd":"commit"}"#.to_string()),
        ] {
            let mut sample = drive::send(&mut conn, op, &body, &window);
            let problem = check_write(&sample.op, &sample.reply, &mut epoch);
            sample.ok = problem.is_none();
            checks.request(problem.map(|p| format!("padding: {p}")));
            if let Err(e) = &sample.reply {
                return Err(format!("the write connection failed while padding: {e}"));
            }
            writes.push(sample);
        }
    }

    let sample_answers = |conn: &mut Connection, checks: &mut Checks| -> Vec<Option<Answer>> {
        queries.cases[..RECOVERY_SAMPLES.min(queries.cases.len())]
            .iter()
            .map(|case| {
                let answer = conn
                    .post(&case.body)
                    .map_err(|e| e.to_string())
                    .and_then(|r| Answer::parse(&r.body));
                checks.request(answer.as_ref().err().cloned());
                answer.ok()
            })
            .collect()
    };
    let before = sample_answers(&mut conn, checks);
    let rss_mib = server.peak_rss_mib();
    drop(conn);
    server.kill();

    let args = server_args(dataset, Some(wal), cfg.cadence);
    let (restarted, recovery) = Server::start(&cfg.server, &args, log)?;
    let mut conn = Connection::open(restarted.addr).map_err(|e| e.to_string())?;
    let healthz = conn.get("/healthz").map_err(|e| e.to_string())?;
    let recovered_epoch = Json::parse(healthz.body.trim())
        .ok()
        .and_then(|j| j.get("epoch").and_then(Json::as_u64));
    checks.request(
        (recovered_epoch != Some(epoch)).then(|| {
            format!("restart recovered epoch {recovered_epoch:?}, last acked epoch {epoch}")
        }),
    );
    let after = sample_answers(&mut conn, checks);
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        if b.is_some() && b != a {
            checks.fail(format!(
                "answer {i} changed across the restart: {b:?} -> {a:?}"
            ));
        }
    }
    drop(conn);
    restarted.kill();

    check_reads(&mut reads, queries, checks);
    let mut samples = writes;
    samples.extend(reads);
    Ok(Traffic {
        samples,
        rss_mib,
        recovery_s: Some(recovery.as_secs_f64()),
    })
}
