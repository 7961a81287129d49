//! Open-loop load-generator harness: offered-load latency for the serving
//! stack, measured the way a latency SLO is owed.
//!
//! Closed-loop benchmarks (issue a query, wait, issue the next) hide
//! queueing: a stalled server slows the *offered* load down, so the measured
//! latencies silently exclude exactly the moments that matter.  This runner
//! drives an **open-loop Poisson arrival process** at a configured offered
//! rate instead, and measures every query from its **intended arrival time**
//! — the coordinated-omission correction — so backlog behind a slow reply is
//! charged to the replies that queued, not dropped.
//!
//! Three targets are driven at three offered loads each (a fixed fraction of
//! a per-target calibrated closed-loop capacity, so the shape is stable
//! across runner speeds):
//!
//! * `inproc` — [`SacEngine::execute`] called directly (no transport);
//! * `ldjson` — the LDJSON protocol loop over a real TCP socket;
//! * `http`   — the HTTP/1.1 front end over a real TCP socket.
//!
//! Run with: `cargo run --release -p sac-bench --example bench_loadgen`
//!
//! Results land in `bench_loadgen.json` in the current directory (written
//! *before* the gates are asserted, so a regression run keeps its numbers):
//! one row per (target, offered load) with open-loop p50/p99/p999, plus one
//! `window_check` row comparing the engine's rotating-window `/metrics` p99
//! against the load generator's own p99 for the same run.  Two gates:
//!
//! * at the **low** offered load (a quarter of measured capacity), every
//!   target's open-loop p99 stays under a deliberately generous ceiling
//!   ([`P99_CEILING_MICROS`]) — only instability or a serious serving
//!   regression crosses it;
//! * the windowed telemetry is **consistent**: a fresh engine is hammered
//!   closed-loop (client latencies are then queue-free service times, the
//!   same quantity the engine's histograms record), and the windowed p99
//!   must land within [`MAX_BUCKET_DISTANCE`] histogram bucket indexes of
//!   the client-measured p99 (the grid is 2 buckets per octave, so each
//!   index step is ≤ √2×).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_bench::bench_dataset_scaled;
use sac_data::{select_query_vertices, DatasetKind};
use sac_engine::{QueryBudget, SacEngine, SacRequest};
use sac_graph::VertexId;
use sac_live::{http, ldjson, SacService, ServiceConfig};
use sac_obs::bucket_index;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const K: u32 = 4;

/// Query vertices sampled from the dataset.
const QUERY_COUNT: usize = 32;

/// Concurrent open-loop senders per target (each runs an independent Poisson
/// process at `offered / WORKERS`, which superposes to Poisson at `offered`).
const WORKERS: usize = 4;

/// Wall-clock length of one (target, load) measurement.
const RUN_SECS: f64 = 1.5;

/// Wall-clock length of the closed-loop calibration run per target.
const CALIBRATION_SECS: f64 = 0.6;

/// Offered loads as fractions of the calibrated closed-loop concurrent
/// capacity: low enough at the bottom that the open-loop queue stays
/// stable, high enough at the top that queueing becomes visible.
const LOAD_FRACTIONS: [f64; 3] = [0.25, 0.5, 0.75];

/// Gate: open-loop p99 at the **low** offered load, per target.  Deliberately
/// generous — at a quarter of measured capacity a healthy server answers in
/// a few service times; only instability (a queue that never drains) or a
/// serious serving regression crosses half a second.
const P99_CEILING_MICROS: u64 = 500_000;

/// Gate: histogram-bucket distance allowed between the engine's windowed
/// `/metrics` p99 and the load generator's p99 for the same run.
const MAX_BUCKET_DISTANCE: usize = 2;

/// One blocking request sender over one connection (or the engine itself).
type Sender = Box<dyn FnMut(u64, VertexId) + Send>;

/// A load-generation target: a name plus a factory producing one independent
/// sender per worker thread.
struct Target<'a> {
    name: &'static str,
    connect: Box<dyn Fn() -> Sender + Sync + 'a>,
}

/// Open-loop latencies (microseconds, from *intended* arrival to completion)
/// of one worker's Poisson process at `rate` per second for `duration`.
fn worker_loop(
    mut send: Sender,
    queries: &[VertexId],
    rate: f64,
    duration: Duration,
    seed: u64,
) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut latencies = Vec::new();
    let start = Instant::now();
    let mut intended = Duration::ZERO;
    let mut id = seed << 24;
    loop {
        // Exponential inter-arrival gap: the next intended arrival does NOT
        // depend on when (or whether) the previous reply came back.
        let unit: f64 = rng.gen_range(0.0..1.0);
        intended += Duration::from_secs_f64(-(1.0 - unit).ln() / rate);
        if intended >= duration {
            break;
        }
        // Sleep coarsely, then spin the last stretch: thread::sleep jitter is
        // tens of microseconds, which would smear the arrival process.
        loop {
            let now = start.elapsed();
            if now >= intended {
                break;
            }
            let remaining = intended - now;
            if remaining > Duration::from_micros(500) {
                std::thread::sleep(remaining - Duration::from_micros(300));
            } else {
                std::hint::spin_loop();
            }
        }
        let q = queries[rng.gen_range(0..queries.len())];
        send(id, q);
        id += 1;
        // Coordinated-omission correction: latency counts from the intended
        // arrival, so time spent queued behind a slow reply is included.
        latencies.push((start.elapsed() - intended).as_micros() as u64);
    }
    latencies
}

/// Drives `target` at `offered` queries/second for [`RUN_SECS`] across
/// [`WORKERS`] independent connections; returns the merged, sorted
/// open-loop latencies.
fn run_load(target: &Target<'_>, queries: &[VertexId], offered: f64, seed: u64) -> Vec<u64> {
    let duration = Duration::from_secs_f64(RUN_SECS);
    let rate = offered / WORKERS as f64;
    let mut merged: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let send = (target.connect)();
                scope.spawn(move || worker_loop(send, queries, rate, duration, seed + w as u64))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });
    merged.sort_unstable();
    merged
}

/// Closed-loop *concurrent* calibration: [`WORKERS`] connections hammer the
/// target back-to-back for [`CALIBRATION_SECS`].  Returns the measured
/// saturated throughput (queries/second — the capacity the offered loads
/// are scaled from; a single-connection estimate would miss server-side
/// contention and overstate it) and the merged, sorted per-call client-side
/// latencies (queue-free by construction: each worker waits for its reply
/// before sending the next, so these are pure service times as a client
/// clock sees them).
fn calibrate(target: &Target<'_>, queries: &[VertexId]) -> (f64, Vec<u64>) {
    let duration = Duration::from_secs_f64(CALIBRATION_SECS);
    let mut merged: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let mut send = (target.connect)();
                scope.spawn(move || {
                    // Untimed warm-up pass (caches, connection setup).
                    for (i, &q) in queries.iter().enumerate() {
                        send(((1 + w as u64) << 24) + i as u64, q);
                    }
                    let mut latencies = Vec::new();
                    let start = Instant::now();
                    let mut i = w; // stagger so workers don't march in step
                    while start.elapsed() < duration {
                        let sent = Instant::now();
                        send(
                            ((8 + w as u64) << 24) + i as u64,
                            queries[i % queries.len()],
                        );
                        latencies.push(sent.elapsed().as_micros() as u64);
                        i += 1;
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("calibration worker panicked"))
            .collect()
    });
    let capacity = merged.len() as f64 / CALIBRATION_SECS;
    merged.sort_unstable();
    (capacity, merged)
}

/// Exact percentile of a sorted sample: the rank-⌈p·n⌉ element.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Stands up an LDJSON-over-TCP server for `service` and returns its port's
/// connect closure.
fn ldjson_connect(service: Arc<SacService>) -> Box<dyn Fn() -> Sender + Sync> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ldjson listener");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            // Like the HTTP front end: replies leave without Nagle delay.
            stream.set_nodelay(true).ok();
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let reader = BufReader::new(stream.try_clone().expect("clone ldjson stream"));
                let _ = ldjson::serve(&service, reader, stream);
            });
        }
    });
    Box::new(move || {
        let stream = TcpStream::connect(addr).expect("connect ldjson");
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone().expect("clone ldjson client"));
        let mut stream = stream;
        let mut reply = String::new();
        Box::new(move |id, q| {
            let line = format!("{{\"id\":{id},\"q\":{q},\"k\":{K}}}\n");
            stream.write_all(line.as_bytes()).expect("ldjson write");
            reply.clear();
            reader.read_line(&mut reply).expect("ldjson read");
            assert!(reply.contains("\"ok\":true"), "ldjson error: {reply}");
        })
    })
}

/// Stands up the HTTP front end for `service` and returns its connect
/// closure (keep-alive `POST /api` per request).
fn http_connect(service: Arc<SacService>) -> Box<dyn Fn() -> Sender + Sync> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind http listener");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = http::serve_http(service, listener);
    });
    Box::new(move || {
        let stream = TcpStream::connect(addr).expect("connect http");
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone().expect("clone http client"));
        let mut stream = stream;
        Box::new(move |id, q| {
            let body = format!("{{\"id\":{id},\"q\":{q},\"k\":{K}}}");
            let request = format!(
                "POST /api HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(request.as_bytes()).expect("http write");
            let mut status = String::new();
            reader.read_line(&mut status).expect("http status");
            assert!(status.starts_with("HTTP/1.1 200"), "http error: {status}");
            let mut content_length = 0usize;
            loop {
                let mut header = String::new();
                reader.read_line(&mut header).expect("http header");
                let header = header.trim_end();
                if header.is_empty() {
                    break;
                }
                if let Some(value) = header
                    .to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                {
                    content_length = value.parse().expect("content length");
                }
            }
            let mut reply = vec![0u8; content_length];
            reader.read_exact(&mut reply).expect("http body");
        })
    })
}

fn main() {
    let data = bench_dataset_scaled(DatasetKind::Brightkite, 0.02);
    let graph = Arc::new(data.graph);
    let mut rng = StdRng::seed_from_u64(0x10AD9E);
    let queries = select_query_vertices(graph.graph(), QUERY_COUNT, K, &mut rng);
    assert!(!queries.is_empty(), "bench dataset has no feasible query");
    let budget = QueryBudget::balanced();

    // One engine per target so each run's telemetry stays isolated.
    let engine_for = || {
        let engine = Arc::new(SacEngine::from_snapshot(Arc::clone(&graph)));
        engine.warm(&[K]);
        engine
    };
    let inproc_engine = engine_for();
    let ldjson_service = Arc::new(SacService::new(engine_for(), ServiceConfig::default()));
    let http_service = Arc::new(SacService::new(engine_for(), ServiceConfig::default()));

    let inproc = Target {
        name: "inproc",
        connect: Box::new(|| {
            let engine = Arc::clone(&inproc_engine);
            Box::new(move |id, q| {
                std::hint::black_box(
                    engine.execute(
                        &SacRequest::builder(q, K)
                            .id(id)
                            .budget(budget)
                            .build()
                            .expect("valid budget"),
                    ),
                );
            })
        }),
    };
    let ldjson_target = Target {
        name: "ldjson",
        connect: ldjson_connect(ldjson_service),
    };
    let http_target = Target {
        name: "http",
        connect: http_connect(http_service),
    };

    let mut rows = String::new();
    let mut push_row = |row: String| {
        if !rows.is_empty() {
            rows.push(',');
        }
        rows.push_str(&row);
    };

    let mut low_load_p99 = Vec::new();
    for (t, target) in [&inproc, &ldjson_target, &http_target].iter().enumerate() {
        let (capacity, _) = calibrate(target, &queries);
        for (l, fraction) in LOAD_FRACTIONS.iter().enumerate() {
            let offered = (capacity * fraction).max(10.0);
            let seed = 0xBEEF + (t * 16 + l) as u64;
            let latencies = run_load(target, &queries, offered, seed);
            assert!(
                !latencies.is_empty(),
                "{}: no queries completed",
                target.name
            );
            let (p50, p99, p999) = (
                percentile(&latencies, 0.50),
                percentile(&latencies, 0.99),
                percentile(&latencies, 0.999),
            );
            let achieved = latencies.len() as f64 / RUN_SECS;
            if l == 0 {
                low_load_p99.push((target.name, p99));
            }
            push_row(format!(
                r#"{{"bench":"loadgen","target":"{}","offered_qps":{offered:.0},"achieved_qps":{achieved:.0},"sent":{},"duration_secs":{RUN_SECS},"p50_micros":{p50},"p99_micros":{p99},"p999_micros":{p999},"max_micros":{}}}"#,
                target.name,
                latencies.len(),
                latencies.last().unwrap(),
            ));
            println!(
                "{:<7} offered={offered:>7.0}qps sent={:>6} p50={p50:>6}us p99={p99:>7}us p999={p999:>7}us",
                target.name,
                latencies.len(),
            );
        }
    }

    // Windowed-telemetry consistency: hammer a fresh engine closed-loop (so
    // the client-side latencies are queue-free service times — the same
    // thing the engine's own histograms time, give or take a call overhead),
    // then read the rotating-window summary the `/metrics` exposition
    // serves.  Both describe exactly the same queries inside the same 10s
    // window, so their p99s must land within bucket resolution.
    let probe_engine = engine_for();
    let probe = Target {
        name: "window_probe",
        connect: Box::new(|| {
            let engine = Arc::clone(&probe_engine);
            Box::new(move |id, q| {
                std::hint::black_box(
                    engine.execute(
                        &SacRequest::builder(q, K)
                            .id(id)
                            .budget(budget)
                            .build()
                            .expect("valid budget"),
                    ),
                );
            })
        }),
    };
    let (probe_qps, latencies) = calibrate(&probe, &queries);
    let loadgen_p99 = percentile(&latencies, 0.99);
    let stats = probe_engine.stats();
    let windowed = stats
        .windowed_tier_latency
        .iter()
        .find(|t| t.summary.count > 0)
        .expect("windowed telemetry captured the probe run");
    let window_p99 = windowed.summary.p99_micros;
    let distance = bucket_index(loadgen_p99).abs_diff(bucket_index(window_p99));
    push_row(format!(
        r#"{{"bench":"window_check","closed_loop_qps":{probe_qps:.0},"loadgen_p99_micros":{loadgen_p99},"window_p99_micros":{window_p99},"bucket_distance":{distance}}}"#
    ));
    println!(
        "window_check loadgen_p99={loadgen_p99}us window_p99={window_p99}us bucket_distance={distance}"
    );

    let json = format!(r#"{{"bench":"loadgen","results":[{rows}]}}"#);
    std::fs::write("bench_loadgen.json", format!("{json}\n")).expect("write bench_loadgen.json");
    println!("wrote bench_loadgen.json");

    // Regression gates (after the JSON is written, so a failing run keeps
    // its numbers).
    for (name, p99) in &low_load_p99 {
        assert!(
            *p99 <= P99_CEILING_MICROS,
            "{name}: open-loop p99 at the low offered load exceeded \
             {P99_CEILING_MICROS}us: {p99}us"
        );
    }
    assert!(
        distance <= MAX_BUCKET_DISTANCE,
        "windowed /metrics p99 ({window_p99}us) and loadgen p99 \
         ({loadgen_p99}us) disagree by {distance} histogram buckets \
         (max {MAX_BUCKET_DISTANCE})"
    );
}
