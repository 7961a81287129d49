//! Transport equivalence: the LDJSON (`sac-serve`) and HTTP (`sac-http`)
//! front ends are thin shells over one typed protocol, so the *same request
//! stream* — queries, live updates, structural lookups, stats — must produce
//! **byte-identical** protocol payloads on both.
//!
//! Determinism notes: each transport gets its own service over an identically
//! built engine; timing fields are disabled (`EncodeOptions::timing`), and the
//! stream starts with a `warm` command so cache-hit flags don't depend on
//! thread interleaving inside batches.

use sackit::engine::EngineConfig;
use sackit::fixtures::{figure3, figure3_graph};
use sackit::live::{http, ldjson};
use sackit::proto::EncodeOptions;
use sackit::{GraphBuilder, Point, SacEngine, SacService, ServiceConfig, SpatialGraph};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

fn service() -> SacService {
    service_on(figure3_graph())
}

fn service_on(graph: SpatialGraph) -> SacService {
    // Disable the small-core exact upgrade so the tiny fixture still
    // exercises every algorithm family.
    let config = EngineConfig {
        small_exact_threshold: 0,
        ..EngineConfig::default()
    };
    SacService::new(
        Arc::new(SacEngine::with_config(Arc::new(graph), config)),
        ServiceConfig {
            threads: 2,
            encode: EncodeOptions {
                members: true,
                timing: false,
            },
        },
    )
}

/// The mixed request stream: warm-up, every budget family, an infeasible
/// vertex, typed rejections (bad ratio, out-of-range vertex), a batch, a
/// structural lookup, live updates with commits, stats before/after, and one
/// malformed line.
fn request_stream() -> Vec<String> {
    let q = figure3::Q;
    let i = figure3::I;
    let f = figure3::F;
    vec![
        r#"{"cmd":"warm","ks":[1,2,3]}"#.to_string(),
        format!(r#"{{"id":1,"q":{q},"k":2}}"#),
        format!(r#"{{"id":2,"q":{q},"k":2,"ratio":1}}"#),
        format!(r#"{{"id":3,"q":{q},"k":2,"ratio":2.5,"tier":"interactive"}}"#),
        format!(r#"{{"id":4,"q":{q},"k":2,"theta":2.5,"tier":"batch"}}"#),
        format!(r#"{{"id":5,"q":{i},"k":2}}"#),
        format!(r#"{{"id":6,"q":{q},"k":2,"ratio":0.5}}"#),
        r#"{"id":7,"q":999,"k":2}"#.to_string(),
        format!(r#"[{{"q":{q},"k":2}},{{"q":{i},"k":2,"theta":-1}},{{"q":{f},"k":3,"ratio":2}}]"#),
        format!(r#"{{"cmd":"core","q":{q},"k":2}}"#),
        r#"{"cmd":"stats"}"#.to_string(),
        format!(r#"{{"cmd":"add_edge","u":{i},"v":{f}}}"#),
        r#"{"cmd":"add_vertex","x":0.25,"y":0.75}"#.to_string(),
        r#"{"cmd":"commit"}"#.to_string(),
        format!(r#"{{"id":8,"q":{i},"k":2}}"#),
        format!(r#"{{"cmd":"remove_edge","u":{i},"v":{f}}}"#),
        r#"{"cmd":"commit"}"#.to_string(),
        format!(r#"{{"id":9,"q":{i},"k":2}}"#),
        r#"{this is not json"#.to_string(),
        r#"{"cmd":"stats"}"#.to_string(),
        // Observability commands: the event log's sequence numbers and
        // details are deterministic (timestamps are timing-gated), and trace
        // trees are timing-gated wholesale, so these stay byte-identical too.
        r#"{"cmd":"events"}"#.to_string(),
        r#"{"cmd":"events","since":2}"#.to_string(),
        format!(r#"{{"id":10,"q":{q},"k":2,"trace":true}}"#),
        r#"{"cmd":"commit","trace":true}"#.to_string(),
    ]
}

/// Runs the stream through the LDJSON transport loop (what `sac-serve`
/// drives) and returns one reply line per request.
fn ldjson_replies(service: SacService, stream: &[String]) -> Vec<String> {
    let input = stream.join("\n");
    let mut output = Vec::new();
    ldjson::serve(&service, input.as_bytes(), &mut output).unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// Runs the stream through a live HTTP server (what `sac-http` serves), one
/// `POST /api` per request on a keep-alive connection, and returns the
/// response bodies (sans trailing newline, to mirror `lines()`).
fn http_replies(service: SacService, stream: &[String]) -> Vec<String> {
    let service = Arc::new(service);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::clone(&service);
    std::thread::spawn(move || {
        let _ = http::serve_http(server, listener);
    });
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut replies = Vec::new();
    for request in stream {
        write!(
            conn,
            "POST /api HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{request}",
            request.len()
        )
        .unwrap();
        conn.flush().unwrap();
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.starts_with("HTTP/1.1 200"), "status: {status}");
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(value) = header
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = value.parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        let body = String::from_utf8(body).unwrap();
        replies.push(body.trim_end_matches('\n').to_string());
    }
    replies
}

#[test]
fn ldjson_and_http_transports_are_byte_identical() {
    let stream = request_stream();
    let ldjson = ldjson_replies(service(), &stream);
    let http = http_replies(service(), &stream);
    assert_eq!(
        ldjson.len(),
        stream.len(),
        "every request produces exactly one reply"
    );
    assert_eq!(http.len(), stream.len());
    for (i, (a, b)) in ldjson.iter().zip(&http).enumerate() {
        assert_eq!(a, b, "transport divergence on request {i}: {}", stream[i]);
    }

    // The stream genuinely exercised the protocol: spot-check the payloads.
    assert!(ldjson[1].contains(r#""feasible":true"#)); // default budget query
    assert!(ldjson[2].contains(r#""plan":"exact_plus"#)); // ratio 1
    assert!(ldjson[3].contains(r#""plan":"app_fast"#)); // interactive 2.5
    assert!(ldjson[4].contains(r#""plan":"theta_sac(theta=2.5)""#));
    assert!(ldjson[5].contains(r#""plan":"infeasible(cache)""#)); // pendant vertex
    assert!(
        ldjson[6].contains(r#""plan":"rejected""#),
        "typed budget rejection"
    );
    assert!(ldjson[6].contains("max_ratio"));
    assert!(ldjson[7].contains("out of range"));
    assert!(ldjson[8].starts_with('[') && ldjson[8].contains(r#""plan":"rejected""#));
    assert!(ldjson[10].contains(r#""pending_mutations":0"#));
    assert!(ldjson[13].contains(r#""epoch":2"#)); // first commit
    assert!(ldjson[14].contains(r#""feasible":true"#)); // I joined a 2-core
    assert!(ldjson[16].contains(r#""epoch":3"#)); // second commit
    assert!(ldjson[17].contains(r#""feasible":false"#)); // ...and left it
    assert!(ldjson[18].contains(r#""ok":false"#)); // malformed line
    assert!(ldjson[19].contains(r#""epochs_published":2"#));
    // Both commits landed in the event log, in publication order.
    assert!(
        ldjson[20].starts_with(
            r#"{"ok":true,"next_seq":2,"missed":0,"events":[{"seq":0,"kind":"epoch_swap""#
        ),
        "got: {}",
        ldjson[20]
    );
    assert!(ldjson[21].contains(r#""events":[]"#)); // cursor tails the log
    assert!(ldjson[22].contains(r#""feasible":true"#)); // traced query answers
    assert!(ldjson[23].contains(r#""mutations":0"#)); // traced empty commit
                                                      // Deterministic mode: no volatile timing fields anywhere — including the
                                                      // per-event timestamps and the requested trace trees.
    for line in &ldjson {
        assert!(!line.contains("micros"), "timing leaked into: {line}");
        assert!(!line.contains(r#""trace""#), "trace leaked into: {line}");
    }
}

/// Vertices of [`ring`].
const RING: u32 = 1_200;

/// A cycle of [`RING`] vertices evenly spaced on a circle.  A cycle has no
/// proper subgraph of minimum degree 2, so every `k = 2` answer is the whole
/// ring: replies with 1,200 members, ids of one to four digits.
fn ring() -> SpatialGraph {
    let mut builder = GraphBuilder::new();
    builder.add_edges((0..RING).map(|v| (v, (v + 1) % RING)));
    let positions = (0..RING)
        .map(|v| {
            let angle = f64::from(v) * std::f64::consts::TAU / f64::from(RING);
            Point::new(0.5 + 0.4 * angle.cos(), 0.5 + 0.4 * angle.sin())
        })
        .collect();
    SpatialGraph::new(builder.build(), positions).unwrap()
}

#[test]
fn large_member_lists_are_byte_identical_across_transports() {
    let stream = vec![
        r#"{"cmd":"warm","ks":[2]}"#.to_string(),
        r#"{"id":1,"q":0,"k":2}"#.to_string(),
        r#"{"id":2,"q":617,"k":2,"ratio":2.5,"tier":"interactive"}"#.to_string(),
        r#"{"cmd":"core","q":999,"k":2}"#.to_string(),
        r#"[{"q":5,"k":2,"tier":"interactive"},{"q":6,"k":3},{"q":1199,"k":2,"theta":2}]"#
            .to_string(),
    ];
    let ldjson = ldjson_replies(service_on(ring()), &stream);
    let http = http_replies(service_on(ring()), &stream);
    assert_eq!(ldjson.len(), stream.len());
    assert_eq!(http.len(), stream.len());
    for (i, (a, b)) in ldjson.iter().zip(&http).enumerate() {
        assert_eq!(a, b, "transport divergence on request {i}: {}", stream[i]);
    }
    let whole_ring = format!(
        r#""members":[{}]"#,
        (0..RING)
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    for (i, members) in [(1, 1), (2, 1), (3, 1), (4, 2)] {
        assert_eq!(
            ldjson[i].matches(&whole_ring).count(),
            members,
            "reply {i}: {}",
            ldjson[i].replace(&whole_ring, r#""members":[..]"#)
        );
        assert!(ldjson[i].contains(r#""size":1200"#), "reply {i}");
    }
    assert!(ldjson[4].contains(r#""feasible":false"#)); // k = 3 on a cycle
}

/// The observability surfaces agree: `GET /metrics` (Prometheus text) and
/// the engine's typed `EngineStats` latency summaries describe the same
/// histograms, and the slow-query log is reachable over the wire.
#[test]
fn http_metrics_exposition_matches_engine_stats() {
    let config = EngineConfig {
        slow_query_micros: 1, // everything is "slow": the ring must capture
        ..EngineConfig::default()
    };
    let service = Arc::new(SacService::new(
        Arc::new(SacEngine::with_config(Arc::new(figure3_graph()), config)),
        ServiceConfig::default(),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::clone(&service);
    std::thread::spawn(move || {
        let _ = http::serve_http(server, listener);
    });

    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let query = format!(r#"{{"q":{},"k":2}}"#, figure3::Q);
    for _ in 0..5 {
        write!(
            conn,
            "POST /api HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{query}",
            query.len()
        )
        .unwrap();
        conn.flush().unwrap();
        let mut head = String::new();
        let mut content_length = 0usize;
        loop {
            head.clear();
            reader.read_line(&mut head).unwrap();
            if head.trim_end().is_empty() {
                break;
            }
            if let Some(value) = head
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = value.parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        // Query ids are on the wire when timing is enabled.
        assert!(
            String::from_utf8(body).unwrap().contains(r#""query_id":"#),
            "query replies carry their engine-assigned id"
        );
    }

    // Scrape /metrics over the wire (closing connection for simplicity).
    let mut scrape = TcpStream::connect(addr).unwrap();
    write!(
        scrape,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    BufReader::new(scrape)
        .read_to_string(&mut response)
        .unwrap();
    assert!(
        response.contains("Content-Type: text/plain; version=0.0.4"),
        "exposition declares the Prometheus text format: {}",
        response.lines().next().unwrap_or_default()
    );
    let exposition = response.split("\r\n\r\n").nth(1).expect("body");

    // The exposition and the typed EngineStats describe the same histograms.
    let stats = service.engine().stats();
    let standard = stats
        .tier_latency
        .iter()
        .find(|t| t.label == "standard")
        .expect("default-budget queries land in the standard tier");
    assert_eq!(standard.summary.count, 5);
    for needle in [
        format!(
            "sac_query_latency_micros_count{{tier=\"standard\"}} {}",
            standard.summary.count
        ),
        format!(
            "sac_query_latency_micros_max{{tier=\"standard\"}} {}",
            standard.summary.max_micros
        ),
        "sac_http_responses_total{status=\"200\"} 5".to_string(),
        // The rotating-window summary rides alongside the cumulative series;
        // all five queries just happened, so they are inside the 10s window.
        "sac_query_latency_window_micros_count{tier=\"standard\"} 5".to_string(),
        "sac_query_latency_window_micros{tier=\"standard\",quantile=\"0.99\"}".to_string(),
    ] {
        assert!(exposition.contains(&needle), "missing {needle}");
    }

    // The windowed stats agree with the cumulative ones at this point (all
    // queries landed within the live window span).
    let windowed = stats
        .windowed_tier_latency
        .iter()
        .find(|t| t.label == "standard")
        .expect("windowed summaries mirror the tier list");
    assert_eq!(windowed.summary.count, 5);
    assert_eq!(windowed.summary.p99_micros, standard.summary.p99_micros);
    assert!(stats.window_span_micros > 0);

    // Every query tripped the 1µs threshold: the slow log has entries, and
    // the protocol command exposes them.
    let line = service.handle_line(r#"{"cmd":"slowlog"}"#).unwrap();
    assert!(
        line.starts_with(r#"{"ok":true,"threshold_micros":1,"dropped":0,"entries":[{"#),
        "got: {line}"
    );
    assert!(line.contains(r#""plan":"#), "got: {line}");
}

/// The HTTP `GET /stats` sugar returns the same payload as the protocol's
/// `{"cmd":"stats"}` document.
#[test]
fn http_get_stats_matches_protocol_stats() {
    let service = Arc::new(service());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::clone(&service);
    std::thread::spawn(move || {
        let _ = http::serve_http(server, listener);
    });
    let via_service = service.handle_line(r#"{"cmd":"stats"}"#).unwrap();

    let mut conn = TcpStream::connect(addr).unwrap();
    write!(
        conn,
        "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    BufReader::new(conn).read_to_string(&mut response).unwrap();
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("response has a body");
    assert_eq!(body.trim_end_matches('\n'), via_service);
}
