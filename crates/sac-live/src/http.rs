//! The HTTP/1.1 transport: a hand-rolled `std::net::TcpListener` front end
//! speaking the same typed protocol as the LDJSON loop.
//!
//! No external HTTP crate is available in the build environment, so this
//! module implements the small, well-defined subset the protocol needs:
//! request-line + header parsing, `Content-Length` bodies, keep-alive, and
//! fixed-length responses.  Routing is deliberately tiny — the protocol
//! payloads are the *same bytes* the LDJSON transport reads and writes, so
//! both transports stay thin shells over one [`SacService`]:
//!
//! | route | behaviour |
//! |---|---|
//! | `POST /api` | body = one protocol JSON document; reply body = the protocol reply line |
//! | `GET /stats` | shorthand for `{"cmd":"stats"}` |
//! | `GET /metrics` | Prometheus text exposition (`{"cmd":"metrics"}` carries the same text as JSON) |
//! | `GET /events?since=N` | structured event-log page from cursor `N` (shorthand for `{"cmd":"events","since":N}`) |
//! | `GET /healthz` | liveness probe: `{"ok":true,"epoch":…,"uptime_secs":…,…,"role":"primary"\|"replica"\|"candidate"}` (plus a `wal` object when durability is on, and a `replication` object + `"status":"ok"|"degraded"` on replicas; `role` is always reported and tracks failover) |
//!
//! A `{"cmd":"quit"}` document closes the connection (the server keeps
//! accepting new ones); transport-level problems (unknown route, missing
//! body) use HTTP status codes, while protocol-level errors travel as normal
//! `{"ok":false,...}` payloads with status 200 — exactly what the LDJSON
//! transport would emit.

use crate::SacService;
use sac_obs::Span;
use sac_proto::{ProtoRequest, ProtoResponse, TransportError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Default for [`HttpConfig::max_body_bytes`].  Protocol documents are small
/// (the biggest legitimate ones are query batches); anything larger is
/// rejected *before* the body buffer is allocated, so a hostile
/// `Content-Length` cannot force a huge allocation.
const DEFAULT_MAX_BODY_BYTES: usize = 16 << 20;

/// Default for [`HttpConfig::read_timeout`].
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest request line or header line, and the most header lines, the
/// server will read: the head is bounded just like the body, so an endless
/// unterminated header cannot grow a `String` without limit either.
const MAX_HEAD_LINE_BYTES: u64 = 8 << 10;
const MAX_HEADER_COUNT: usize = 128;

/// Transport hardening knobs of the HTTP front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpConfig {
    /// Largest request body accepted; a bigger declared `Content-Length` is
    /// refused with `413` before any allocation
    /// ([`TransportError::BodyTooLarge`]).
    pub max_body_bytes: usize,
    /// Per-request socket read timeout: a connection that stalls mid-request
    /// (or idles on keep-alive) longer than this is answered `408` and
    /// closed ([`TransportError::ReadTimeout`]).  `None` waits forever.
    pub read_timeout: Option<Duration>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            read_timeout: Some(DEFAULT_READ_TIMEOUT),
        }
    }
}

/// Reads one CRLF-terminated head line with [`MAX_HEAD_LINE_BYTES`] enforced;
/// `Ok(None)` signals an over-long line (connection must close — the rest of
/// the line is unread, so the stream cannot be resynchronised).
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> std::io::Result<Option<usize>> {
    let n = reader.by_ref().take(MAX_HEAD_LINE_BYTES).read_line(line)?;
    if n as u64 >= MAX_HEAD_LINE_BYTES && !line.ends_with('\n') {
        return Ok(None);
    }
    Ok(Some(n))
}

/// One parsed HTTP request head plus its body.
struct HttpRequest {
    method: String,
    path: String,
    body: String,
    keep_alive: bool,
    /// Set when the head was readable but the request must be refused with
    /// this typed transport error (body unread — the connection cannot be
    /// resynchronised and must close after the error response).
    reject: Option<TransportError>,
}

/// Reads one HTTP/1.1 request; `Ok(None)` on a cleanly closed connection.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    config: &HttpConfig,
) -> std::io::Result<Option<HttpRequest>> {
    let mut reject: Option<TransportError> = None;
    let mut request_line = String::new();
    match read_head_line(reader, &mut request_line)? {
        Some(0) => return Ok(None),
        Some(_) => {}
        None => reject = Some(TransportError::HeadTooLarge),
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default().to_string();
    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut headers_seen = 0usize;
    while reject.is_none() {
        let mut header = String::new();
        match read_head_line(reader, &mut header)? {
            Some(0) => return Ok(None),
            Some(_) => {}
            None => {
                reject = Some(TransportError::HeadTooLarge);
                break;
            }
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers_seen += 1;
        if headers_seen > MAX_HEADER_COUNT {
            reject = Some(TransportError::HeadTooLarge);
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value.parse().map_err(|_| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "invalid Content-Length",
                        )
                    })?;
                }
                "connection" => {
                    keep_alive = !value.eq_ignore_ascii_case("close");
                }
                // Chunked (or any non-identity) transfer coding is not
                // implemented; reading on as if the body were fixed-length
                // would desynchronise the connection, so refuse and close.
                "transfer-encoding" if !value.eq_ignore_ascii_case("identity") => {
                    reject = Some(TransportError::UnsupportedTransferEncoding);
                }
                _ => {}
            }
        }
    }
    if content_length > config.max_body_bytes {
        reject = reject.or(Some(TransportError::BodyTooLarge {
            limit: config.max_body_bytes,
        }));
    }
    if reject.is_some() {
        // The body (if any) is deliberately left unread.
        return Ok(Some(HttpRequest {
            method,
            path,
            body: String::new(),
            keep_alive: false,
            reject,
        }));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok(Some(HttpRequest {
        method,
        path,
        body,
        keep_alive,
        reject: None,
    }))
}

/// Writes one fixed-length response with an explicit content type.  The
/// head and the body parts are assembled in `buf` (cleared first, reused
/// across a connection's requests) and leave in a single `write_all`: a
/// response split over several small writes would let Nagle's algorithm
/// hold its tail until the client's delayed ACK.
fn write_response_typed<W: Write>(
    writer: &mut W,
    buf: &mut Vec<u8>,
    status: &str,
    content_type: &str,
    body: &[&str],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let len: usize = body.iter().map(|part| part.len()).sum();
    buf.clear();
    write!(
        buf,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\nConnection: {connection}\r\n\r\n"
    )?;
    for part in body {
        buf.extend_from_slice(part.as_bytes());
    }
    writer.write_all(buf)?;
    writer.flush()
}

/// The reply side of one connection: the socket plus the response buffer
/// it reuses across keep-alive requests.
struct Replier<'a, W> {
    service: &'a SacService,
    writer: W,
    buf: Vec<u8>,
}

impl<W: Write> Replier<'_, W> {
    /// Writes one response, timing the socket write into
    /// `sac_transport_io_micros{transport="http",op="write"}` and counting
    /// the status into `sac_http_responses_total`.
    fn typed(
        &mut self,
        status: &str,
        content_type: &str,
        body: &[&str],
        keep_alive: bool,
    ) -> std::io::Result<()> {
        let obs = self.service.obs();
        let span = Span::start(&obs.http_write);
        let result = write_response_typed(
            &mut self.writer,
            &mut self.buf,
            status,
            content_type,
            body,
            keep_alive,
        );
        span.finish();
        obs.count_status(status);
        result
    }

    /// Writes one protocol reply line (JSON, newline appended here).
    fn line(&mut self, status: &str, reply: &str, keep_alive: bool) -> std::io::Result<()> {
        self.typed(status, "application/json", &[reply, "\n"], keep_alive)
    }
}

/// Serves one connection until it closes, an IO error occurs, the client
/// sends `{"cmd":"quit"}`, or a transport limit trips (oversize body →
/// `413`, stalled read → `408`; the typed refusals of
/// [`sac_proto::TransportError`]).
pub fn handle_connection_with(
    service: &SacService,
    stream: TcpStream,
    config: &HttpConfig,
) -> std::io::Result<()> {
    stream.set_read_timeout(config.read_timeout)?;
    // Each response is one write; with Nagle on, a reply written while an
    // earlier segment awaits its ACK would still wait for the client's
    // delayed ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut replier = Replier {
        service,
        writer: stream,
        buf: Vec::new(),
    };
    let encode = service.encode_options();
    loop {
        let obs = service.obs();
        let read_span = Span::start(&obs.http_read);
        let read = read_request(&mut reader, config);
        read_span.finish();
        let request = match read {
            Ok(Some(request)) => request,
            Ok(None) => break,
            // A stalled read (no complete request within the timeout) gets a
            // typed 408 and a close; mid-head data may be unread, so the
            // stream cannot be reused.
            Err(e) if is_timeout(&e) => {
                let timeout = config.read_timeout.unwrap_or_default();
                let error = TransportError::ReadTimeout { timeout };
                let reply = ProtoResponse::error(error.to_string()).encode_line(encode);
                let _ = replier.line(error.status_line(), &reply, false);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let keep_alive = request.keep_alive;
        if let Some(error) = request.reject {
            let reply = ProtoResponse::error(error.to_string()).encode_line(encode);
            replier.line(error.status_line(), &reply, false)?;
            return Ok(());
        }
        // The query string only matters for `/events`; stripping it here
        // keeps every other route match exact.
        let (path, query) = match request.path.split_once('?') {
            Some((path, query)) => (path, Some(query)),
            None => (request.path.as_str(), None),
        };
        match (request.method.as_str(), path) {
            ("POST", "/api") | ("POST", "/") => {
                let body = request.body.trim();
                if body.is_empty() {
                    let reply = ProtoResponse::error("empty request body").encode_line(encode);
                    replier.line("400 Bad Request", &reply, keep_alive)?;
                } else {
                    match service.handle_line(body) {
                        Some(reply) => replier.line("200 OK", &reply, keep_alive)?,
                        // quit: acknowledge and close this connection (the
                        // listener keeps accepting others).
                        None => {
                            replier.line("200 OK", "{\"ok\":true}", false)?;
                            return Ok(());
                        }
                    }
                }
            }
            ("GET", "/stats") => {
                let reply = service
                    .handle(&ProtoRequest::Stats)
                    .expect("stats never quits")
                    .encode_line(encode);
                replier.line("200 OK", &reply, keep_alive)?;
            }
            ("GET", "/metrics") => {
                // Prometheus scrapers expect the text exposition format, not
                // JSON — the one route with a different content type.
                let text = service.metrics_text();
                replier.typed("200 OK", "text/plain; version=0.0.4", &[&text], keep_alive)?;
            }
            ("GET", "/events") => {
                let since = query
                    .into_iter()
                    .flat_map(|q| q.split('&'))
                    .find_map(|pair| pair.strip_prefix("since="))
                    .map(str::parse::<u64>)
                    .transpose();
                match since {
                    Err(_) => {
                        let reply =
                            ProtoResponse::error("query parameter 'since' must be an integer")
                                .encode_line(encode);
                        replier.line("400 Bad Request", &reply, keep_alive)?;
                    }
                    Ok(since) => {
                        let reply = service
                            .handle(&ProtoRequest::Events {
                                since: since.unwrap_or(0),
                            })
                            .expect("events never quits")
                            .encode_line(encode);
                        replier.line("200 OK", &reply, keep_alive)?;
                    }
                }
            }
            ("GET", "/healthz") => {
                let engine = service.engine();
                // The WAL and replication sections append after the
                // historical fields so earlier bodies stay byte-identical.
                let wal = service.live().wal_stats().map_or(String::new(), |w| {
                    format!(
                        ",\"wal\":{{\"segments\":{},\"log_bytes\":{},\
                         \"last_checkpoint_epoch\":{},\"last_applied_epoch\":{},\
                         \"tail_segment\":{},\"tail_offset\":{}}}",
                        w.segments,
                        w.log_bytes,
                        w.last_checkpoint_epoch,
                        w.last_applied_epoch,
                        w.tail_segment,
                        w.tail_offset,
                    )
                });
                let replication = service.replica_status().map_or(String::new(), |status| {
                    format!(
                        ",\"replication\":{},\"status\":\"{}\"",
                        status.stats_reply().to_json(),
                        if status.degraded() { "degraded" } else { "ok" },
                    )
                });
                let body = format!(
                    "{{\"ok\":true,\"epoch\":{},\"uptime_secs\":{}{wal}{replication},\"role\":\"{}\"}}",
                    engine.epoch(),
                    service.uptime_secs(),
                    service.role().as_str(),
                );
                replier.line("200 OK", &body, keep_alive)?;
            }
            ("POST", _) | ("GET", _) => {
                let reply = ProtoResponse::error(format!("unknown route {}", request.path))
                    .encode_line(encode);
                replier.line("404 Not Found", &reply, keep_alive)?;
            }
            (method, _) => {
                let reply = ProtoResponse::error(format!("unsupported method {method}"))
                    .encode_line(encode);
                replier.line("405 Method Not Allowed", &reply, keep_alive)?;
            }
        }
        if !keep_alive {
            break;
        }
    }
    Ok(())
}

/// Whether an IO error is a socket read timeout (`WouldBlock` on Unix,
/// `TimedOut` on other platforms).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Accept loop with the default [`HttpConfig`].
pub fn serve_http(service: Arc<SacService>, listener: TcpListener) -> std::io::Result<()> {
    serve_http_with(service, listener, HttpConfig::default())
}

/// Accept loop: serves every incoming connection on its own thread, sharing
/// the service and the transport limits.  Runs until the listener errors
/// (the process normally ends it by exiting).
pub fn serve_http_with(
    service: Arc<SacService>,
    listener: TcpListener,
    config: HttpConfig,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let _ = handle_connection_with(&service, stream, &config);
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use sac_core::fixtures::{figure3, figure3_graph};
    use sac_engine::SacEngine;

    fn spawn_server() -> std::net::SocketAddr {
        spawn_server_with(HttpConfig::default())
    }

    fn spawn_server_with(config: HttpConfig) -> std::net::SocketAddr {
        let service = Arc::new(SacService::new(
            Arc::new(SacEngine::new(figure3_graph())),
            ServiceConfig::default(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = serve_http_with(service, listener, config);
        });
        addr
    }

    fn roundtrip(stream: &mut TcpStream, request: &str) -> (String, String) {
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
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
        (
            status.trim_end().to_string(),
            String::from_utf8(body).unwrap(),
        )
    }

    fn post(stream: &mut TcpStream, body: &str) -> (String, String) {
        roundtrip(
            stream,
            &format!(
                "POST /api HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn http_speaks_the_protocol_with_keep_alive() {
        let addr = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        // Two sequential requests on one connection (keep-alive).
        let (status, body) = post(&mut stream, &format!(r#"{{"q":{},"k":2}}"#, figure3::Q));
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains(r#""feasible":true"#), "got: {body}");
        let (status, body) = post(&mut stream, r#"{"cmd":"stats"}"#);
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains(r#""queries":1"#), "got: {body}");
        // Protocol-level errors come back as 200 + ok:false, like LDJSON.
        let (status, body) = post(&mut stream, r#"{"cmd":"frobnicate"}"#);
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains(r#""ok":false"#));

        // GET sugar routes.
        let (status, body) = roundtrip(&mut stream, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.starts_with(r#"{"ok":true,"epoch":1,"uptime_secs":"#));
        // Every engine mode reports its role; a plain service is a primary.
        assert!(
            body.trim_end().ends_with(r#""role":"primary"}"#),
            "got: {body}"
        );
        let (status, body) = roundtrip(&mut stream, "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains(r#""vertices":10"#));
        assert!(body.contains(r#""uptime_secs":"#), "got: {body}");
        // The metrics exposition covers the query served above and the
        // transport's own response counters.
        let (status, body) = roundtrip(&mut stream, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("# TYPE sac_queries_total counter"), "{body}");
        assert!(body.contains("sac_queries_total 1"), "{body}");
        assert!(
            body.contains("sac_http_responses_total{status=\"200\"}"),
            "{body}"
        );
        assert!(
            body.contains("sac_transport_io_micros_count{transport=\"http\",op=\"write\"}"),
            "{body}"
        );

        // Transport-level problems use HTTP statuses.
        let (status, _) = roundtrip(&mut stream, "GET /nope HTTP/1.1\r\nHost: test\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        let (status, _) = roundtrip(&mut stream, "DELETE /api HTTP/1.1\r\nHost: test\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
        let (status, _) = post(&mut stream, "");
        assert_eq!(status, "HTTP/1.1 400 Bad Request");

        // quit closes this connection; the server accepts new ones.
        let (status, body) = post(&mut stream, r#"{"cmd":"quit"}"#);
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "{\"ok\":true}\n");
        let mut fresh = TcpStream::connect(addr).unwrap();
        let (status, body) = post(&mut fresh, r#"{"cmd":"stats"}"#);
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains(r#""ok":true"#));
    }

    #[test]
    fn hostile_heads_are_refused_without_reading_the_body() {
        let addr = spawn_server();
        // A huge Content-Length must not allocate: 413 and close, instantly.
        let mut stream = TcpStream::connect(addr).unwrap();
        let (status, body) = roundtrip(
            &mut stream,
            "POST /api HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999999999\r\n\r\n",
        );
        assert_eq!(status, "HTTP/1.1 413 Payload Too Large");
        assert!(body.contains("byte limit"), "got: {body}");
        // Chunked bodies would desynchronise the framing: 501 and close.
        let mut stream = TcpStream::connect(addr).unwrap();
        let (status, body) = roundtrip(
            &mut stream,
            "POST /api HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n2a\r\n",
        );
        assert_eq!(status, "HTTP/1.1 501 Not Implemented");
        assert!(body.contains("Transfer-Encoding"));
        // The server is still healthy for well-formed clients.
        let mut fresh = TcpStream::connect(addr).unwrap();
        let (status, _) = post(&mut fresh, r#"{"cmd":"stats"}"#);
        assert_eq!(status, "HTTP/1.1 200 OK");
    }

    #[test]
    fn deeply_nested_bodies_get_an_error_reply() {
        let addr = spawn_server();
        // 100k unclosed arrays would overflow the connection thread's stack
        // in a parser without a depth cap, aborting the whole process.
        let mut stream = TcpStream::connect(addr).unwrap();
        let (status, body) = post(&mut stream, &"[".repeat(100_000));
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.starts_with(r#"{"ok":false,"error":"#), "got: {body}");
        assert!(
            body.contains("nesting deeper than 128 levels"),
            "got: {body}"
        );
        // The server keeps serving.
        let mut fresh = TcpStream::connect(addr).unwrap();
        let (status, body) = roundtrip(&mut fresh, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.starts_with(r#"{"ok":true"#), "got: {body}");
    }

    #[test]
    fn configured_body_limit_and_read_timeout_are_enforced() {
        // A tiny body limit: a modest batch is now oversize -> 413 + typed
        // message carrying the configured limit.
        let addr = spawn_server_with(HttpConfig {
            max_body_bytes: 64,
            read_timeout: Some(std::time::Duration::from_secs(5)),
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let big = format!(r#"{{"q":0,"k":2,"algorithm":"{}"}}"#, "x".repeat(100));
        let (status, body) = post(&mut stream, &big);
        assert_eq!(status, "HTTP/1.1 413 Payload Too Large");
        assert!(body.contains("64-byte limit"), "got: {body}");
        // In-limit requests still work on a fresh connection.
        let mut fresh = TcpStream::connect(addr).unwrap();
        let (status, _) = post(&mut fresh, r#"{"cmd":"stats"}"#);
        assert_eq!(status, "HTTP/1.1 200 OK");

        // A stalled client (incomplete request, then silence) gets a typed
        // 408 once the read timeout fires; keep-alive semantics for healthy
        // clients are untouched (exercised by the other tests).
        let addr = spawn_server_with(HttpConfig {
            max_body_bytes: 1024,
            read_timeout: Some(std::time::Duration::from_millis(100)),
        });
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"POST /api HTTP/1.1\r\nHost: t\r\n")
            .unwrap();
        let mut reader = BufReader::new(slow.try_clone().unwrap());
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert_eq!(status.trim_end(), "HTTP/1.1 408 Request Timeout");
    }

    /// Like [`roundtrip`] but also returns the `Content-Type` header value.
    fn roundtrip_with_type(stream: &mut TcpStream, request: &str) -> (String, String, String) {
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut content_length = 0usize;
        let mut content_type = String::new();
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            let lower = header.to_ascii_lowercase();
            if let Some(value) = lower.strip_prefix("content-length:").map(str::trim) {
                content_length = value.parse().unwrap();
            }
            if lower.starts_with("content-type:") {
                content_type = header.split_once(':').unwrap().1.trim().to_string();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (
            status.trim_end().to_string(),
            content_type,
            String::from_utf8(body).unwrap(),
        )
    }

    #[test]
    fn metrics_exposition_declares_the_prometheus_content_type() {
        let addr = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        let (status, content_type, body) =
            roundtrip_with_type(&mut stream, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(content_type, "text/plain; version=0.0.4");
        assert!(body.contains("# TYPE sac_queries_total counter"), "{body}");
        // JSON routes stay application/json.
        let (_, content_type, _) =
            roundtrip_with_type(&mut stream, "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n");
        assert_eq!(content_type, "application/json");
    }

    #[test]
    fn events_endpoint_pages_the_event_log() {
        let addr = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        // No events yet: an empty page with a zero cursor.
        let (status, body) = roundtrip(&mut stream, "GET /events HTTP/1.1\r\nHost: test\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(
            body.starts_with(r#"{"ok":true,"next_seq":0,"missed":0,"events":[]}"#),
            "got: {body}"
        );
        // A commit publishes an epoch_swap event.
        post(
            &mut stream,
            &format!(
                r#"{{"cmd":"add_edge","u":{},"v":{}}}"#,
                figure3::I,
                figure3::F
            ),
        );
        post(&mut stream, r#"{"cmd":"commit"}"#);
        let (status, body) = roundtrip(&mut stream, "GET /events HTTP/1.1\r\nHost: test\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains(r#""kind":"epoch_swap""#), "got: {body}");
        assert!(body.contains(r#""next_seq":1"#), "got: {body}");
        // Cursoring past everything returns an empty page; the LDJSON
        // command serves the identical payload.
        let (_, body) = roundtrip(
            &mut stream,
            "GET /events?since=1 HTTP/1.1\r\nHost: test\r\n\r\n",
        );
        assert!(body.contains(r#""events":[]"#), "got: {body}");
        let (_, ldjson) = post(&mut stream, r#"{"cmd":"events","since":1}"#);
        assert_eq!(body, ldjson);
        // A malformed cursor is a 400, not a panic.
        let (status, _) = roundtrip(
            &mut stream,
            "GET /events?since=soon HTTP/1.1\r\nHost: test\r\n\r\n",
        );
        assert_eq!(status, "HTTP/1.1 400 Bad Request");
    }

    /// A writer that records its bytes and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_one_write() {
        let service = SacService::new(
            Arc::new(SacEngine::new(figure3_graph())),
            ServiceConfig::default(),
        );
        let mut replier = Replier {
            service: &service,
            writer: CountingWriter::default(),
            buf: Vec::new(),
        };
        let reply = service
            .handle_line(&format!(r#"{{"q":{},"k":2}}"#, figure3::Q))
            .unwrap();
        replier.line("200 OK", &reply, true).unwrap();
        assert_eq!(replier.writer.writes, 1);
        let expected = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\n\r\n{reply}\n",
            reply.len() + 1
        );
        assert_eq!(
            String::from_utf8(replier.writer.bytes.clone()).unwrap(),
            expected
        );

        let text = service.metrics_text();
        assert!(text.len() > 1024, "exposition is multi-kilobyte");
        replier.writer.bytes.clear();
        replier
            .typed("200 OK", "text/plain; version=0.0.4", &[&text], false)
            .unwrap();
        assert_eq!(replier.writer.writes, 2);
        let written = String::from_utf8(replier.writer.bytes.clone()).unwrap();
        assert!(written.starts_with(&format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            text.len()
        )));
        assert!(written.ends_with(&text));
    }

    #[test]
    fn keep_alive_requests_do_not_stall_on_delayed_acks() {
        let addr = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..50 {
            let (status, _) = post(&mut stream, r#"{"cmd":"stats"}"#);
            assert_eq!(status, "HTTP/1.1 200 OK");
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "50 keep-alive requests took {elapsed:?}"
        );
    }

    #[test]
    fn live_updates_persist_across_connections() {
        let addr = spawn_server();
        let mut a = TcpStream::connect(addr).unwrap();
        post(
            &mut a,
            &format!(
                r#"{{"cmd":"add_edge","u":{},"v":{}}}"#,
                figure3::I,
                figure3::F
            ),
        );
        let (_, commit) = post(&mut a, r#"{"cmd":"commit"}"#);
        assert!(commit.contains(r#""epoch":2"#), "got: {commit}");
        drop(a);
        // A different connection sees the published epoch.
        let mut b = TcpStream::connect(addr).unwrap();
        let (_, body) = post(&mut b, &format!(r#"{{"q":{},"k":2}}"#, figure3::I));
        assert!(body.contains(r#""feasible":true"#), "got: {body}");
        assert!(body.contains(r#""epoch":2"#));
    }
}
