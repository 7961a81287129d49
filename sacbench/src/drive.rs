//! Closed-loop HTTP traffic: each connection sends its next request when the
//! previous reply arrives.  Replies are kept and checked after the loop, so
//! checking adds no think time.

use crate::server::{Connection, Reply};
use crate::workload::{MutationStream, QueryCase};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What a request was.
#[derive(Debug, Clone)]
pub enum Op {
    /// Index into the workload's query cases.
    Query(usize),
    Mutation,
    Commit,
}

/// One request and its reply.
#[derive(Debug)]
pub struct Sample {
    pub op: Op,
    pub sent: Instant,
    pub rtt: Duration,
    /// Sent inside the measurement window (after the warm-up).
    pub measured: bool,
    pub reply: Result<Reply, String>,
    /// Whether the reply passed its check (set after the loop).
    pub ok: bool,
}

/// The warm-up and measurement windows of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub measure_from: Instant,
    pub until: Instant,
}

impl Window {
    pub fn starting_now(warmup: Duration, measure: Duration) -> Window {
        let now = Instant::now();
        Window {
            measure_from: now + warmup,
            until: now + warmup + measure,
        }
    }

    fn open(&self) -> bool {
        Instant::now() < self.until
    }
}

/// Sends one request on `conn` and times it.  The kept reply stops before
/// the member list: the checks read only the fields ahead of it, and a
/// giant community's members would otherwise hold ~200 KB per reply.
pub fn send(conn: &mut Connection, op: Op, body: &str, window: &Window) -> Sample {
    let sent = Instant::now();
    let reply = conn.post(body);
    let rtt = sent.elapsed();
    let reply = reply.map_err(|e| e.to_string()).map(|mut reply| {
        if let Some(at) = reply.body.find(r#","members":"#) {
            reply.body.truncate(at);
            reply.body.push('}');
        }
        reply
    });
    Sample {
        op,
        sent,
        rtt,
        measured: sent >= window.measure_from && sent < window.until,
        reply,
        ok: false,
    }
}

/// Cycles through `order` of `cases` on one connection until the window
/// closes (or the connection fails).
pub fn read_loop(
    addr: SocketAddr,
    cases: &[QueryCase],
    order: &[usize],
    window: Window,
) -> Vec<Sample> {
    let mut conn = match Connection::open(addr) {
        Ok(conn) => conn,
        Err(e) => return vec![broken(Op::Query(order[0]), e)],
    };
    let mut samples = Vec::new();
    for &case in order.iter().cycle() {
        if !window.open() {
            break;
        }
        let sample = send(&mut conn, Op::Query(case), &cases[case].body, &window);
        let failed = sample.reply.is_err();
        samples.push(sample);
        if failed {
            break;
        }
    }
    samples
}

/// Sends batches of mutations, each followed by a commit, until the window
/// closes; a batch that started is always committed.  Returns the samples
/// and the connection for the follow-up requests.
pub fn write_loop(
    addr: SocketAddr,
    stream: &mut MutationStream<'_>,
    window: Window,
) -> (Vec<Sample>, Option<Connection>) {
    let mut conn = match Connection::open(addr) {
        Ok(conn) => conn,
        Err(e) => return (vec![broken(Op::Commit, e)], None),
    };
    let mut samples = Vec::new();
    while window.open() {
        for m in stream.next_batch() {
            samples.push(send(&mut conn, Op::Mutation, &m.body(), &window));
        }
        samples.push(send(&mut conn, Op::Commit, r#"{"cmd":"commit"}"#, &window));
        if samples.iter().rev().take(5).any(|s| s.reply.is_err()) {
            return (samples, None);
        }
    }
    (samples, Some(conn))
}

fn broken(op: Op, e: std::io::Error) -> Sample {
    Sample {
        op,
        sent: Instant::now(),
        rtt: Duration::ZERO,
        measured: true,
        reply: Err(format!("connect: {e}")),
        ok: false,
    }
}
