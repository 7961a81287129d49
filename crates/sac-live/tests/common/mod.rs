//! Helpers shared by the durability, replication and failover suites.
//!
//! Each integration-test binary compiles its own copy of this module and
//! uses only part of it.
#![allow(dead_code)]

use sac_engine::{SacEngine, SacRequest};
use sac_geom::Point;
use sac_graph::{GraphBuilder, SpatialGraph};
use sac_live::{Durability, LiveEngine, RetryPolicy, SyncPolicy};
use std::path::Path;
use std::time::{Duration, Instant};

pub const N: u32 = 32;

/// Positions in four well-separated clusters.
pub fn positions(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let cluster = i % 4;
            let (cx, cy) = ((cluster % 2) as f64 * 100.0, (cluster / 2) as f64 * 100.0);
            Point::new(
                cx + (i / 4 % 4) as f64 + 0.3 * (i % 3) as f64,
                cy + (i / 16) as f64,
            )
        })
        .collect()
}

pub fn spatial(initial: &[(u32, u32)], n: u32) -> SpatialGraph {
    let mut builder = GraphBuilder::new();
    builder.ensure_vertex(n - 1);
    builder.add_edges(initial.iter().copied().filter(|(u, v)| u != v));
    SpatialGraph::new(builder.build(), positions(n as usize)).unwrap()
}

pub fn durability(dir: &Path) -> Durability {
    Durability {
        dir: dir.to_path_buf(),
        sync: SyncPolicy::Never,
        checkpoint_every: 0, // manual only: the log keeps every record
    }
}

/// A retry policy tight enough that fault-driven reconnects cost
/// milliseconds, not the production-scale backoff.
pub fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(5),
        max: Duration::from_millis(50),
        multiplier: 2.0,
        jitter: 0.2,
        attempt_timeout: Duration::from_secs(2),
    }
}

/// Everything "bit-identical" means, captured from an engine.
#[derive(Clone, PartialEq, Debug)]
pub struct StateFingerprint {
    epoch: u64,
    cores: Vec<u32>,
    position_bits: Vec<(u64, u64)>,
    answers: Vec<Option<Vec<u32>>>,
}

pub fn fingerprint(engine: &SacEngine) -> StateFingerprint {
    let snapshot = engine.snapshot();
    let n = snapshot.num_vertices() as u32;
    let mut answers = Vec::new();
    for q in (0..n).step_by(5) {
        for k in 1..4u32 {
            let response =
                engine.execute(&SacRequest::builder(q, k).id(u64::from(q)).build().unwrap());
            answers.push(response.community().map(|c| c.members().to_vec()));
        }
    }
    StateFingerprint {
        epoch: engine.epoch(),
        cores: engine.decomposition().core_numbers().to_vec(),
        position_bits: snapshot
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect(),
        answers,
    }
}

/// Applies stream op `i` to the live front; returns whether it buffered
/// a mutation.
pub fn apply_op(live: &LiveEngine, u: u32, v: u32, op: u32) -> bool {
    match op {
        7 => {
            let p = Point::new((u % 9) as f64 * 23.0, (v % 9) as f64 * 17.0);
            live.move_vertex(u % N, p).unwrap()
        }
        8 => {
            live.add_vertex(Point::new((u % 11) as f64, (v % 11) as f64))
                .unwrap();
            true
        }
        _ if u != v => live.add_edge(u, v).unwrap().applied,
        _ => false,
    }
}

/// Polls `done` until it returns true or `deadline` elapses.
pub fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    done()
}
