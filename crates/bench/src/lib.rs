//! Shared fixtures for the gated benchmark runners in `examples/bench_*.rs`.
//!
//! Every runner uses the same small surrogate datasets so that runs are quick
//! and comparable.  The absolute numbers are not meant to match the paper's
//! testbed; paper-figure timing lives in `sac-eval` (`fig9`–`fig14`,
//! `table4`), and the end-to-end serving benchmark in `sacbench/`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sac_data::{select_query_vertices, DatasetKind, DatasetSpec};
use sac_engine::{SacEngine, SacRequest};
use sac_graph::{SpatialGraph, VertexId};
use std::path::PathBuf;

/// Scale factor applied to the paper's dataset sizes for the benchmark suite.
pub const BENCH_SCALE: f64 = 0.01;

/// Number of query vertices benchmarked per dataset.
pub const BENCH_QUERIES: usize = 5;

/// A benchmark-ready dataset: the surrogate graph plus sampled query vertices.
pub struct BenchDataset {
    /// Which Table 4 dataset this mirrors.
    pub kind: DatasetKind,
    /// The surrogate spatial graph.
    pub graph: SpatialGraph,
    /// Query vertices with core number ≥ 4.
    pub queries: Vec<VertexId>,
}

impl BenchDataset {
    /// Short dataset name for bench ids.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }
}

/// Loads a scaled surrogate of `kind` with deterministic query vertices.
pub fn bench_dataset(kind: DatasetKind) -> BenchDataset {
    bench_dataset_scaled(kind, BENCH_SCALE)
}

/// Loads a surrogate of `kind` at a custom scale.
pub fn bench_dataset_scaled(kind: DatasetKind, scale: f64) -> BenchDataset {
    let spec = DatasetSpec::scaled(kind, scale);
    let graph = spec.generate();
    let mut rng = StdRng::seed_from_u64(0xBE7C ^ spec.seed);
    let queries = select_query_vertices(graph.graph(), BENCH_QUERIES, 4, &mut rng);
    BenchDataset {
        kind,
        graph,
        queries,
    }
}

/// The datasets the radius-sweep runner iterates over (a representative subset
/// of Table 4 keeps runtimes reasonable; add more kinds here to sweep the full
/// Table 4 list).
pub fn bench_kinds() -> Vec<DatasetKind> {
    vec![DatasetKind::Brightkite]
}

/// Probe-loop fixtures for the radius-sweep runner
/// (`examples/bench_radius_sweep.rs` → `BENCH_radius_sweep.json`).
pub mod radius_probe {
    use sac_core::SearchContext;
    use sac_graph::{SpatialGraph, VertexId};

    /// Probe counts benchmarked per query.
    pub const PROBE_COUNTS: [usize; 3] = [10, 100, 1000];

    /// A deterministic schedule of `n` radii in `(0, r_max)` built from the
    /// paper's probe pattern: feasibility **binary searches** (`AppFast` runs
    /// one per query, `AppAcc` one per anchor cell), each homing in on a
    /// different low-discrepancy target radius.  Probes within a search are
    /// non-monotone (roughly half move the radius upward) but converge
    /// geometrically.  Unlike the algorithms, the schedule chains its
    /// searches on one sweep (each `AppAcc` anchor begins its own), so every
    /// new search re-ascends from a low radius to `r_max / 2` — a harder
    /// pattern for the incremental peel than any production probe loop.
    pub fn search_schedule(r_max: f64, n: usize) -> Vec<f64> {
        let mut radii = Vec::with_capacity(n);
        if r_max.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            // Degenerate span (colocated k-ĉore, r_max = 0, or NaN): the
            // binary-search emulation below would never push a probe; every
            // probe is at radius 0.
            radii.resize(n, 0.0);
            return radii;
        }
        let mut search = 0u64;
        while radii.len() < n {
            search += 1;
            // Golden-ratio sequence: deterministic, well-spread targets.
            let target = r_max * ((search as f64 * 0.618_033_988_749_894_9) % 1.0);
            let (mut lo, mut hi) = (0.0f64, r_max);
            while hi - lo > 1e-3 * r_max && radii.len() < n {
                let r = 0.5 * (lo + hi);
                radii.push(r);
                if r > target {
                    hi = r;
                } else {
                    lo = r;
                }
            }
        }
        radii
    }

    /// The probe context of one query: the k-ĉore and radius bound `AppFast`
    /// would binary-search over.
    pub struct ProbeCase {
        /// The query vertex.
        pub q: VertexId,
        /// Minimum-degree constraint.
        pub k: u32,
        /// The k-ĉore containing `q`, sorted by id.
        pub members: Vec<VertexId>,
        /// Largest probe radius (distance of the farthest k-ĉore vertex).
        pub r_max: f64,
    }

    /// Builds the probe case for `(q, k)`; `None` when `q` is in no k-core.
    pub fn probe_case(g: &SpatialGraph, q: VertexId, k: u32) -> Option<ProbeCase> {
        let ctx = SearchContext::new(g, q, k).ok()?;
        let members = ctx.global_kcore_of_q()?;
        let q_pos = g.position(q);
        let r_max = members
            .iter()
            .map(|&v| g.position(v).distance(q_pos))
            .fold(0.0f64, f64::max);
        Some(ProbeCase {
            q,
            k,
            members,
            r_max,
        })
    }
}

/// A fresh scratch directory under the system temp dir for one runner
/// (`runner`) and configuration (`tag`); any leftover from an earlier run
/// with the same process id is removed.
pub fn temp_dir(runner: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sac-bench-{runner}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The comparison fingerprint: everything "bit-identical" must cover —
/// epoch, core numbers, position bits, sample query answers.
pub type Fingerprint = (u64, Vec<u32>, Vec<(u64, u64)>, Vec<Option<Vec<u32>>>);

/// Fingerprints `engine`'s current epoch: its core numbers, the bits of every
/// position and the `k = 3` answers of ~24 evenly spaced query vertices.
pub fn fingerprint(engine: &SacEngine) -> Fingerprint {
    let snapshot = engine.snapshot();
    let n = snapshot.num_vertices() as u32;
    let answers = (0..n)
        .step_by((n as usize / 24).max(1))
        .map(|q| {
            engine
                .execute(
                    &SacRequest::builder(q, 3)
                        .id(u64::from(q))
                        .build()
                        .expect("valid budget"),
                )
                .community()
                .map(|c| c.members().to_vec())
        })
        .collect();
    (
        engine.epoch(),
        engine.decomposition().core_numbers().to_vec(),
        snapshot
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect(),
        answers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_datasets_are_usable() {
        for kind in bench_kinds() {
            let d = bench_dataset(kind);
            assert!(d.graph.num_vertices() >= 500);
            assert!(!d.queries.is_empty());
            assert!(!d.name().is_empty());
        }
    }
}
