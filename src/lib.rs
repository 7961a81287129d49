//! # sackit
//!
//! Spatial-aware community search (SAC search) over large spatial graphs — a
//! from-scratch Rust reproduction of
//!
//! > Fang, Cheng, Li, Luo, Hu. *Effective Community Search over Large Spatial
//! > Graphs.* PVLDB 10(6), pp. 709–720, VLDB 2017.
//!
//! This crate is a thin facade re-exporting the workspace members so downstream
//! users (and the examples/integration tests in this repository) can depend on a
//! single crate:
//!
//! * [`geom`] — geometry substrate (points, circles, minimum covering circles,
//!   quadtree anchor cells);
//! * [`graph`] — spatial-graph substrate (CSR graphs, k-cores, traversal, IO);
//! * [`core`] — the SAC search algorithms, baselines and quality metrics;
//! * [`data`] — synthetic dataset and workload generators;
//! * [`eval`] — the experiment harness reproducing the paper's tables and figures;
//! * [`engine`] — the concurrent, cache-aware query-serving engine with
//!   epoch-published snapshots and the budget planner;
//! * [`proto`] — the typed, transport-agnostic wire protocol (LDJSON codec);
//! * [`live`] — the dynamic-graph write front (incremental k-core maintenance,
//!   delta commits) plus the protocol service and the `sac-serve`/`sac-http`
//!   binaries.
//!
//! The most common entry points are re-exported at the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use sackit::{app_inc, exact_plus, fixtures};
//!
//! let graph = fixtures::figure3_graph();
//! let q = fixtures::figure3::Q;
//!
//! // Optimal spatial-aware community for q with minimum degree 2.
//! let optimal = exact_plus(&graph, q, 2, 1e-3).unwrap().unwrap();
//! // Fast 2-approximation.
//! let approx = app_inc(&graph, q, 2).unwrap().unwrap();
//!
//! assert!(optimal.radius() <= approx.community.radius() + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Geometry substrate (re-export of [`sac_geom`]).
pub use sac_geom as geom;

/// Graph substrate (re-export of [`sac_graph`]).
pub use sac_graph as graph;

/// SAC search algorithms, baselines and metrics (re-export of [`sac_core`]).
pub use sac_core as core;

/// Dataset and workload generators (re-export of [`sac_data`]).
pub use sac_data as data;

/// Experiment harness (re-export of [`sac_eval`]).
pub use sac_eval as eval;

/// Query-serving engine (re-export of [`sac_engine`]).
pub use sac_engine as engine;

/// Typed wire protocol (re-export of [`sac_proto`]).
pub use sac_proto as proto;

/// Dynamic-graph write front (re-export of [`sac_live`]).
pub use sac_live as live;

pub use sac_core::{
    app_acc, app_fast, app_inc, baselines, exact, exact_plus, fixtures, metrics, range_only,
    theta_sac, Algorithm, Community, SacError, SacOutcome, SacQuery, SearchContext,
};
pub use sac_engine::{
    LatencyTier, Plan, QueryBudget, QueryTrace, SacEngine, SacRequest, SacResponse,
};
pub use sac_geom::{Circle, Point};
pub use sac_graph::{DynamicGraph, Graph, GraphBuilder, SpatialGraph, VertexId};
pub use sac_live::{CommitReport, LiveEngine, SacService, ServiceConfig};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_usable() {
        let g = crate::fixtures::figure3_graph();
        let c = crate::exact(&g, crate::fixtures::figure3::Q, 2)
            .unwrap()
            .unwrap();
        assert_eq!(c.len(), 3);
        let stats = crate::graph::GraphStats::compute(g.graph());
        assert_eq!(stats.vertices, 10);
    }
}
