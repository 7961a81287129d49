//! # sac-graph
//!
//! Spatial-graph substrate for spatial-aware community (SAC) search.
//!
//! This crate provides the data model of Fang et al. (VLDB 2017): an undirected
//! **geo-social graph** `G(V, E)` in which every vertex carries a two-dimensional
//! location, together with the graph machinery every SAC algorithm is built on:
//!
//! * a compact CSR (compressed sparse row) adjacency representation ([`Graph`]) and
//!   a builder that deduplicates edges and drops self-loops ([`GraphBuilder`]),
//! * the spatial view pairing the graph with vertex locations and a grid index for
//!   circular range and nearest-neighbour queries ([`SpatialGraph`]),
//! * the O(m) k-core decomposition of Batagelj & Zaversnik ([`core_decomposition`])
//!   and the connected-k-core ("k-ĉore") queries the paper's algorithms use
//!   ([`connected_kcore`], [`KCoreSolver`]),
//! * traversal helpers (BFS, connected components, induced-subgraph degree checks),
//! * plain-text loaders/writers for SNAP-style edge lists and location files
//!   ([`io`]),
//! * summary statistics used to reproduce Table 4 of the paper ([`GraphStats`]).
//!
//! ## Example
//!
//! ```
//! use sac_graph::{GraphBuilder, SpatialGraph, connected_kcore};
//! use sac_geom::Point;
//!
//! // A triangle plus a pendant vertex.
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(0, 2);
//! b.add_edge(2, 3);
//! let graph = b.build();
//!
//! let positions = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(1.0, 0.0),
//!     Point::new(0.5, 1.0),
//!     Point::new(5.0, 5.0),
//! ];
//! let sg = SpatialGraph::new(graph, positions).unwrap();
//!
//! // The 2-core containing vertex 0 is the triangle {0, 1, 2}.
//! let core = connected_kcore(sg.graph(), 0, 2).unwrap();
//! assert_eq!(core.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod builder;
mod core_decomp;
mod dynamic;
mod error;
mod graph;
pub mod io;
mod kcore;
mod spatial;
mod stats;
mod sweep;
mod traversal;

pub use builder::GraphBuilder;
pub use core_decomp::{core_decomposition, CoreDecomposition};
pub use dynamic::{BatchChange, BatchOp, BatchStrategy, DynamicGraph, EdgeChange};
pub use error::GraphError;
pub use graph::{Graph, VertexId};
pub use kcore::{connected_kcore, KCoreSolver};
pub use spatial::SpatialGraph;
pub use stats::{degree_histogram, GraphStats};
pub use sweep::{RadiusSweepSolver, SweepStats};
pub use traversal::{
    bfs_component, connected_components, is_connected_subset, min_degree_in_subset, VertexSet,
};
