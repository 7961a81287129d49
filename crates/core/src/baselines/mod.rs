//! The community-retrieval baselines the paper compares SAC search against
//! (Section 5.2.2, Figure 10):
//!
//! * [`global_search`] — `Global` (Sozio & Gionis, KDD 2010): the connected k-core
//!   containing the query vertex.  A community-search method that ignores
//!   locations entirely.
//! * [`local_search`] — `Local` (Cui et al., SIGMOD 2014): local expansion from the
//!   query vertex until a minimum-degree-k community appears.  Also
//!   location-oblivious, but the expansion stays near `q` in the graph topology,
//!   so its communities are smaller than `Global`'s.
//! * [`geo_modularity`] — `GeoModu` (Chen et al., IJGIS 2015): community
//!   *detection* over the whole graph by weighted Louvain modularity maximisation,
//!   where edge weights decay with distance as `1 / d^µ` (µ ∈ {1, 2}).  Given a
//!   query, the detected cluster containing it is reported.

mod geo_modu;
mod global;
mod local;
mod louvain;

pub use geo_modu::{geo_modularity, GeoModularity};
pub use global::global_search;
pub(crate) use global::global_search_with_ctx;
pub use local::local_search;
pub(crate) use local::local_search_with_ctx;
pub use louvain::{louvain, LouvainResult, WeightedAdjacency};
