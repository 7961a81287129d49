//! # sac-core
//!
//! Spatial-aware community (SAC) search algorithms — a from-scratch Rust
//! implementation of
//!
//! > Fang, Cheng, Li, Luo, Hu. *Effective Community Search over Large Spatial
//! > Graphs.* PVLDB 10(6), 2017.
//!
//! Given a spatial graph `G`, a query vertex `q` and a minimum degree `k`, SAC
//! search returns a connected subgraph containing `q` in which every vertex has
//! degree at least `k` and whose members lie in a minimum covering circle (MCC) of
//! the smallest possible radius.
//!
//! ## Algorithms
//!
//! | Function | Paper | Approximation ratio | Time complexity |
//! |---|---|---|---|
//! | [`exact`] | Algorithm 1 (`Exact`) | 1 (optimal) | `O(m · n³)` |
//! | [`app_inc`] | Algorithm 2 (`AppInc`) | 2 | `O(m · n)` |
//! | [`app_fast`] | Algorithm 3 (`AppFast`) | `2 + εF` | `O(m · min{n, log 1/εF})` |
//! | [`app_acc`] | Algorithm 4 (`AppAcc`) | `1 + εA` | `O(m/εA² · min{n, log 1/εA})` |
//! | [`exact_plus`] | Algorithm 5 (`Exact+`) | 1 (optimal) | `O(m/εA² · min{n, log 1/εA} + m·|F1|³)` |
//! | [`theta_sac`] | §3 (`θ-SAC`) | n/a | `O(m)` |
//!
//! The approximation ratio is the radius of the returned community's MCC divided by
//! the radius of the optimal community's MCC.
//!
//! ## Unified algorithm interface
//!
//! Every algorithm (and the baselines) also implements the [`CommunitySearch`]
//! trait — `run(&mut SearchContext, &SacQuery) -> Result<SacOutcome, SacError>` —
//! and declares an [`AlgorithmProfile`] (proven ratio band, cost class,
//! θ-support).  The [`AlgorithmRegistry`] collects them by name; the
//! `sac-engine` planner selects over the registered profiles, so a new
//! algorithm becomes servable by registering it, with no dispatch-site edits.
//!
//! ## Baselines
//!
//! The [`baselines`] module implements the community-retrieval methods the paper
//! compares against: `Global` (Sozio & Gionis), `Local` (Cui et al.) and
//! `GeoModu` (geo-modularity Louvain, Chen et al.), plus the structure-free
//! "range-only" communities used in Section 5.2.2.
//!
//! ## Metrics
//!
//! The [`metrics`] module provides the community-quality measures used throughout
//! the paper's evaluation: MCC radius, average pairwise distance (`distPr`),
//! average member degree, community Jaccard similarity (CJS) and community area
//! overlap (CAO).
//!
//! ## Example
//!
//! ```
//! use sac_core::{app_inc, exact_plus, fixtures};
//!
//! // The paper's running example (Figure 3): query vertex Q with k = 2.
//! let graph = fixtures::figure3_graph();
//! let q = fixtures::figure3::Q;
//!
//! let optimal = exact_plus(&graph, q, 2, 1e-3).unwrap().unwrap();
//! let approx = app_inc(&graph, q, 2).unwrap().unwrap();
//!
//! // AppInc is 2-approximate: its MCC radius is at most twice the optimum.
//! assert!(approx.community.mcc.radius <= 2.0 * optimal.mcc.radius + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod app_acc;
mod app_fast;
mod app_inc;
pub mod baselines;
mod common;
mod exact;
mod exact_plus;
pub mod fixtures;
pub mod metrics;
mod result;
mod theta;

pub use algorithm::{
    AlgorithmProfile, AlgorithmRegistry, AppAccSearch, AppFastSearch, AppIncSearch,
    CommunitySearch, CostClass, ExactPlusSearch, ExactSearch, GlobalBaselineSearch,
    LocalBaselineSearch, RatioGuarantee, SacOutcome, SacQuery, ThetaSacSearch,
};
pub use app_acc::{app_acc, app_acc_detailed, AppAccDetail};
pub use app_fast::{app_fast, AppFastOutcome};
pub use app_inc::{app_inc, AppIncOutcome};
pub use common::SearchContext;
pub use exact::exact;
pub use exact_plus::{exact_plus, exact_plus_detailed, ExactPlusDetail};
pub use result::{Community, SacError};
pub use theta::{range_only, theta_sac};

/// Default value of the `AppFast` accuracy parameter `εF` used by the paper's
/// experiments (Table 5).
pub const DEFAULT_EPS_F: f64 = 0.5;

/// Default value of the `AppAcc` accuracy parameter `εA` used by the paper's
/// experiments (Table 5).
pub const DEFAULT_EPS_A: f64 = 0.5;

/// Value of `εA` the paper uses inside `Exact+` for its exact-algorithm
/// experiments (Figure 12(f)–(j)).
pub const EXACT_PLUS_EPS_A: f64 = 1e-4;
