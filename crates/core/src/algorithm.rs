//! The closed algorithm set: one enum, one query record, one `run`.
//!
//! The paper's algorithms are also exposed as free functions with historically
//! divergent signatures (`app_fast` takes `εF`, `app_acc` takes `εA`,
//! `theta_sac` takes `θ`, `app_inc` takes nothing).  This module gives every
//! algorithm a single uniform shape:
//!
//! * [`SacQuery`] — a validated query record (vertex, degree bound, optional
//!   accuracy/radius parameters);
//! * [`Algorithm`] — the closed set of servable algorithms: the paper's five
//!   SAC algorithms (Table 3), the exhaustive `Exact` and the `Global`/`Local`
//!   structure-only baselines.  [`Algorithm::run`] executes one inside a
//!   [`SearchContext`] and returns a [`SacOutcome`].

use crate::app_acc::validate_eps_a;
use crate::app_fast::{app_fast_with_ctx, validate_eps_f};
use crate::common::SearchContext;
use crate::theta::validate_theta;
use crate::{Community, SacError, DEFAULT_EPS_A, DEFAULT_EPS_F, EXACT_PLUS_EPS_A};
use sac_graph::VertexId;

/// One SAC query in the uniform algorithm interface: the query vertex, the
/// minimum-degree constraint, and the optional per-algorithm parameters.
///
/// Parameters are *optional*: an algorithm that needs one falls back to the
/// paper's experimental default when it is unset ([`DEFAULT_EPS_A`],
/// [`DEFAULT_EPS_F`]), and ignores parameters it does not read.  Construction
/// is builder-style and [`SacQuery::validate`] applies the typed checks once,
/// up front, instead of deep inside the algorithm arms.
///
/// ```
/// use sac_core::{fixtures, Algorithm, SacQuery, SearchContext};
///
/// let graph = fixtures::figure3_graph();
/// let query = SacQuery::new(fixtures::figure3::Q, 2).with_eps_f(0.5);
/// query.validate().unwrap();
///
/// let mut ctx = SearchContext::new(&graph, query.q, query.k).unwrap();
/// let outcome = Algorithm::AppFast.run(&mut ctx, &query).unwrap();
/// assert!(outcome.community.unwrap().contains(fixtures::figure3::Q));
///
/// // Typed validation errors are produced at query construction time.
/// let bad = SacQuery::new(fixtures::figure3::Q, 2).with_theta(-1.0);
/// assert!(bad.validate().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SacQuery {
    /// Query vertex.
    pub q: VertexId,
    /// Minimum degree constraint.
    pub k: u32,
    eps_a: Option<f64>,
    eps_f: Option<f64>,
    theta: Option<f64>,
}

impl SacQuery {
    /// A query for vertex `q` with minimum degree `k` and no explicit
    /// parameters (algorithms use their documented defaults).
    pub fn new(q: VertexId, k: u32) -> Self {
        SacQuery {
            q,
            k,
            eps_a: None,
            eps_f: None,
            theta: None,
        }
    }

    /// Sets the `AppAcc`/`Exact+` accuracy parameter `εA ∈ (0, 1)`.
    pub fn with_eps_a(mut self, eps_a: f64) -> Self {
        self.eps_a = Some(eps_a);
        self
    }

    /// Sets the `AppFast` accuracy parameter `εF ≥ 0`.
    pub fn with_eps_f(mut self, eps_f: f64) -> Self {
        self.eps_f = Some(eps_f);
        self
    }

    /// Sets the θ radius constraint (the community must lie inside
    /// `O(q, θ)`); required by θ-capable algorithms.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = Some(theta);
        self
    }

    /// The `εA` parameter, falling back to `default` when unset.
    pub fn eps_a_or(&self, default: f64) -> f64 {
        self.eps_a.unwrap_or(default)
    }

    /// The `εA` parameter, falling back to the paper's [`DEFAULT_EPS_A`].
    pub fn eps_a(&self) -> f64 {
        self.eps_a_or(DEFAULT_EPS_A)
    }

    /// The `εF` parameter, falling back to `default` when unset.
    pub fn eps_f_or(&self, default: f64) -> f64 {
        self.eps_f.unwrap_or(default)
    }

    /// The `εF` parameter, falling back to the paper's [`DEFAULT_EPS_F`].
    pub fn eps_f(&self) -> f64 {
        self.eps_f_or(DEFAULT_EPS_F)
    }

    /// The θ radius constraint, when set.
    pub fn theta(&self) -> Option<f64> {
        self.theta
    }

    /// Validates every parameter that was explicitly set, with typed errors:
    /// `εA` must lie in `(0, 1)`, `εF` must be finite and `≥ 0`, and θ must
    /// be finite and `> 0` ([`SacError::InvalidTheta`]).
    pub fn validate(&self) -> Result<(), SacError> {
        if let Some(eps_a) = self.eps_a {
            validate_eps_a(eps_a)?;
        }
        if let Some(eps_f) = self.eps_f {
            validate_eps_f(eps_f)?;
        }
        if let Some(theta) = self.theta {
            if !theta.is_finite() || theta <= 0.0 {
                return Err(SacError::InvalidTheta(theta));
            }
        }
        Ok(())
    }

    /// Renders the explicitly-set parameters as a stable wire label suffix,
    /// e.g. `(eps_f=0.5)` or `(theta=0.25)`; empty when nothing was set.
    pub fn params_label(&self) -> String {
        let mut parts = Vec::new();
        if let Some(eps_a) = self.eps_a {
            parts.push(format!("eps_a={eps_a}"));
        }
        if let Some(eps_f) = self.eps_f {
            parts.push(format!("eps_f={eps_f}"));
        }
        if let Some(theta) = self.theta {
            parts.push(format!("theta={theta}"));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("({})", parts.join(","))
        }
    }
}

/// The uniform result of one [`Algorithm::run`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct SacOutcome {
    /// The community, or `None` when the query is infeasible (no connected
    /// subgraph containing `q` satisfies the constraints).
    pub community: Option<Community>,
}

impl SacOutcome {
    /// Wraps an optional community.
    pub fn new(community: Option<Community>) -> Self {
        SacOutcome { community }
    }

    /// Whether a community was found.
    pub fn feasible(&self) -> bool {
        self.community.is_some()
    }

    /// The community by reference, when feasible.
    pub fn community(&self) -> Option<&Community> {
        self.community.as_ref()
    }
}

impl From<Option<Community>> for SacOutcome {
    fn from(community: Option<Community>) -> Self {
        SacOutcome::new(community)
    }
}

/// The closed set of SAC algorithms the serving stack can run.
///
/// Variants are listed in [`Algorithm::ALL`] order, which is also the order
/// of the per-algorithm latency series in metrics and stats.  Every `run`
/// arm calls the same `sac_core` entry point a direct caller would use, so
/// answers through the enum are bit-identical to the free functions.
///
/// ```
/// use sac_core::{fixtures, Algorithm, SacQuery, SearchContext};
///
/// let graph = fixtures::figure3_graph();
/// let query = SacQuery::new(fixtures::figure3::Q, 2);
///
/// // Every algorithm answers the same query through one interface.
/// let mut run = |algorithm: Algorithm| {
///     let mut ctx = SearchContext::new(&graph, query.q, query.k).unwrap();
///     algorithm.run(&mut ctx, &query).unwrap().community.unwrap()
/// };
/// let (exact, approx) = (run(Algorithm::ExactPlus), run(Algorithm::AppInc));
///
/// // AppInc's proven ratio 2 holds against the exact optimum.
/// assert!(approx.radius() <= 2.0 * exact.radius() + 1e-9);
/// assert_eq!(Algorithm::from_name("app_inc"), Some(Algorithm::AppInc));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// `Exact+` (Algorithm 5): optimal, bootstrapped by `AppAcc` with `εA` =
    /// [`SacQuery::eps_a_or`] ([`EXACT_PLUS_EPS_A`] when unset).
    ExactPlus,
    /// `AppAcc` (Algorithm 4): ratio `1 + εA`.
    AppAcc,
    /// `AppFast` (Algorithm 3): ratio `2 + εF`.
    AppFast,
    /// `AppInc` (Algorithm 2): parameter-free ratio 2.
    AppInc,
    /// `θ-SAC` (§3): the community must lie inside `O(q, θ)`; requires
    /// [`SacQuery::with_theta`].
    ThetaSac,
    /// `Exact` (Algorithm 1): the exhaustive baseline `Exact+` improves on.
    Exact,
    /// The `Global` structure-only baseline (Sozio & Gionis): no ratio
    /// guarantee on the MCC radius.
    Global,
    /// The `Local` structure-only baseline (Cui et al.): no ratio guarantee
    /// on the MCC radius.
    Local,
}

impl Algorithm {
    /// Every algorithm, in metric-series order (`ALL[a as usize] == a`).
    pub const ALL: [Algorithm; 8] = [
        Algorithm::ExactPlus,
        Algorithm::AppAcc,
        Algorithm::AppFast,
        Algorithm::AppInc,
        Algorithm::ThetaSac,
        Algorithm::Exact,
        Algorithm::Global,
        Algorithm::Local,
    ];

    /// Stable wire name (e.g. `app_fast`).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::ExactPlus => "exact_plus",
            Algorithm::AppAcc => "app_acc",
            Algorithm::AppFast => "app_fast",
            Algorithm::AppInc => "app_inc",
            Algorithm::ThetaSac => "theta_sac",
            Algorithm::Exact => "exact",
            Algorithm::Global => "global",
            Algorithm::Local => "local",
        }
    }

    /// The algorithm with wire name `name`, when there is one.
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == name)
    }

    /// Whether the algorithm reads Step 1 (the k-ĉore containing `q`) from
    /// its [`SearchContext`], so a shared k-core index there spares it the
    /// `O(m)` peel.  Serving layers skip fetching or building that index for
    /// the rest.
    pub fn shares_decomposition(self) -> bool {
        matches!(
            self,
            Algorithm::ExactPlus
                | Algorithm::AppAcc
                | Algorithm::AppFast
                | Algorithm::ThetaSac
                | Algorithm::Exact
                | Algorithm::Global
                | Algorithm::Local
        )
    }

    /// Runs the algorithm for `query` inside `ctx`.
    ///
    /// `ctx` must have been built for the same vertex and degree bound as
    /// `query` (see [`SearchContext::new`] /
    /// [`SearchContext::with_components`]); parameters the algorithm does
    /// not read are ignored, and the ones it reads are checked here.
    pub fn run(
        self,
        ctx: &mut SearchContext<'_>,
        query: &SacQuery,
    ) -> Result<SacOutcome, SacError> {
        debug_assert_eq!(
            (ctx.query_vertex(), ctx.degree_bound()),
            (query.q, query.k),
            "SearchContext was built for a different query"
        );
        let community = match self {
            Algorithm::ExactPlus => {
                let eps_a = query.eps_a_or(EXACT_PLUS_EPS_A);
                validate_eps_a(eps_a)?;
                crate::exact_plus::exact_plus_detailed_with_ctx(ctx, eps_a)?.map(|d| d.community)
            }
            Algorithm::AppAcc => {
                let eps_a = query.eps_a();
                validate_eps_a(eps_a)?;
                crate::app_acc::app_acc_detailed_with_ctx(ctx, eps_a)?.map(|d| d.community)
            }
            Algorithm::AppFast => {
                let eps_f = query.eps_f();
                validate_eps_f(eps_f)?;
                app_fast_with_ctx(ctx, eps_f)?.map(|o| o.community)
            }
            Algorithm::AppInc => crate::app_inc::app_inc_with_ctx(ctx)?.map(|o| o.community),
            Algorithm::ThetaSac => {
                let theta = query.theta().ok_or_else(|| SacError::InvalidParameter {
                    name: "theta",
                    message: "theta_sac requires a theta radius constraint".to_string(),
                })?;
                validate_theta(theta)?;
                crate::theta::theta_sac_with_ctx(ctx, theta)
            }
            Algorithm::Exact => crate::exact::exact_with_ctx(ctx)?,
            Algorithm::Global => crate::baselines::global_search_with_ctx(ctx),
            Algorithm::Local => crate::baselines::local_search_with_ctx(ctx),
        };
        Ok(SacOutcome::new(community))
    }

    /// This algorithm's [`AlgorithmProfile`].
    pub fn profile(self) -> AlgorithmProfile {
        AlgorithmProfile {
            name: self.name(),
            shares_decomposition: self.shares_decomposition(),
        }
    }
}

/// What the by-name [`AlgorithmRegistry`] view reports about one
/// [`Algorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmProfile {
    /// Stable wire name (e.g. `app_fast`).
    pub name: &'static str,
    /// See [`Algorithm::shares_decomposition`].
    pub shares_decomposition: bool,
}

/// A by-name view of the closed [`Algorithm`] set, kept for callers that
/// dispatch by wire name (the `sacbench` traced profile).  New code should
/// use [`Algorithm::from_name`] and [`Algorithm::run`] directly.
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmRegistry;

impl AlgorithmRegistry {
    /// The algorithm named `name`, when there is one.
    pub fn get(&self, name: &str) -> Option<Algorithm> {
        Algorithm::from_name(name)
    }

    /// Runs the named algorithm for `query` inside `ctx`
    /// ([`SacError::UnknownAlgorithm`] when no algorithm has that name).
    pub fn run(
        &self,
        name: &str,
        ctx: &mut SearchContext<'_>,
        query: &SacQuery,
    ) -> Result<SacOutcome, SacError> {
        Algorithm::from_name(name)
            .ok_or_else(|| SacError::UnknownAlgorithm(name.to_string()))?
            .run(ctx, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, figure3_graph};
    use sac_graph::SpatialGraph;

    /// Runs `algorithm` for `query` in a fresh context over `g`.
    fn run(
        algorithm: Algorithm,
        g: &SpatialGraph,
        query: &SacQuery,
    ) -> Result<SacOutcome, SacError> {
        let mut ctx = SearchContext::new(g, query.q, query.k)?;
        algorithm.run(&mut ctx, query)
    }

    #[test]
    fn algorithm_set_is_closed_and_ordered() {
        for (i, algorithm) in Algorithm::ALL.into_iter().enumerate() {
            assert_eq!(Algorithm::from_name(algorithm.name()), Some(algorithm));
            assert_eq!(algorithm as usize, i, "ALL is indexed by the enum");
        }
        // The order of the `sac_algorithm_latency_micros` series.
        assert_eq!(
            Algorithm::ALL.map(Algorithm::name),
            [
                "exact_plus",
                "app_acc",
                "app_fast",
                "app_inc",
                "theta_sac",
                "exact",
                "global",
                "local",
            ]
        );
        assert_eq!(Algorithm::from_name("bogus"), None);
        assert_eq!(Algorithm::from_name(""), None);
        let shared: Vec<_> = Algorithm::ALL
            .into_iter()
            .filter(|a| a.shares_decomposition())
            .map(Algorithm::name)
            .collect();
        assert_eq!(
            shared,
            [
                "exact_plus",
                "app_acc",
                "app_fast",
                "theta_sac",
                "exact",
                "global",
                "local"
            ]
        );
    }

    #[test]
    fn trait_answers_match_free_functions() {
        let g = figure3_graph();
        for q in [figure3::Q, figure3::A, figure3::F, figure3::I] {
            let query = SacQuery::new(q, 2).with_eps_a(0.3).with_eps_f(0.5);
            let pairs: [(Algorithm, Option<Community>); 7] = [
                (
                    Algorithm::ExactPlus,
                    crate::exact_plus(&g, q, 2, 0.3).unwrap(),
                ),
                (Algorithm::AppAcc, crate::app_acc(&g, q, 2, 0.3).unwrap()),
                (
                    Algorithm::AppFast,
                    crate::app_fast(&g, q, 2, 0.5).unwrap().map(|o| o.community),
                ),
                (
                    Algorithm::AppInc,
                    crate::app_inc(&g, q, 2).unwrap().map(|o| o.community),
                ),
                (Algorithm::Exact, crate::exact(&g, q, 2).unwrap()),
                (
                    Algorithm::Global,
                    crate::baselines::global_search(&g, q, 2).unwrap(),
                ),
                (
                    Algorithm::Local,
                    crate::baselines::local_search(&g, q, 2).unwrap(),
                ),
            ];
            for (algorithm, direct) in pairs {
                let via_enum = run(algorithm, &g, &query).unwrap();
                assert_eq!(
                    via_enum.community, direct,
                    "enum/free-function mismatch for {algorithm:?} at q={q}"
                );
            }
        }
        // θ-SAC through the enum requires a theta and matches the free call.
        let query = SacQuery::new(figure3::Q, 2).with_theta(10.0);
        let via_enum = run(Algorithm::ThetaSac, &g, &query).unwrap();
        let direct = crate::theta_sac(&g, figure3::Q, 2, 10.0).unwrap();
        assert_eq!(via_enum.community, direct);
        assert!(run(Algorithm::ThetaSac, &g, &SacQuery::new(figure3::Q, 2)).is_err());
    }

    #[test]
    fn baselines_read_step1_from_the_context_at_every_k() {
        use sac_graph::{core_decomposition, KCoreComponents};
        use std::sync::Arc;

        let g = figure3_graph();
        let decomposition = core_decomposition(g.graph());
        for k in 0..=decomposition.max_core() + 1 {
            let index = Arc::new(KCoreComponents::build(g.graph(), &decomposition, k));
            for q in 0..g.num_vertices() as sac_graph::VertexId {
                let query = SacQuery::new(q, k);
                let pairs = [
                    (
                        Algorithm::Global,
                        crate::baselines::global_search(&g, q, k).unwrap(),
                    ),
                    (
                        Algorithm::Local,
                        crate::baselines::local_search(&g, q, k).unwrap(),
                    ),
                ];
                for (algorithm, direct) in pairs {
                    let mut ctx = SearchContext::with_components(&g, q, k, index.clone()).unwrap();
                    let via_index = algorithm.run(&mut ctx, &query).unwrap().community;
                    assert_eq!(via_index, direct, "{algorithm:?} at q={q}, k={k}");
                    assert_eq!(run(algorithm, &g, &query).unwrap().community, direct);
                }
            }
        }
    }

    #[test]
    fn registry_view_runs_by_name() {
        let g = figure3_graph();
        let registry = AlgorithmRegistry;
        let query = SacQuery::new(figure3::Q, 2);
        let profile = registry.get("app_inc").unwrap().profile();
        assert_eq!(profile.name, "app_inc");
        assert!(!profile.shares_decomposition);
        assert!(registry.get("nope").is_none());

        let mut ctx = SearchContext::new(&g, query.q, query.k).unwrap();
        let outcome = registry.run("app_inc", &mut ctx, &query).unwrap();
        assert!(outcome.feasible());
        assert!(outcome.community().unwrap().contains(figure3::Q));
        let mut ctx = SearchContext::new(&g, query.q, query.k).unwrap();
        assert_eq!(
            registry.run("nope", &mut ctx, &query),
            Err(SacError::UnknownAlgorithm("nope".to_string()))
        );
    }

    #[test]
    fn query_validation_is_typed_and_up_front() {
        let ok = SacQuery::new(0, 2).with_eps_a(0.5).with_eps_f(0.0);
        assert!(ok.validate().is_ok());
        assert!(SacQuery::new(0, 2).with_eps_a(1.5).validate().is_err());
        assert!(SacQuery::new(0, 2).with_eps_f(-0.1).validate().is_err());
        assert_eq!(
            SacQuery::new(0, 2).with_theta(0.0).validate(),
            Err(SacError::InvalidTheta(0.0))
        );
        assert_eq!(
            SacQuery::new(0, 2).with_theta(-2.0).validate(),
            Err(SacError::InvalidTheta(-2.0))
        );
        assert!(SacQuery::new(0, 2)
            .with_theta(f64::INFINITY)
            .validate()
            .is_err());
        // Unset parameters fall back to the documented defaults.
        let query = SacQuery::new(0, 2);
        assert_eq!(query.eps_a(), DEFAULT_EPS_A);
        assert_eq!(query.eps_f(), DEFAULT_EPS_F);
        assert_eq!(query.eps_a_or(1e-4), 1e-4);
        assert_eq!(query.theta(), None);
        assert_eq!(query.params_label(), "");
        assert_eq!(
            SacQuery::new(0, 2).with_eps_f(0.5).params_label(),
            "(eps_f=0.5)"
        );
        assert_eq!(
            SacQuery::new(0, 2).with_theta(0.25).params_label(),
            "(theta=0.25)"
        );
    }
}
