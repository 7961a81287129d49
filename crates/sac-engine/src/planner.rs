//! The query planner: maps a per-request accuracy/latency budget onto one of
//! the closed set of SAC algorithms ([`Algorithm`]).
//!
//! The paper's Table 3 gives every algorithm a proven approximation ratio on
//! the MCC radius and an asymptotic cost.  A request states the worst ratio
//! it tolerates ([`QueryBudget::max_ratio`]) and how much latency it can
//! spend ([`LatencyTier`]); [`Planner::plan`] inverts the table with one
//! `match`, one arm per row, tried top to bottom:
//!
//! | budget | plan |
//! |---|---|
//! | explicit `algorithm` override | that algorithm, verbatim (no upgrade, no cache short-circuit) |
//! | `q` not in any k-core (cache lookup) | [`Plan::Infeasible`] — answered without running any algorithm |
//! | `theta` set | `theta_sac` (§3) |
//! | k-ĉore of `q` ≤ `small_exact_threshold` | `exact_plus` |
//! | `max_ratio` = 1 | `exact_plus` |
//! | 1 < `max_ratio` < 2 | `app_acc` with `εA = max_ratio − 1` |
//! | `max_ratio` ≥ 2, [`LatencyTier::Interactive`] | `app_fast` with `εF = max_ratio − 2` (the cheapest in band) |
//! | `max_ratio` ≥ 2, otherwise | `app_inc` (the tightest guarantee in band: a parameter-free 2) |
//!
//! The small-core row is a workload-aware upgrade: every community is a
//! subset of the connected k-core containing `q`, so when that core is tiny
//! even `Exact+` is effectively free and the budget's slack buys an exact
//! answer at no latency cost.
//!
//! The override row is what makes budget-unreachable algorithms (the
//! `global`/`local` structure-only baselines have no ratio guarantee, so no
//! budget ever selects them) A/B-testable through the serving path.

use sac_core::{Algorithm, SacError, SacQuery, DEFAULT_EPS_A, DEFAULT_EPS_F, EXACT_PLUS_EPS_A};
use sac_graph::VertexId;
use std::fmt;
use std::str::FromStr;

/// How much latency a request is willing to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LatencyTier {
    /// Sub-millisecond target: always the cheapest algorithm that fits the
    /// accuracy budget.
    Interactive,
    /// Default tier for online serving.
    #[default]
    Standard,
    /// Offline / analytical: latency is secondary to result quality.
    Batch,
}

impl LatencyTier {
    /// All tiers in dense-index order (see [`LatencyTier::index`]) — the
    /// iteration order of per-tier metric series.
    pub const ALL: [LatencyTier; 3] = [
        LatencyTier::Interactive,
        LatencyTier::Standard,
        LatencyTier::Batch,
    ];

    /// The wire name used by the serving protocol (`interactive`, `standard`,
    /// `batch`).
    pub fn as_str(&self) -> &'static str {
        match self {
            LatencyTier::Interactive => "interactive",
            LatencyTier::Standard => "standard",
            LatencyTier::Batch => "batch",
        }
    }

    /// Dense index of the tier (`ALL[tier.index()] == tier`), used to key
    /// per-tier metric arrays without a hash lookup on the dispatch path.
    pub fn index(self) -> usize {
        match self {
            LatencyTier::Interactive => 0,
            LatencyTier::Standard => 1,
            LatencyTier::Batch => 2,
        }
    }
}

impl fmt::Display for LatencyTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for LatencyTier {
    type Err = SacError;

    /// Parses the wire names used by the serving protocol, with a typed
    /// [`SacError::InvalidBudget`] for anything else.
    fn from_str(name: &str) -> Result<LatencyTier, SacError> {
        match name {
            "interactive" => Ok(LatencyTier::Interactive),
            "standard" => Ok(LatencyTier::Standard),
            "batch" => Ok(LatencyTier::Batch),
            other => Err(SacError::InvalidBudget(format!(
                "unknown latency tier '{other}' (expected interactive|standard|batch)"
            ))),
        }
    }
}

/// Per-request accuracy/latency budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryBudget {
    /// Largest acceptable approximation ratio on the MCC radius (`>= 1`; `1`
    /// demands the optimum).
    pub max_ratio: f64,
    /// Latency tier.
    pub tier: LatencyTier,
    /// When set, ask the θ-SAC variant instead: the community must lie inside
    /// the circle of radius `theta` around the query vertex.
    pub theta: Option<f64>,
}

impl Default for QueryBudget {
    fn default() -> Self {
        QueryBudget::balanced()
    }
}

impl QueryBudget {
    /// Demands the optimal community (ratio 1) at batch latency.
    pub fn exact() -> Self {
        QueryBudget {
            max_ratio: 1.0,
            tier: LatencyTier::Batch,
            theta: None,
        }
    }

    /// The default online budget: ratio ≤ 1.5 at standard latency (the paper's
    /// `AppAcc` configuration, Table 5).
    pub fn balanced() -> Self {
        QueryBudget {
            max_ratio: 1.5,
            tier: LatencyTier::Standard,
            theta: None,
        }
    }

    /// The low-latency budget: ratio ≤ 2.5 (the paper's `AppFast`
    /// configuration) at interactive latency.
    pub fn interactive() -> Self {
        QueryBudget {
            max_ratio: 2.5,
            tier: LatencyTier::Interactive,
            theta: None,
        }
    }

    /// A budget tolerating approximation ratio `max_ratio` at standard
    /// latency.
    pub fn within_ratio(max_ratio: f64) -> Self {
        QueryBudget {
            max_ratio,
            tier: LatencyTier::Standard,
            theta: None,
        }
    }

    /// Sets the latency tier.
    pub fn with_tier(mut self, tier: LatencyTier) -> Self {
        self.tier = tier;
        self
    }

    /// Requests the θ-SAC variant with radius constraint `theta`.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = Some(theta);
        self
    }

    /// Validates the budget parameters with typed errors:
    /// [`SacError::InvalidRatio`] unless `max_ratio` is a finite number `>= 1`,
    /// [`SacError::InvalidTheta`] unless a set `theta` is finite and `> 0`.
    pub fn validate(&self) -> Result<(), SacError> {
        if !self.max_ratio.is_finite() || self.max_ratio < 1.0 {
            return Err(SacError::InvalidRatio(self.max_ratio));
        }
        if let Some(theta) = self.theta {
            if !theta.is_finite() || theta <= 0.0 {
                return Err(SacError::InvalidTheta(theta));
            }
        }
        Ok(())
    }
}

/// One planned algorithm with its tuned query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedQuery {
    /// Wire name of the [`Algorithm`] to dispatch.
    pub algorithm: &'static str,
    /// The tuned query (accuracy parameters derived from the budget).
    pub query: SacQuery,
    /// The approximation ratio the tuned algorithm guarantees (`None` for
    /// radius-constrained plans, which answer a different objective).
    pub guaranteed_ratio: Option<f64>,
}

/// The outcome of planning one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plan {
    /// Dispatch the planned algorithm.
    Execute(PlannedQuery),
    /// Answered from the k-core cache without running any algorithm: `q` is in
    /// no k-core, so no SAC community exists (every algorithm returns `None`).
    Infeasible,
    /// The request never reached an algorithm (invalid budget or query).
    Rejected,
}

impl Plan {
    /// The wire name of the algorithm this plan dispatches, when any.
    pub fn algorithm(&self) -> Option<&'static str> {
        match self {
            Plan::Execute(planned) => Some(planned.algorithm),
            Plan::Infeasible | Plan::Rejected => None,
        }
    }

    /// Whether this plan dispatches the named algorithm.
    pub fn dispatches(&self, name: &str) -> bool {
        self.algorithm() == Some(name)
    }

    /// The approximation ratio this plan guarantees (`None` for plans that do
    /// not return an unconstrained SAC community).
    pub fn guaranteed_ratio(&self) -> Option<f64> {
        match self {
            Plan::Execute(planned) => planned.guaranteed_ratio,
            Plan::Infeasible | Plan::Rejected => None,
        }
    }

    /// Short wire/bench label, e.g. `exact_plus(eps_a=0.0001)`.
    pub fn label(&self) -> String {
        self.to_string()
    }
}

// Stable wire labels: `<algorithm>(<explicit params>)`, and the two
// algorithm-free outcomes keep their historical names.
impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Execute(planned) => {
                write!(f, "{}{}", planned.algorithm, planned.query.params_label())
            }
            Plan::Infeasible => f.write_str("infeasible(cache)"),
            Plan::Rejected => f.write_str("rejected"),
        }
    }
}

/// Structural facts the planner reads from the k-core cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanContext {
    /// Size of the connected k-core containing `q`; `None` when `q` is in no
    /// k-core (or the check was skipped because `k < 2`).
    pub core_size: Option<usize>,
    /// Whether the cache proved the query infeasible (`k >= 2` and
    /// `core(q) < k`).
    pub infeasible: bool,
}

/// `AppAcc` requires `εA ∈ (0, 1)`: keep planner-derived values inside the
/// open interval.
fn clamp_eps_a(eps: f64) -> f64 {
    eps.clamp(1e-6, 1.0 - 1e-6)
}

/// The budget-to-algorithm planner (see the module docs for the decision
/// table it implements).
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    small_exact_threshold: usize,
}

impl Planner {
    /// A planner upgrading to `Exact+` when the candidate k-core has at most
    /// `small_exact_threshold` members.
    pub fn new(small_exact_threshold: usize) -> Self {
        Planner {
            small_exact_threshold,
        }
    }

    /// Plans one query: validates the budget, then walks the decision table
    /// of the module docs.  An explicit `override_algorithm` bypasses the
    /// table and dispatches that algorithm with its default parameters (plus
    /// the budget's θ when set — `theta_sac` needs it, the rest ignore it).
    ///
    /// Errors are typed: an invalid budget is rejected here, and an unknown
    /// override yields [`SacError::UnknownAlgorithm`].
    pub fn plan(
        &self,
        q: VertexId,
        k: u32,
        budget: &QueryBudget,
        ctx: &PlanContext,
        override_algorithm: Option<&str>,
    ) -> Result<Plan, SacError> {
        budget.validate()?;
        let query = SacQuery::new(q, k);
        let small_core = ctx
            .core_size
            .is_some_and(|size| size <= self.small_exact_threshold);
        let ratio = budget.max_ratio;
        let (algorithm, query, guaranteed_ratio) = match (override_algorithm, budget.theta) {
            (Some(name), theta) => {
                let algorithm = Algorithm::from_name(name)
                    .ok_or_else(|| SacError::UnknownAlgorithm(name.to_string()))?;
                let query = theta.map_or(query, |theta| query.with_theta(theta));
                (algorithm, query, default_ratio(algorithm))
            }
            _ if ctx.infeasible => return Ok(Plan::Infeasible),
            (None, Some(theta)) => (Algorithm::ThetaSac, query.with_theta(theta), None),
            _ if small_core || ratio <= 1.0 + 1e-12 => (
                Algorithm::ExactPlus,
                query.with_eps_a(EXACT_PLUS_EPS_A),
                Some(1.0),
            ),
            _ if ratio < 2.0 => {
                let eps_a = clamp_eps_a(ratio - 1.0);
                (
                    Algorithm::AppAcc,
                    query.with_eps_a(eps_a),
                    Some(1.0 + eps_a),
                )
            }
            _ if budget.tier == LatencyTier::Interactive => {
                let eps_f = ratio - 2.0;
                (
                    Algorithm::AppFast,
                    query.with_eps_f(eps_f),
                    Some(2.0 + eps_f),
                )
            }
            _ => (Algorithm::AppInc, query, Some(2.0)),
        };
        Ok(Plan::Execute(PlannedQuery {
            algorithm: algorithm.name(),
            query,
            guaranteed_ratio,
        }))
    }
}

/// The ratio `algorithm` guarantees at its default parameters (Table 3);
/// `None` for θ-SAC, which answers a different objective, and the
/// baselines, which have no guarantee.
fn default_ratio(algorithm: Algorithm) -> Option<f64> {
    match algorithm {
        Algorithm::ExactPlus | Algorithm::Exact => Some(1.0),
        Algorithm::AppAcc => Some(1.0 + DEFAULT_EPS_A),
        Algorithm::AppFast => Some(2.0 + DEFAULT_EPS_F),
        Algorithm::AppInc => Some(2.0),
        Algorithm::ThetaSac | Algorithm::Global | Algorithm::Local => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX_BIG: PlanContext = PlanContext {
        core_size: Some(100_000),
        infeasible: false,
    };

    fn planner() -> Planner {
        Planner::new(48)
    }

    fn plan(budget: &QueryBudget, ctx: &PlanContext) -> Plan {
        planner().plan(0, 2, budget, ctx, None).unwrap()
    }

    #[test]
    fn accuracy_budget_selects_algorithm_family() {
        assert!(plan(&QueryBudget::exact(), &CTX_BIG).dispatches("exact_plus"));
        let acc = plan(&QueryBudget::within_ratio(1.5), &CTX_BIG);
        assert!(acc.dispatches("app_acc"));
        assert!(
            matches!(acc, Plan::Execute(p) if (p.query.eps_a() - 0.5).abs() < 1e-9),
            "AppAcc must be tuned to eps_a = max_ratio - 1"
        );
        assert!(plan(&QueryBudget::within_ratio(2.0), &CTX_BIG).dispatches("app_inc"));
        let fast = plan(
            &QueryBudget::within_ratio(2.5).with_tier(LatencyTier::Interactive),
            &CTX_BIG,
        );
        assert!(fast.dispatches("app_fast"));
        assert!(matches!(fast, Plan::Execute(p) if (p.query.eps_f() - 0.5).abs() < 1e-9));
    }

    #[test]
    fn every_plan_fits_its_budget() {
        for ratio in [1.0, 1.2, 1.5, 1.99, 2.0, 2.5, 4.0] {
            for tier in [
                LatencyTier::Interactive,
                LatencyTier::Standard,
                LatencyTier::Batch,
            ] {
                let budget = QueryBudget::within_ratio(ratio).with_tier(tier);
                let plan = plan(&budget, &CTX_BIG);
                let guaranteed = plan.guaranteed_ratio().expect("feasible plans have ratios");
                assert!(
                    guaranteed <= ratio + 1e-9,
                    "plan {plan} (ratio {guaranteed}) exceeds budget {ratio}"
                );
            }
        }
    }

    #[test]
    fn theta_and_infeasibility_short_circuit() {
        let budget = QueryBudget::balanced().with_theta(0.25);
        let plan_theta = plan(&budget, &CTX_BIG);
        assert!(plan_theta.dispatches("theta_sac"));
        assert_eq!(plan_theta.label(), "theta_sac(theta=0.25)");
        assert_eq!(plan_theta.guaranteed_ratio(), None);
        let infeasible = PlanContext {
            core_size: None,
            infeasible: true,
        };
        assert_eq!(plan(&budget, &infeasible), Plan::Infeasible);
        assert_eq!(plan(&QueryBudget::exact(), &infeasible), Plan::Infeasible);
    }

    #[test]
    fn tiny_core_upgrades_to_exact() {
        let small = PlanContext {
            core_size: Some(12),
            infeasible: false,
        };
        assert!(plan(&QueryBudget::interactive(), &small).dispatches("exact_plus"));
        // Just above the threshold: no upgrade.
        let medium = PlanContext {
            core_size: Some(49),
            infeasible: false,
        };
        assert!(plan(&QueryBudget::interactive(), &medium).dispatches("app_fast"));
    }

    #[test]
    fn budget_validation_rejects_nonsense() {
        assert_eq!(
            QueryBudget::within_ratio(0.5).validate(),
            Err(SacError::InvalidRatio(0.5))
        );
        assert!(QueryBudget::within_ratio(f64::NAN).validate().is_err());
        assert_eq!(
            QueryBudget::balanced().with_theta(-1.0).validate(),
            Err(SacError::InvalidTheta(-1.0))
        );
        assert_eq!(
            QueryBudget::balanced().with_theta(0.0).validate(),
            Err(SacError::InvalidTheta(0.0))
        );
        assert!(QueryBudget::balanced()
            .with_theta(f64::INFINITY)
            .validate()
            .is_err());
        assert!(QueryBudget::balanced().validate().is_ok());
        assert!(QueryBudget::exact().validate().is_ok());
        // The planner applies the same validation.
        assert!(planner()
            .plan(0, 2, &QueryBudget::within_ratio(0.2), &CTX_BIG, None)
            .is_err());
    }

    #[test]
    fn explicit_override_reaches_any_registered_algorithm() {
        let planner = planner();
        // The baselines are unreachable through budgets (no ratio guarantee)...
        for ratio in [1.0, 1.5, 4.0] {
            assert!(!plan(&QueryBudget::within_ratio(ratio), &CTX_BIG).dispatches("global"));
        }
        // ... but an explicit override dispatches them directly.
        for name in ["global", "local", "exact", "app_inc"] {
            let plan = planner
                .plan(0, 2, &QueryBudget::balanced(), &CTX_BIG, Some(name))
                .unwrap();
            assert!(plan.dispatches(name), "override {name}");
        }
        // Overrides skip the small-core upgrade and the infeasibility
        // short-circuit: the named algorithm runs even when the cache would
        // have answered.
        let infeasible = PlanContext {
            core_size: None,
            infeasible: true,
        };
        let plan_override = planner
            .plan(
                0,
                2,
                &QueryBudget::balanced(),
                &infeasible,
                Some("app_fast"),
            )
            .unwrap();
        assert!(plan_override.dispatches("app_fast"));
        // θ flows through to θ-capable overrides.
        let theta = planner
            .plan(
                0,
                2,
                &QueryBudget::balanced().with_theta(0.5),
                &CTX_BIG,
                Some("theta_sac"),
            )
            .unwrap();
        assert_eq!(theta.label(), "theta_sac(theta=0.5)");
        // Unknown overrides are typed errors; invalid budgets still reject.
        assert_eq!(
            planner.plan(0, 2, &QueryBudget::balanced(), &CTX_BIG, Some("bogus")),
            Err(SacError::UnknownAlgorithm("bogus".to_string()))
        );
        assert!(planner
            .plan(
                0,
                2,
                &QueryBudget::within_ratio(0.1),
                &CTX_BIG,
                Some("exact")
            )
            .is_err());
    }

    #[test]
    fn plans_render_stable_labels() {
        let inc = plan(&QueryBudget::within_ratio(2.0), &CTX_BIG);
        assert_eq!(inc.label(), "app_inc");
        let fast = plan(
            &QueryBudget::within_ratio(2.5).with_tier(LatencyTier::Interactive),
            &CTX_BIG,
        );
        assert_eq!(fast.label(), "app_fast(eps_f=0.5)");
        assert_eq!(Plan::Infeasible.label(), "infeasible(cache)");
        assert_eq!(Plan::Rejected.label(), "rejected");
        assert_eq!("batch".parse::<LatencyTier>(), Ok(LatencyTier::Batch));
        assert_eq!(LatencyTier::Batch.as_str(), "batch");
        assert!(matches!(
            "bogus".parse::<LatencyTier>(),
            Err(SacError::InvalidBudget(_))
        ));
    }

    #[test]
    fn fixed_guarantees_never_exceed_the_budget() {
        // Just below 2: AppInc's fixed ratio 2 does NOT fit — the plan must
        // stay in AppAcc's band even at interactive latency, so the handed-
        // back guarantee never exceeds what the caller demanded.
        let ratio = 2.0 - 1e-10;
        for tier in [
            LatencyTier::Interactive,
            LatencyTier::Standard,
            LatencyTier::Batch,
        ] {
            let plan = plan(&QueryBudget::within_ratio(ratio).with_tier(tier), &CTX_BIG);
            assert!(plan.dispatches("app_acc"), "tier {tier:?}");
            assert!(plan.guaranteed_ratio().unwrap() <= ratio);
        }
    }
}
