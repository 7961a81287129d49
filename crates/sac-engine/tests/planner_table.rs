//! One assertion per row of the planner's budget→plan decision table (see the
//! `planner` module docs), driven through the public [`Planner`] — the
//! table the paper's Table 3 inverts, pinned row by row.

use sac_engine::{LatencyTier, Plan, PlanContext, Planner, QueryBudget};

const SMALL_EXACT_THRESHOLD: usize = 48;

const BIG_CORE: PlanContext = PlanContext {
    core_size: Some(100_000),
    infeasible: false,
};

const ALL_TIERS: [LatencyTier; 3] = [
    LatencyTier::Interactive,
    LatencyTier::Standard,
    LatencyTier::Batch,
];

fn planner() -> Planner {
    Planner::new(SMALL_EXACT_THRESHOLD)
}

fn plan(budget: &QueryBudget, ctx: &PlanContext) -> Plan {
    planner().plan(7, 3, budget, ctx, None).unwrap()
}

/// Row 1 — `theta` set: the θ-capable algorithm, regardless of tier and
/// ratio.
#[test]
fn row_theta_set_dispatches_theta_sac() {
    for tier in ALL_TIERS {
        for ratio in [1.0, 1.5, 3.0] {
            let budget = QueryBudget::within_ratio(ratio)
                .with_tier(tier)
                .with_theta(0.4);
            let plan = plan(&budget, &BIG_CORE);
            assert!(plan.dispatches("theta_sac"), "tier {tier:?} ratio {ratio}");
            assert_eq!(plan.label(), "theta_sac(theta=0.4)");
            assert_eq!(
                plan.guaranteed_ratio(),
                None,
                "θ-SAC answers a different objective"
            );
        }
    }
}

/// Row 2 — cache-proven infeasibility short-circuits every budget, θ
/// included.
#[test]
fn row_infeasible_short_circuits() {
    let infeasible = PlanContext {
        core_size: None,
        infeasible: true,
    };
    for tier in ALL_TIERS {
        for budget in [
            QueryBudget::exact().with_tier(tier),
            QueryBudget::within_ratio(1.5).with_tier(tier),
            QueryBudget::within_ratio(4.0).with_tier(tier),
            QueryBudget::balanced().with_tier(tier).with_theta(0.3),
        ] {
            assert_eq!(plan(&budget, &infeasible), Plan::Infeasible);
        }
    }
}

/// Row 3 — small-core upgrade: a tiny candidate set turns any unconstrained
/// budget into an exact plan; one above the threshold does not.
#[test]
fn row_small_core_upgrades_to_exact() {
    let at_threshold = PlanContext {
        core_size: Some(SMALL_EXACT_THRESHOLD),
        infeasible: false,
    };
    for tier in ALL_TIERS {
        let budget = QueryBudget::within_ratio(4.0).with_tier(tier);
        let plan = plan(&budget, &at_threshold);
        assert!(plan.dispatches("exact_plus"), "tier {tier:?}");
        assert_eq!(plan.guaranteed_ratio(), Some(1.0));
    }
    let above = PlanContext {
        core_size: Some(SMALL_EXACT_THRESHOLD + 1),
        infeasible: false,
    };
    assert!(!plan(&QueryBudget::within_ratio(4.0), &above).dispatches("exact_plus"));
    // ...but the θ row still wins over the upgrade (a constrained query has
    // its own algorithm).
    let tiny = PlanContext {
        core_size: Some(1),
        infeasible: false,
    };
    assert!(plan(&QueryBudget::balanced().with_theta(0.2), &tiny).dispatches("theta_sac"));
}

/// Row 4 — ratio 1 demands the optimum: the cheapest exact algorithm, tuned
/// with the configured `εA`.
#[test]
fn row_ratio_one_demands_exact_plus() {
    for tier in ALL_TIERS {
        let budget = QueryBudget {
            max_ratio: 1.0,
            tier,
            theta: None,
        };
        let plan = plan(&budget, &BIG_CORE);
        assert!(plan.dispatches("exact_plus"), "tier {tier:?}");
        assert_eq!(plan.label(), "exact_plus(eps_a=0.0001)");
        assert_eq!(plan.guaranteed_ratio(), Some(1.0));
    }
}

/// Row 5 — `1 < max_ratio < 2` is `AppAcc`'s declared band, every tier, with
/// `εA = max_ratio − 1`.
#[test]
fn row_ratio_between_one_and_two_is_app_acc() {
    for tier in ALL_TIERS {
        for ratio in [1.001, 1.25, 1.5, 1.99] {
            let budget = QueryBudget::within_ratio(ratio).with_tier(tier);
            let planned = match plan(&budget, &BIG_CORE) {
                Plan::Execute(planned) => planned,
                other => panic!("expected an algorithm plan, got {other}"),
            };
            assert_eq!(planned.algorithm, "app_acc", "tier {tier:?} ratio {ratio}");
            assert!(
                (planned.query.eps_a() - (ratio - 1.0)).abs() < 1e-9,
                "εA must be tuned to the budget"
            );
            assert!((planned.guaranteed_ratio.unwrap() - ratio).abs() < 1e-9);
        }
    }
}

/// Row 6 — `max_ratio ≥ 2` at interactive latency: the cheapest in-band
/// algorithm, `AppFast` with `εF = max_ratio − 2`.
#[test]
fn row_ratio_two_plus_interactive_is_app_fast() {
    for ratio in [2.0, 2.5, 4.0] {
        let budget = QueryBudget::within_ratio(ratio).with_tier(LatencyTier::Interactive);
        let planned = match plan(&budget, &BIG_CORE) {
            Plan::Execute(planned) => planned,
            other => panic!("expected an algorithm plan, got {other}"),
        };
        assert_eq!(planned.algorithm, "app_fast", "ratio {ratio}");
        assert!((planned.query.eps_f() - (ratio - 2.0)).abs() < 1e-9);
        assert!((planned.guaranteed_ratio.unwrap() - ratio).abs() < 1e-9);
    }
}

/// Row 7 — `max_ratio ≥ 2` with latency slack (standard/batch): the tightest
/// in-band guarantee, `AppInc`'s parameter-free ratio 2.
#[test]
fn row_ratio_two_plus_standard_and_batch_is_app_inc() {
    for tier in [LatencyTier::Standard, LatencyTier::Batch] {
        for ratio in [2.0, 2.5, 4.0] {
            let budget = QueryBudget::within_ratio(ratio).with_tier(tier);
            let plan = plan(&budget, &BIG_CORE);
            assert!(plan.dispatches("app_inc"), "tier {tier:?} ratio {ratio}");
            assert_eq!(plan.label(), "app_inc");
            assert_eq!(plan.guaranteed_ratio(), Some(2.0));
        }
    }
}
