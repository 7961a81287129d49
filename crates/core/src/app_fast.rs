//! `AppFast`: the binary-search (2+εF)-approximation algorithm (Algorithm 3).

use crate::common::{knn_lower_bound, trivial_small_k, SearchContext};
use crate::{Community, SacError};
use sac_graph::{SpatialGraph, VertexId};

/// The outcome of [`app_fast`]: the community Λ plus the radii needed by `AppAcc`
/// and `Exact+` (which run `AppFast` with `εF = 0` as their first step).
#[derive(Debug, Clone, PartialEq)]
pub struct AppFastOutcome {
    /// The returned community Λ.
    pub community: Community,
    /// An estimate of δ, the radius of the smallest q-centred circle containing a
    /// feasible solution: the distance from `q` to the farthest member of Λ.
    /// With `εF = 0` this equals δ exactly (up to floating-point rounding); it is
    /// never larger than δ.
    pub delta: f64,
    /// γ — the radius of the MCC covering Λ.
    pub gamma: f64,
    /// Number of binary-search iterations performed (useful for diagnostics and
    /// for reproducing the efficiency discussion of Section 5.3).
    pub iterations: usize,
}

/// `AppFast` (Algorithm 3): binary search over the q-centred radius, with an
/// approximation ratio of `2 + eps_f` (`εF ≥ 0`).
///
/// The search interval `[l, u]` starts from Eq. (1): `l` is the distance to the
/// k-th nearest of `q`'s neighbours inside the k-ĉore `X`, and `u` is the distance
/// to the farthest vertex of `X`.  Each probe radius `r` asks whether the vertices
/// of `X` inside `O(q, r)` contain a connected k-core with `q`; the interval ends
/// are tightened to actual vertex distances, and the loop stops when the gap drops
/// below `α = r·εF / (2 + εF)`.
///
/// With `εF = 0` the algorithm returns the same community as [`crate::app_inc`]
/// at a lower asymptotic cost (`O(m·n)` worst case, `O(m·log(1/εF))` for `εF > 0`).
///
/// Returns `Ok(None)` when no feasible community exists.
pub fn app_fast(
    g: &SpatialGraph,
    q: VertexId,
    k: u32,
    eps_f: f64,
) -> Result<Option<AppFastOutcome>, SacError> {
    validate_eps_f(eps_f)?;
    let mut ctx = SearchContext::new(g, q, k)?;
    app_fast_with_ctx(&mut ctx, eps_f)
}

/// Validates the `εF` parameter shared by the `AppFast` entry points.
pub(crate) fn validate_eps_f(eps_f: f64) -> Result<(), SacError> {
    if !eps_f.is_finite() || eps_f < 0.0 {
        return Err(SacError::InvalidParameter {
            name: "eps_f",
            message: format!("must be a finite non-negative number, got {eps_f}"),
        });
    }
    Ok(())
}

/// `AppFast` over an existing [`SearchContext`] (assumes `eps_f` validated).
///
/// This is the single implementation behind [`app_fast`] and the engine's
/// `app_fast` arm: when the context carries a shared k-core index, the
/// k-ĉore extraction skips the `O(m)` peel.
pub(crate) fn app_fast_with_ctx(
    ctx: &mut SearchContext<'_>,
    eps_f: f64,
) -> Result<Option<AppFastOutcome>, SacError> {
    let (g, q, k) = (ctx.g, ctx.q, ctx.k);
    if let Some(trivial) = trivial_small_k(g, q, k) {
        return Ok(trivial.map(|community| AppFastOutcome {
            delta: community.radius() * 2.0,
            gamma: community.radius(),
            community,
            iterations: 0,
        }));
    }
    // Step 1 of the two-step framework: the k-ĉore X containing q.
    Ok(ctx
        .global_kcore_of_q()
        .and_then(|x| app_fast_in_kcore(ctx, &x, eps_f)))
}

/// Step 2 of `AppFast` for `k ≥ 2` over `x`, the k-ĉore containing `q`
/// (sorted by id).  `AppAcc` (and through it `Exact+`) calls it with
/// `εF = 0` on the `X` it keeps for its line 3, so Step 1 runs once per
/// query.
pub(crate) fn app_fast_in_kcore(
    ctx: &mut SearchContext<'_>,
    x: &[VertexId],
    eps_f: f64,
) -> Option<AppFastOutcome> {
    let (g, q, k) = (ctx.g, ctx.q, ctx.k);
    let q_pos = ctx.q_pos();

    // Eq. (1): initial bounds for the binary search.
    let mut l = knn_lower_bound(g, q, k, x)?;
    let mut u = x
        .iter()
        .map(|&v| g.position(v).distance(q_pos))
        .fold(0.0f64, f64::max);

    // Every probe is a q-centred circle of radius ≤ u: one sweep over X's
    // member list serves the whole binary search (each probe a prefix that
    // the sweep partitions out of it on demand).
    ctx.begin_sweep(q_pos, u, x);

    // Λ starts as the whole k-ĉore (always feasible).
    let mut best = x.to_vec();
    let mut best_radius_bound = u;
    let mut iterations = 0usize;
    // Hard cap: the interval endpoints always move to actual vertex distances, so
    // the loop takes at most |X| iterations; the cap only guards against
    // pathological floating-point stalls.
    let max_iterations = x.len() + 64;

    while u > l && iterations < max_iterations {
        iterations += 1;
        let r = 0.5 * (l + u);
        let alpha = if eps_f > 0.0 {
            r * eps_f / (2.0 + eps_f)
        } else {
            0.0
        };
        match ctx.probe(r) {
            Some(members) => {
                // Feasible at r: tighten the upper bound to the farthest member.
                let far = members
                    .iter()
                    .map(|&v| g.position(v).distance(q_pos))
                    .fold(0.0f64, f64::max);
                best = members;
                best_radius_bound = far;
                if r - l <= alpha {
                    break;
                }
                u = far;
            }
            None => {
                if u - r <= alpha {
                    break;
                }
                // Infeasible at r: the next candidate radius is the distance of the
                // nearest X-vertex strictly outside O(q, r) — found in the one
                // bucket of the sweep's partitioned candidate view around r.
                let next = ctx.next_candidate_distance_above(r);
                if !next.is_finite() {
                    break;
                }
                l = next;
            }
        }
    }

    let community = Community::new(g, best);
    let gamma = community.radius();
    Some(AppFastOutcome {
        delta: best_radius_bound,
        gamma,
        community,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app_inc::app_inc;
    use crate::exact::exact;
    use crate::fixtures::{figure3, figure3_graph};

    #[test]
    fn zero_eps_matches_app_inc() {
        // Remark after Lemma 5: with εF = 0 the returned community equals Φ.
        let g = figure3_graph();
        let fast = app_fast(&g, figure3::Q, 2, 0.0).unwrap().unwrap();
        let inc = app_inc(&g, figure3::Q, 2).unwrap().unwrap();
        assert_eq!(fast.community.members(), inc.community.members());
        assert!((fast.gamma - inc.gamma).abs() < 1e-9);
    }

    #[test]
    fn approximation_bound_holds_for_various_eps() {
        let g = figure3_graph();
        let optimal = exact(&g, figure3::Q, 2).unwrap().unwrap();
        for eps in [0.0, 0.5, 1.0, 1.5, 2.0] {
            let out = app_fast(&g, figure3::Q, 2, eps).unwrap().unwrap();
            let ratio = out.gamma / optimal.radius();
            assert!(
                ratio <= 2.0 + eps + 1e-9,
                "eps={eps}: ratio {ratio} exceeds {}",
                2.0 + eps
            );
            assert!(ratio >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn larger_eps_never_uses_more_iterations_budget() {
        let g = figure3_graph();
        let tight = app_fast(&g, figure3::Q, 2, 0.0).unwrap().unwrap();
        let loose = app_fast(&g, figure3::Q, 2, 2.0).unwrap().unwrap();
        assert!(loose.iterations <= tight.iterations + 1);
    }

    #[test]
    fn infeasible_and_invalid_inputs() {
        let g = figure3_graph();
        assert!(app_fast(&g, figure3::I, 2, 0.5).unwrap().is_none());
        assert!(app_fast(&g, figure3::Q, 7, 0.5).unwrap().is_none());
        assert!(app_fast(&g, 123, 2, 0.5).is_err());
        assert!(app_fast(&g, figure3::Q, 2, -1.0).is_err());
        assert!(app_fast(&g, figure3::Q, 2, f64::NAN).is_err());
    }

    #[test]
    fn trivial_k_values() {
        let g = figure3_graph();
        assert_eq!(
            app_fast(&g, figure3::Q, 0, 0.5)
                .unwrap()
                .unwrap()
                .community
                .members(),
            &[figure3::Q]
        );
        assert_eq!(
            app_fast(&g, figure3::Q, 1, 0.5)
                .unwrap()
                .unwrap()
                .community
                .len(),
            2
        );
    }

    #[test]
    fn result_is_a_valid_community() {
        let g = figure3_graph();
        for q in [figure3::Q, figure3::B, figure3::D, figure3::G] {
            for eps in [0.0, 0.5, 1.5] {
                let out = app_fast(&g, q, 2, eps).unwrap().unwrap();
                let members = out.community.members();
                assert!(members.contains(&q));
                assert!(sac_graph::is_connected_subset(g.graph(), members));
                assert!(sac_graph::min_degree_in_subset(g.graph(), members).unwrap() >= 2);
                // δ is never larger than the farthest member distance bound γ ≤ δ.
                assert!(out.gamma <= out.delta + 1e-9);
            }
        }
    }
}
