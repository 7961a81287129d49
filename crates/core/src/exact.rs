//! `Exact`: the basic exact algorithm (Algorithm 1).

use crate::common::{sweep_cover_radius, trivial_small_k, SearchContext};
use crate::{Community, SacError};
use sac_geom::Circle;
use sac_graph::{SpatialGraph, VertexId};

/// `Exact` (Algorithm 1): exhaustive enumeration of candidate MCCs.
///
/// By the classical MCC property (Lemma 1), the optimal community's MCC is fixed by
/// at most three of its member locations.  `Exact` therefore:
///
/// 1. computes the k-ĉore `X` containing `q` and sorts it by distance from `q`;
/// 2. enumerates every vertex triple of `X` (in an order that allows an early
///    termination once the remaining vertices are farther than `2r` from `q`,
///    where `r` is the best radius found so far);
/// 3. for each triple's MCC, checks whether the vertices of `X` inside it contain a
///    connected k-core with `q`, keeping the smallest such circle.
///
/// The cost is `O(m · n³)` and is only practical for small graphs; it serves as the
/// ground truth for the approximation-ratio experiments (Figure 9) and for the
/// correctness tests of `Exact+`.
///
/// Returns `Ok(None)` when no feasible community exists.
pub fn exact(g: &SpatialGraph, q: VertexId, k: u32) -> Result<Option<Community>, SacError> {
    let mut ctx = SearchContext::new(g, q, k)?;
    exact_with_ctx(&mut ctx)
}

/// `Exact` over an existing [`SearchContext`] — the single implementation
/// behind [`exact`] and the uniform-interface wrapper, so context-level
/// instrumentation (sweep probe counters) reaches the caller.
pub(crate) fn exact_with_ctx(ctx: &mut SearchContext<'_>) -> Result<Option<Community>, SacError> {
    let (g, q, k) = (ctx.g, ctx.q, ctx.k);
    if let Some(trivial) = trivial_small_k(g, q, k) {
        return Ok(trivial);
    }

    // Step 1: the k-ĉore containing q, sorted by distance from q (X_1 = q).
    let mut x = match ctx.global_kcore_of_q() {
        Some(x) => x,
        None => return Ok(None),
    };
    let q_pos = ctx.q_pos();
    x.sort_by(|&a, &b| {
        g.position(a)
            .distance(q_pos)
            .partial_cmp(&g.position(b).distance(q_pos))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let dist_q: Vec<f64> = x.iter().map(|&v| g.position(v).distance(q_pos)).collect();

    // The whole k-ĉore is always feasible; start from it so that even degenerate
    // configurations (e.g. all candidate triples collinear with huge circles)
    // return a valid community.
    let mut best = Community::new(g, x.clone());
    let mut best_radius = best.mcc.radius;

    // Every evaluated circle has radius < best_radius and must contain q to be
    // feasible, so its members lie within 2·best_radius of q (Lemma 1): one
    // q-centred candidate view over X covers the whole triple enumeration,
    // with no per-circle pass over X.
    ctx.begin_sweep(q_pos, sweep_cover_radius(best_radius), &x);

    // Enumerate triples {X_i, X_j, X_h} with j < h < i, i being the farthest of the
    // three from q, exactly as Algorithm 1 does.
    let len = x.len();
    for i in 2..len {
        // Early termination (Algorithm 1 line 13): every member of a community with
        // MCC radius < best_radius lies within 2·best_radius of q, so once X_i is
        // farther than that no better community can involve X_i or anything beyond.
        if dist_q[i] > 2.0 * best_radius {
            break;
        }
        for j in 0..i.saturating_sub(1) {
            for h in (j + 1)..i {
                let mcc =
                    Circle::mcc_of_three(g.position(x[i]), g.position(x[j]), g.position(x[h]));
                if mcc.radius >= best_radius {
                    continue;
                }
                if let Some(members) = ctx.probe_circle(&mcc) {
                    let community = Community::new(g, members);
                    // The community's own MCC can only be smaller than the probe
                    // circle; keep the tighter value.
                    if community.mcc.radius < best_radius {
                        best_radius = community.mcc.radius;
                        best = community;
                    } else {
                        best_radius = best_radius.min(mcc.radius);
                    }
                }
            }
        }
    }
    Ok(Some(best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, figure3_graph, figure3_optimal_members};
    use sac_geom::minimum_enclosing_circle;

    #[test]
    fn finds_the_optimal_community_of_the_paper_example() {
        let g = figure3_graph();
        let best = exact(&g, figure3::Q, 2).unwrap().unwrap();
        assert_eq!(best.members(), figure3_optimal_members().as_slice());
        let expected =
            minimum_enclosing_circle(&g.positions_of(&figure3_optimal_members())).unwrap();
        assert!((best.radius() - expected.radius).abs() < 1e-9);
    }

    #[test]
    fn optimal_radius_is_no_larger_than_any_feasible_triangle() {
        let g = figure3_graph();
        let best = exact(&g, figure3::Q, 2).unwrap().unwrap();
        // {Q, A, B} is feasible, so the optimum is at most its radius.
        let c2 = minimum_enclosing_circle(&g.positions_of(&[0, 1, 2])).unwrap();
        assert!(best.radius() <= c2.radius + 1e-9);
    }

    #[test]
    fn right_component_and_infeasible_cases() {
        let g = figure3_graph();
        let best = exact(&g, figure3::F, 2).unwrap().unwrap();
        assert_eq!(best.members(), &[figure3::F, figure3::G, figure3::H]);

        assert!(exact(&g, figure3::I, 2).unwrap().is_none());
        assert!(exact(&g, figure3::Q, 9).unwrap().is_none());
        assert!(exact(&g, 77, 2).is_err());
    }

    #[test]
    fn trivial_k_values() {
        let g = figure3_graph();
        assert_eq!(
            exact(&g, figure3::Q, 0).unwrap().unwrap().members(),
            &[figure3::Q]
        );
        assert_eq!(exact(&g, figure3::Q, 1).unwrap().unwrap().len(), 2);
    }

    #[test]
    fn exact_result_is_a_valid_community() {
        let g = figure3_graph();
        for q in [figure3::Q, figure3::A, figure3::C, figure3::G] {
            let best = exact(&g, q, 2).unwrap().unwrap();
            let members = best.members();
            assert!(members.contains(&q));
            assert!(sac_graph::is_connected_subset(g.graph(), members));
            assert!(sac_graph::min_degree_in_subset(g.graph(), members).unwrap() >= 2);
        }
    }
}
