//! `Exact+`: the advanced exact algorithm (Algorithm 5).

use crate::app_acc::{app_acc_detailed_with_ctx, validate_eps_a};
use crate::common::{sweep_cover_radius, trivial_small_k, SearchContext};
use crate::{Community, SacError};
use sac_geom::Circle;
use sac_graph::{SpatialGraph, VertexId};

/// Detailed result of [`exact_plus_detailed`], exposing the pruning statistics the
/// paper reports in Figure 14.
#[derive(Debug, Clone)]
pub struct ExactPlusDetail {
    /// The optimal community Ψ.
    pub community: Community,
    /// Number of potential fixed vertices |F1| after the annular-region pruning
    /// (Figure 14(b) plots this value against εA).
    pub fixed_vertex_candidates: usize,
    /// Number of vertex triples whose MCC was actually evaluated.
    pub triples_evaluated: usize,
    /// Number of anchor cells the embedded `AppAcc` run examined.
    pub cells_examined: usize,
}

/// `Exact+` (Algorithm 5): exact SAC search accelerated by the `AppAcc` bounds.
///
/// The algorithm first runs [`crate::app_acc`] with a small `εA`.  Its result Γ
/// bounds the optimal radius to `[r_Γ/(1+εA), r_Γ]`, and each fixed vertex of the
/// optimal MCC must lie in a narrow annulus around one of the surviving anchor
/// points (Eqs. 7–8).  Only vertices inside those annuli (`F1`) can fix the optimal
/// MCC, so the triple enumeration of `Exact` is restricted to `F1` with the
/// Lemma 2 distance constraints — in practice |F1| is tiny, which makes `Exact+`
/// around four orders of magnitude faster than `Exact`.
///
/// To remain exact when the optimal MCC is fixed by only two (diametral) vertices —
/// whose accompanying third member need not lie in the annulus — diametral pairs
/// from `F1` are enumerated as well.
///
/// Returns `Ok(None)` when no feasible community exists.
pub fn exact_plus(
    g: &SpatialGraph,
    q: VertexId,
    k: u32,
    eps_a: f64,
) -> Result<Option<Community>, SacError> {
    Ok(exact_plus_detailed(g, q, k, eps_a)?.map(|d| d.community))
}

/// Like [`exact_plus`] but also returns pruning statistics.
pub fn exact_plus_detailed(
    g: &SpatialGraph,
    q: VertexId,
    k: u32,
    eps_a: f64,
) -> Result<Option<ExactPlusDetail>, SacError> {
    let mut ctx = SearchContext::new(g, q, k)?;
    exact_plus_detailed_with_ctx(&mut ctx, eps_a)
}

/// `Exact+` over an existing [`SearchContext`]: a context carrying a shared
/// k-core index accelerates the embedded `AppAcc` bootstrap.
pub(crate) fn exact_plus_detailed_with_ctx(
    ctx: &mut SearchContext<'_>,
    eps_a: f64,
) -> Result<Option<ExactPlusDetail>, SacError> {
    let (g, q, k) = (ctx.g, ctx.q, ctx.k);
    if let Some(trivial) = trivial_small_k(g, q, k) {
        return Ok(trivial.map(|community| ExactPlusDetail {
            community,
            fixed_vertex_candidates: 0,
            triples_evaluated: 0,
            cells_examined: 0,
        }));
    }

    // Line 2: run AppAcc (sharing this context's scratch and k-core index).
    validate_eps_a(eps_a)?;
    let detail = match app_acc_detailed_with_ctx(ctx, eps_a)? {
        Some(d) => d,
        None => return Ok(None),
    };
    let r_gamma = detail.radius;
    let beta = detail.final_cell_width;
    let s = &detail.candidate_vertices;

    // Degenerate optimum: a zero-radius community cannot be improved.
    if r_gamma <= f64::EPSILON {
        return Ok(Some(ExactPlusDetail {
            community: detail.community,
            fixed_vertex_candidates: 0,
            triples_evaluated: 0,
            cells_examined: detail.cells_examined,
        }));
    }

    // Lines 3–5: the annular region around every surviving anchor point.
    let half_diag = std::f64::consts::FRAC_1_SQRT_2 * beta;
    let r_plus = r_gamma + half_diag;
    let r_minus = (r_gamma / (1.0 + eps_a) - half_diag).max(0.0);
    // S is sorted by id and duplicate-free, so F1 is too.  Fallback (e.g.
    // every cell was pruned because the AppAcc seed is already optimal):
    // every candidate vertex is a potential fixed vertex.
    let f1: Vec<VertexId> = s
        .iter()
        .copied()
        .filter(|&v| {
            detail.active_cells.is_empty()
                || detail.active_cells.iter().any(|cell| {
                    let d = g.position(v).distance(cell.center);
                    d >= r_minus && d <= r_plus
                })
        })
        .collect();

    let r_opt_lower = r_gamma / (1.0 + eps_a);
    let mut best_members = detail.community.members().to_vec();
    let mut r_cur = r_gamma;
    let mut triples = 0usize;

    // Every candidate circle below has radius < r_cur ≤ r_Γ and must contain
    // q to be feasible, so its members lie within 2·r_Γ of q: one q-centred
    // candidate view over S serves the diametral-pair and triple loops
    // with no per-circle pass over S.
    ctx.begin_sweep(ctx.q_pos(), sweep_cover_radius(r_gamma), s);

    // Helper evaluating one candidate circle.
    let consider = |circle: &Circle,
                    ctx: &mut SearchContext<'_>,
                    r_cur: &mut f64,
                    best_members: &mut Vec<VertexId>| {
        if circle.radius >= *r_cur {
            return;
        }
        if let Some(members) = ctx.probe_circle(circle) {
            let community = Community::new(g, members);
            if community.mcc.radius < *r_cur {
                *r_cur = community.mcc.radius;
                *best_members = community.vertices;
            }
        }
    };

    // Diametral pairs (the two-fixed-vertex case of Lemma 1).
    for (idx1, &v1) in f1.iter().enumerate() {
        let p1 = g.position(v1);
        for &v2 in &f1[idx1 + 1..] {
            let p2 = g.position(v2);
            let d = p1.distance(p2);
            if d > 2.0 * r_cur {
                continue;
            }
            let circle = Circle::from_diameter(p1, p2);
            triples += 1;
            consider(&circle, &mut *ctx, &mut r_cur, &mut best_members);
        }
    }

    // Triples (lines 6–16), with the Lemma 2 constraints: v2 is v1's farthest fixed
    // vertex, so √3·r_opt ≤ |v1, v2| ≤ 2·r_opt, and |v1, v3| ≤ |v1, v2|.
    let sqrt3 = 3.0f64.sqrt();
    for (idx1, &v1) in f1.iter().enumerate() {
        let p1 = g.position(v1);
        for (idx2, &v2) in f1.iter().enumerate() {
            if idx2 == idx1 {
                continue;
            }
            let p2 = g.position(v2);
            let d12 = p1.distance(p2);
            if d12 < sqrt3 * r_opt_lower - 1e-12 || d12 > 2.0 * r_cur + 1e-12 {
                continue;
            }
            for &v3 in &f1 {
                if v3 == v1 || v3 == v2 {
                    continue;
                }
                let p3 = g.position(v3);
                if p1.distance(p3) > d12 + 1e-12 {
                    continue;
                }
                let circle = Circle::mcc_of_three(p1, p2, p3);
                triples += 1;
                consider(&circle, &mut *ctx, &mut r_cur, &mut best_members);
            }
        }
    }

    Ok(Some(ExactPlusDetail {
        community: Community::new(g, best_members),
        fixed_vertex_candidates: f1.len(),
        triples_evaluated: triples,
        cells_examined: detail.cells_examined,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact;
    use crate::fixtures::{figure3, figure3_graph, figure3_optimal_members};

    #[test]
    fn matches_exact_on_the_paper_example() {
        let g = figure3_graph();
        let plus = exact_plus(&g, figure3::Q, 2, 1e-3).unwrap().unwrap();
        let basic = exact(&g, figure3::Q, 2).unwrap().unwrap();
        assert_eq!(plus.members(), figure3_optimal_members().as_slice());
        assert!((plus.radius() - basic.radius()).abs() < 1e-9);
    }

    #[test]
    fn matches_exact_for_every_feasible_query_vertex() {
        let g = figure3_graph();
        for q in [
            figure3::Q,
            figure3::A,
            figure3::B,
            figure3::C,
            figure3::D,
            figure3::E,
            figure3::F,
            figure3::G,
            figure3::H,
        ] {
            let plus = exact_plus(&g, q, 2, 1e-3).unwrap().unwrap();
            let basic = exact(&g, q, 2).unwrap().unwrap();
            assert!(
                (plus.radius() - basic.radius()).abs() < 1e-6,
                "query {q}: Exact+ radius {} vs Exact radius {}",
                plus.radius(),
                basic.radius()
            );
        }
    }

    #[test]
    fn larger_eps_keeps_exactness_but_changes_pruning() {
        let g = figure3_graph();
        let fine = exact_plus_detailed(&g, figure3::Q, 2, 1e-4)
            .unwrap()
            .unwrap();
        let coarse = exact_plus_detailed(&g, figure3::Q, 2, 0.5)
            .unwrap()
            .unwrap();
        // Both are exact...
        assert!((fine.community.radius() - coarse.community.radius()).abs() < 1e-9);
        // ... and the annulus (hence F1) grows with εA, as Figure 14(b) reports.
        assert!(coarse.fixed_vertex_candidates >= fine.fixed_vertex_candidates);
    }

    #[test]
    fn infeasible_and_invalid_inputs() {
        let g = figure3_graph();
        assert!(exact_plus(&g, figure3::I, 2, 1e-3).unwrap().is_none());
        assert!(exact_plus(&g, figure3::Q, 9, 1e-3).unwrap().is_none());
        assert!(exact_plus(&g, 44, 2, 1e-3).is_err());
        assert!(exact_plus(&g, figure3::Q, 2, 0.0).is_err());
        assert!(exact_plus(&g, figure3::Q, 2, 1.5).is_err());
    }

    #[test]
    fn trivial_k_values() {
        let g = figure3_graph();
        assert_eq!(
            exact_plus(&g, figure3::Q, 0, 1e-3)
                .unwrap()
                .unwrap()
                .members(),
            &[figure3::Q]
        );
        assert_eq!(
            exact_plus(&g, figure3::Q, 1, 1e-3).unwrap().unwrap().len(),
            2
        );
    }

    #[test]
    fn result_is_a_valid_community() {
        let g = figure3_graph();
        for q in [figure3::Q, figure3::C, figure3::G] {
            let out = exact_plus(&g, q, 2, 1e-3).unwrap().unwrap();
            let members = out.members();
            assert!(members.contains(&q));
            assert!(sac_graph::is_connected_subset(g.graph(), members));
            assert!(sac_graph::min_degree_in_subset(g.graph(), members).unwrap() >= 2);
        }
    }
}
