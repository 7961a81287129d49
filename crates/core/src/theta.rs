//! `θ-SAC` search and the structure-free "range-only" community (Section 3 and
//! Section 5.2.2 of the paper).

use crate::common::{trivial_small_k, SearchContext};
use crate::{Community, SacError};
use sac_geom::Circle;
use sac_graph::{SpatialGraph, VertexId};

/// `θ-SAC` search: the variant of `Global` that restricts the community to the
/// user-supplied circle `O(q, θ)`.
///
/// The algorithm keeps the vertices of the k-ĉore containing `q` that lie
/// inside `O(q, θ)` and returns the connected k-core containing `q` of the
/// subgraph they induce, or `Ok(None)` when no such community exists (for
/// instance when θ is too small — the sensitivity the paper studies in
/// Figure 11).  Every connected k-core containing `q` lies in that k-ĉore,
/// so the answer is the one over every vertex inside the circle.
pub fn theta_sac(
    g: &SpatialGraph,
    q: VertexId,
    k: u32,
    theta: f64,
) -> Result<Option<Community>, SacError> {
    validate_theta(theta)?;
    let mut ctx = SearchContext::new(g, q, k)?;
    Ok(theta_sac_with_ctx(&mut ctx, theta))
}

/// Validates the `θ` parameter shared by [`theta_sac`] and [`range_only`].
pub(crate) fn validate_theta(theta: f64) -> Result<(), SacError> {
    if !theta.is_finite() || theta < 0.0 {
        return Err(SacError::InvalidParameter {
            name: "theta",
            message: format!("must be a finite non-negative number, got {theta}"),
        });
    }
    Ok(())
}

/// `θ-SAC` over an existing [`SearchContext`] (assumes `theta` validated):
/// when the context carries a shared k-core index, Step 1 reads the k-ĉore
/// from it without a peel or a copy.
pub(crate) fn theta_sac_with_ctx(ctx: &mut SearchContext<'_>, theta: f64) -> Option<Community> {
    let (g, q, k) = (ctx.g, ctx.q, ctx.k);
    let circle = Circle::new(ctx.q_pos(), theta);
    if let Some(trivial) = trivial_small_k(g, q, k) {
        // Even the trivial communities must respect the θ constraint.
        return trivial.filter(|c| c.members().iter().all(|&v| circle.contains(g.position(v))));
    }
    ctx.with_kcore_of_q(|ctx, x| ctx.feasible_in_circle(&circle, x))
        .flatten()
        .map(|members| Community::new(g, members))
}

/// The structure-free community used in Section 5.2.2 (item 3): simply every vertex
/// located inside `O(q, θ)`, with no connectivity or degree requirement.
///
/// The paper uses it to show that location alone is not enough — the average degree
/// of such "communities" is far below `k`.  The circle always contains `q`
/// itself, so a valid query always returns `Ok(Some(_))`.
pub fn range_only(
    g: &SpatialGraph,
    q: VertexId,
    theta: f64,
) -> Result<Option<Community>, SacError> {
    validate_theta(theta)?;
    if (q as usize) >= g.num_vertices() {
        return Err(SacError::QueryVertexOutOfRange(q));
    }
    let circle = Circle::new(g.position(q), theta);
    let members = (0..g.num_vertices() as VertexId)
        .filter(|&v| circle.contains(g.position(v)))
        .collect();
    Ok(Some(Community::new(g, members)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact;
    use crate::fixtures::{figure3, figure3_graph};
    use crate::metrics;

    #[test]
    fn small_theta_yields_no_community() {
        let g = figure3_graph();
        // θ below the distance to Q's 2nd-nearest neighbour: no 2-core possible.
        assert!(theta_sac(&g, figure3::Q, 2, 1.0).unwrap().is_none());
    }

    #[test]
    fn growing_theta_grows_the_community() {
        let g = figure3_graph();
        // Moderate θ: both nearby triangles fit, E does not.
        let mid = theta_sac(&g, figure3::Q, 2, 2.5).unwrap().unwrap();
        assert_eq!(mid.members(), &[0, 1, 2, 3, 4]);
        // Large θ: the whole left 2-ĉore is returned.
        let large = theta_sac(&g, figure3::Q, 2, 10.0).unwrap().unwrap();
        assert_eq!(large.members(), &[0, 1, 2, 3, 4, 5]);
        assert!(mid.radius() <= large.radius());
    }

    #[test]
    fn theta_sac_is_never_tighter_than_sac_search() {
        // Figure 11(b): the MCC radius of θ-SAC results is larger than (or equal
        // to) the optimum found by SAC search.
        let g = figure3_graph();
        let optimal = exact(&g, figure3::Q, 2).unwrap().unwrap();
        for theta in [2.5, 3.0, 5.0, 10.0] {
            if let Some(c) = theta_sac(&g, figure3::Q, 2, theta).unwrap() {
                assert!(c.radius() + 1e-9 >= optimal.radius());
            }
        }
    }

    #[test]
    fn invalid_parameters() {
        let g = figure3_graph();
        assert!(theta_sac(&g, figure3::Q, 2, -1.0).is_err());
        assert!(theta_sac(&g, figure3::Q, 2, f64::NAN).is_err());
        assert!(theta_sac(&g, 99, 2, 1.0).is_err());
        assert!(range_only(&g, 99, 1.0).is_err());
        assert!(range_only(&g, figure3::Q, f64::INFINITY).is_err());
    }

    #[test]
    fn trivial_k_respects_theta() {
        let g = figure3_graph();
        // k = 1 community is {Q, B}; B is ~1.87 away, so θ = 1 filters it out.
        assert!(theta_sac(&g, figure3::Q, 1, 1.0).unwrap().is_none());
        assert!(theta_sac(&g, figure3::Q, 1, 2.0).unwrap().is_some());
        // k = 0 is always {q}, distance 0.
        assert_eq!(
            theta_sac(&g, figure3::Q, 0, 0.0)
                .unwrap()
                .unwrap()
                .members(),
            &[figure3::Q]
        );
    }

    #[test]
    fn trivial_k_uses_the_circle_inclusion_bound() {
        // A triangle whose two neighbours of Q sit just past θ = 1, inside
        // the `Circle::contains` tolerance band (1 + 2e-9 at θ = 1).
        let mut b = sac_graph::GraphBuilder::new();
        b.add_edges([(0, 1), (1, 2), (0, 2)]);
        let positions = vec![
            sac_geom::Point::new(0.0, 0.0),
            sac_geom::Point::new(1.0 + 1e-9, 0.0),
            sac_geom::Point::new(0.0, 1.0 + 1.5e-9),
        ];
        let g = SpatialGraph::new(b.build(), positions).unwrap();
        let k2 = theta_sac(&g, 0, 2, 1.0).unwrap().unwrap();
        assert_eq!(k2.members(), &[0, 1, 2]);
        // k = 1 keeps the nearest neighbour under the same bound as k = 2.
        let k1 = theta_sac(&g, 0, 1, 1.0).unwrap().unwrap();
        assert_eq!(k1.members(), &[0, 1]);
        assert!(theta_sac(&g, 0, 1, 0.999).unwrap().is_none());
    }

    #[test]
    fn range_only_has_low_structure_cohesiveness() {
        let g = figure3_graph();
        let c = range_only(&g, figure3::Q, 2.1).unwrap().unwrap();
        // Contains Q, A, B (within 2.1) plus C, D at ~2.06.
        assert!(c.contains(figure3::Q));
        assert!(c.len() >= 3);
        // Average degree within a range-only community is low compared to k-core
        // communities over the same area (the paper's point in §5.2.2 item 3).
        let avg = metrics::average_degree_within(&g, c.members());
        let kcore_avg = metrics::average_degree_within(
            &g,
            theta_sac(&g, figure3::Q, 2, 2.5)
                .unwrap()
                .unwrap()
                .members(),
        );
        assert!(avg <= kcore_avg + 1e-9);
    }
}
