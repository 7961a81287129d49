//! `θ-SAC` search and the structure-free "range-only" community (Section 3 and
//! Section 5.2.2 of the paper).

use crate::common::{trivial_small_k, SearchContext};
use crate::{Community, SacError};
use sac_geom::Circle;
use sac_graph::{SpatialGraph, VertexId};

/// `θ-SAC` search: the variant of `Global` that restricts the community to the
/// user-supplied circle `O(q, θ)`.
///
/// The algorithm performs a BFS from `q` over the vertices located inside
/// `O(q, θ)` and returns the connected k-core containing `q` of the subgraph they
/// induce, or `Ok(None)` when no such community exists (for instance when θ is too
/// small — the sensitivity the paper studies in Figure 11).
pub fn theta_sac(
    g: &SpatialGraph,
    q: VertexId,
    k: u32,
    theta: f64,
) -> Result<Option<Community>, SacError> {
    if !theta.is_finite() || theta < 0.0 {
        return Err(SacError::InvalidParameter {
            name: "theta",
            message: format!("must be a finite non-negative number, got {theta}"),
        });
    }
    let mut ctx = SearchContext::new(g, q, k)?;
    if let Some(trivial) = trivial_small_k(g, q, k) {
        // Even the trivial communities must respect the θ constraint.
        return Ok(trivial.filter(|c| {
            c.members()
                .iter()
                .all(|&v| g.distance(q, v) <= theta + 1e-12)
        }));
    }
    let circle = Circle::new(ctx.q_pos(), theta);
    let members = ctx.feasible_in_circle(&circle);
    Ok(members.map(|m| Community::new(g, m)))
}

/// The structure-free community used in Section 5.2.2 (item 3): simply every vertex
/// located inside `O(q, θ)`, with no connectivity or degree requirement.
///
/// The paper uses it to show that location alone is not enough — the average degree
/// of such "communities" is far below `k`.  Returns `Ok(None)` if the circle is
/// empty of vertices (impossible in practice since it always contains `q`).
pub fn range_only(
    g: &SpatialGraph,
    q: VertexId,
    theta: f64,
) -> Result<Option<Community>, SacError> {
    if !theta.is_finite() || theta < 0.0 {
        return Err(SacError::InvalidParameter {
            name: "theta",
            message: format!("must be a finite non-negative number, got {theta}"),
        });
    }
    if (q as usize) >= g.num_vertices() {
        return Err(SacError::QueryVertexOutOfRange(q));
    }
    let circle = Circle::new(g.position(q), theta);
    let mut members = g.vertices_in_circle(&circle);
    if !members.contains(&q) {
        members.push(q);
    }
    if members.is_empty() {
        return Ok(None);
    }
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
