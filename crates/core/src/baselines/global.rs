//! The `Global` community-search baseline.

use crate::{Community, SacError, SearchContext};
use sac_graph::{connected_kcore, SpatialGraph, VertexId};

/// `Global` (Sozio & Gionis): returns the connected k-core (k-ĉore) of the whole
/// graph that contains `q`, ignoring vertex locations.
///
/// This is Step 1 of the paper's two-step framework and the baseline whose
/// communities the paper reports to be ~50× more spread out than SAC search
/// results.
///
/// Returns `Ok(None)` when `q` is not part of any k-core.
pub fn global_search(g: &SpatialGraph, q: VertexId, k: u32) -> Result<Option<Community>, SacError> {
    if (q as usize) >= g.num_vertices() {
        return Err(SacError::QueryVertexOutOfRange(q));
    }
    if k == 0 {
        return Ok(Some(Community::new(g, vec![q])));
    }
    Ok(connected_kcore(g.graph(), q, k).map(|members| Community::new(g, members)))
}

/// [`global_search`] over an existing [`SearchContext`]: Step 1 is read from
/// the context, so a context carrying a shared k-core index answers with a
/// slice copy instead of a full peel.
pub(crate) fn global_search_with_ctx(ctx: &SearchContext<'_>) -> Option<Community> {
    if ctx.k == 0 {
        return Some(Community::new(ctx.g, vec![ctx.q]));
    }
    ctx.global_kcore_of_q()
        .map(|members| Community::new(ctx.g, members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact;
    use crate::fixtures::{figure3, figure3_graph};

    #[test]
    fn returns_the_whole_kcore_component() {
        let g = figure3_graph();
        let c = global_search(&g, figure3::Q, 2).unwrap().unwrap();
        assert_eq!(c.members(), &[0, 1, 2, 3, 4, 5]);
        let right = global_search(&g, figure3::G, 2).unwrap().unwrap();
        assert_eq!(right.members(), &[6, 7, 8]);
    }

    #[test]
    fn global_is_spatially_looser_than_sac_search() {
        let g = figure3_graph();
        let global = global_search(&g, figure3::Q, 2).unwrap().unwrap();
        let sac = exact(&g, figure3::Q, 2).unwrap().unwrap();
        assert!(global.radius() > sac.radius());
    }

    #[test]
    fn edge_cases() {
        let g = figure3_graph();
        assert!(global_search(&g, figure3::I, 2).unwrap().is_none());
        assert!(global_search(&g, 21, 2).is_err());
        assert_eq!(
            global_search(&g, figure3::Q, 0).unwrap().unwrap().members(),
            &[figure3::Q]
        );
        // k = 1: the whole connected component survives.
        let c = global_search(&g, figure3::I, 1).unwrap().unwrap();
        assert!(c.contains(figure3::I));
        assert!(c.contains(figure3::H));
    }
}
