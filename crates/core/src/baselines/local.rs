//! The `Local` community-search baseline.

use crate::{Community, SacError, SearchContext};
use sac_graph::{connected_kcore, KCoreSolver, SpatialGraph, VertexId};

/// `Local` (after Cui et al., SIGMOD 2014): local expansion from the query vertex.
///
/// Starting from `C = {q}`, the algorithm repeatedly absorbs the candidate vertex
/// with the most edges into `C` (ties broken towards lower full-graph degree, which
/// keeps the expansion tight), and after each absorption checks whether `G[C]`
/// already contains a connected k-core with `q`.  The first such k-core is
/// returned.
///
/// This is a faithful simplification of the `Local` algorithm's contract — a
/// minimum-degree-`k` community discovered by local expansion rather than by
/// peeling the whole graph — and reproduces the behaviour the paper reports:
/// `Local` communities are much smaller than `Global`'s but still spatially
/// dispersed, because the expansion ignores locations.
///
/// Candidates are restricted to the k-ĉore containing `q`, which guarantees
/// termination with a feasible answer whenever one exists.
///
/// Returns `Ok(None)` when `q` is not part of any k-core.
pub fn local_search(g: &SpatialGraph, q: VertexId, k: u32) -> Result<Option<Community>, SacError> {
    if (q as usize) >= g.num_vertices() {
        return Err(SacError::QueryVertexOutOfRange(q));
    }
    if k == 0 {
        return Ok(Some(Community::new(g, vec![q])));
    }
    Ok(connected_kcore(g.graph(), q, k).map(|universe| expand(g, q, k, universe)))
}

/// [`local_search`] over an existing [`SearchContext`]: Step 1 (the
/// expansion's universe) is read from the context, so a context carrying a
/// shared k-core index skips the full peel.
pub(crate) fn local_search_with_ctx(ctx: &SearchContext<'_>) -> Option<Community> {
    if ctx.k == 0 {
        return Some(Community::new(ctx.g, vec![ctx.q]));
    }
    ctx.global_kcore_of_q()
        .map(|universe| expand(ctx.g, ctx.q, ctx.k, universe))
}

/// The local expansion from `q` inside `universe`, the k-ĉore containing `q`.
fn expand(g: &SpatialGraph, q: VertexId, k: u32, universe: Vec<VertexId>) -> Community {
    let n = g.num_vertices();
    let mut in_universe = vec![false; n];
    for &v in &universe {
        in_universe[v as usize] = true;
    }

    let mut in_c = vec![false; n];
    let mut in_frontier = vec![false; n];
    let mut links_into_c = vec![0u32; n];
    let mut c: Vec<VertexId> = Vec::new();
    let mut frontier: Vec<VertexId> = Vec::new();
    let mut solver = KCoreSolver::new(n);

    let absorb = |v: VertexId,
                  c: &mut Vec<VertexId>,
                  in_c: &mut Vec<bool>,
                  frontier: &mut Vec<VertexId>,
                  in_frontier: &mut Vec<bool>,
                  links_into_c: &mut Vec<u32>| {
        in_c[v as usize] = true;
        c.push(v);
        for &u in g.neighbors(v) {
            if !in_universe[u as usize] {
                continue;
            }
            links_into_c[u as usize] += 1;
            if !in_c[u as usize] && !in_frontier[u as usize] {
                in_frontier[u as usize] = true;
                frontier.push(u);
            }
        }
    };

    absorb(
        q,
        &mut c,
        &mut in_c,
        &mut frontier,
        &mut in_frontier,
        &mut links_into_c,
    );

    while !frontier.is_empty() {
        // Pick the frontier vertex with the most links into C; break ties towards
        // lower graph degree to keep the community small.
        let (pos, &next) = frontier
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| {
                (
                    links_into_c[v as usize],
                    std::cmp::Reverse(g.degree(v)),
                    std::cmp::Reverse(v),
                )
            })
            .expect("frontier is non-empty");
        frontier.swap_remove(pos);
        in_frontier[next as usize] = false;
        absorb(
            next,
            &mut c,
            &mut in_c,
            &mut frontier,
            &mut in_frontier,
            &mut links_into_c,
        );

        // Cheap necessary condition before the full check: q needs k neighbours in C.
        if links_into_c[q as usize] < k {
            continue;
        }
        if let Some(members) = solver.kcore_containing(g.graph(), &c, q, k) {
            return Community::new(g, members);
        }
    }
    // The universe itself is a k-ĉore, so the loop always finds a community before
    // exhausting the frontier; this is a defensive fallback.
    Community::new(g, universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::global_search;
    use crate::fixtures::{figure3, figure3_graph};
    use sac_graph::{is_connected_subset, min_degree_in_subset};

    #[test]
    fn finds_a_valid_community_no_larger_than_global() {
        let g = figure3_graph();
        for q in [figure3::Q, figure3::A, figure3::C, figure3::F] {
            let local = local_search(&g, q, 2).unwrap().unwrap();
            let global = global_search(&g, q, 2).unwrap().unwrap();
            assert!(local.contains(q));
            assert!(is_connected_subset(g.graph(), local.members()));
            assert!(min_degree_in_subset(g.graph(), local.members()).unwrap() >= 2);
            assert!(local.len() <= global.len());
        }
    }

    #[test]
    fn local_expansion_stops_early() {
        // From Q the expansion should find a triangle (3 vertices) rather than the
        // whole 6-vertex 2-ĉore.
        let g = figure3_graph();
        let local = local_search(&g, figure3::Q, 2).unwrap().unwrap();
        assert!(local.len() < 6);
        assert!(local.len() >= 3);
    }

    #[test]
    fn edge_cases() {
        let g = figure3_graph();
        assert!(local_search(&g, figure3::I, 2).unwrap().is_none());
        assert!(local_search(&g, 33, 2).is_err());
        assert_eq!(
            local_search(&g, figure3::Q, 0).unwrap().unwrap().members(),
            &[figure3::Q]
        );
        // k = 1 over the right component.
        let c = local_search(&g, figure3::I, 1).unwrap().unwrap();
        assert!(c.contains(figure3::I));
        assert!(min_degree_in_subset(g.graph(), c.members()).unwrap() >= 1);
    }
}
