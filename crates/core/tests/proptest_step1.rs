//! Property test of the paper's Step 1 (the k-ĉore containing `q`) across
//! the three sources a `SearchContext` can read it from: a full peel
//! (`new`), a shared core decomposition (`with_decomposition`) and the
//! per-`k` component index (`with_components`, the serving engine's path).
//! Every query vertex and every `k` from 0 to one past the degeneracy must
//! get the identical sorted vertex set from all three.  `θ-SAC`, which
//! filters that k-ĉore by its circle, must equal an oracle that reads every
//! vertex instead: a brute-force `Circle::contains` scan of all positions
//! plus one subset peel.  That checks the claim the filter rests on, that
//! every connected k-core containing `q` lies in the k-ĉore.

use proptest::prelude::*;
use sac_core::{Algorithm, SacQuery, SearchContext};
use sac_geom::{Circle, Point};
use sac_graph::{
    core_decomposition, GraphBuilder, KCoreComponents, KCoreSolver, SpatialGraph, VertexId,
};
use std::sync::Arc;

/// A random small spatial graph: `n` vertices in the unit square, random edges.
fn arb_spatial_graph() -> impl Strategy<Value = SpatialGraph> {
    (5usize..18)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), n..(n * 4));
            let coords = proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), n);
            (Just(n), edges, coords)
        })
        .prop_map(|(n, edges, coords)| {
            let mut b = GraphBuilder::new();
            b.ensure_vertex(n as u32 - 1);
            b.add_edges(edges);
            let positions: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            SpatialGraph::new(b.build(), positions).expect("valid random graph")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn step1_is_identical_from_every_source(g in arb_spatial_graph()) {
        let decomposition = Arc::new(core_decomposition(g.graph()));
        for k in 0..=decomposition.max_core() + 1 {
            let components = Arc::new(KCoreComponents::build(g.graph(), &decomposition, k));
            for q in 0..g.num_vertices() as VertexId {
                let peel = SearchContext::new(&g, q, k).unwrap().global_kcore_of_q();
                let decomp = SearchContext::with_decomposition(&g, q, k, decomposition.clone())
                    .unwrap()
                    .global_kcore_of_q();
                let index = SearchContext::with_components(&g, q, k, components.clone())
                    .unwrap()
                    .global_kcore_of_q();
                prop_assert_eq!(&decomp, &peel, "with_decomposition, q = {}, k = {}", q, k);
                prop_assert_eq!(&index, &peel, "with_components, q = {}, k = {}", q, k);
            }
        }
    }

    #[test]
    fn theta_sac_matches_a_scan_of_every_vertex(
        g in arb_spatial_graph(),
        thetas in proptest::collection::vec((0u32..2, 0u32..18, 0.0f64..1.6), 1..4),
    ) {
        let decomposition = Arc::new(core_decomposition(g.graph()));
        let mut solver = KCoreSolver::new(g.num_vertices());
        for k in 2..=decomposition.max_core() + 1 {
            let components = Arc::new(KCoreComponents::build(g.graph(), &decomposition, k));
            for q in 0..g.num_vertices() as VertexId {
                for &(pick, j, r) in &thetas {
                    // Half the radii are the exact distance from q to a
                    // vertex, which then sits on the circle's boundary.
                    let theta = if pick == 0 {
                        g.position(q).distance(g.position(j % g.num_vertices() as u32))
                    } else {
                        r
                    };
                    let circle = Circle::new(g.position(q), theta);
                    let inside: Vec<VertexId> = (0..g.num_vertices() as VertexId)
                        .filter(|&v| circle.contains(g.position(v)))
                        .collect();
                    let oracle = solver.kcore_containing(g.graph(), &inside, q, k);
                    let query = SacQuery::new(q, k).with_theta(theta);
                    for (source, ctx) in [
                        ("new", SearchContext::new(&g, q, k)),
                        (
                            "with_decomposition",
                            SearchContext::with_decomposition(&g, q, k, decomposition.clone()),
                        ),
                        (
                            "with_components",
                            SearchContext::with_components(&g, q, k, components.clone()),
                        ),
                    ] {
                        let got = Algorithm::ThetaSac
                            .run(&mut ctx.unwrap(), &query)
                            .unwrap()
                            .community
                            .map(|c| c.members().to_vec());
                        prop_assert_eq!(
                            &got, &oracle,
                            "{}, q = {}, k = {}, theta = {}", source, q, k, theta
                        );
                    }
                }
            }
        }
    }
}
