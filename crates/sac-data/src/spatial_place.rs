//! The paper's synthetic location model (Section 5.1).
//!
//! > "To generate the location of each graph vertex, we first randomly select a
//! > vertex v and give it a random position in the [0,1]×[0,1] space.  Then we
//! > place v's neighbors at random positions, whose distances follow a normal
//! > distribution with mean µ and standard deviation σ.  We repeat this step for
//! > other vertices, starting from v's neighbors, until every vertex is associated
//! > with a location."
//!
//! This produces the spatial homophily real geo-social networks exhibit: graph
//! neighbours tend to be geographically close, which is exactly what makes SAC
//! search meaningful.

use crate::{NormalSampler, DEFAULT_PLACEMENT_MU, DEFAULT_PLACEMENT_SIGMA};
use rand::Rng;
use sac_geom::Point;
use sac_graph::{Graph, VertexId};
use std::collections::VecDeque;

/// Assigns spatial locations to the vertices of a graph following the paper's
/// BFS-ordered neighbour-offset model, with the paper's offset distribution
/// `N(DEFAULT_PLACEMENT_MU, DEFAULT_PLACEMENT_SIGMA²)` = `N(0.09, 0.16²)`.
#[derive(Debug, Clone, Default)]
pub struct SpatialPlacer;

impl SpatialPlacer {
    /// A placer with the paper's offset distribution.
    pub fn new() -> Self {
        SpatialPlacer
    }

    /// Assigns a location in the unit square to every vertex of `graph`.
    ///
    /// Vertices are visited in BFS order from random seeds (one per connected
    /// component); each unplaced vertex is dropped at a normally distributed
    /// distance, in a uniformly random direction, from the already-placed neighbour
    /// that discovered it.  Coordinates are clamped to `[0, 1]²`, matching the
    /// paper's normalisation.
    pub fn place<R: Rng + ?Sized>(&self, graph: &Graph, rng: &mut R) -> Vec<Point> {
        let n = graph.num_vertices();
        let mut positions = vec![Point::ORIGIN; n];
        if n == 0 {
            return positions;
        }
        let mut placed = vec![false; n];
        let mut offset = NormalSampler::new(DEFAULT_PLACEMENT_MU, DEFAULT_PLACEMENT_SIGMA);

        // Random visiting order for the component seeds.
        let mut seeds: Vec<VertexId> = (0..n as VertexId).collect();
        for i in (1..seeds.len()).rev() {
            let j = rng.gen_range(0..=i);
            seeds.swap(i, j);
        }

        let mut queue = VecDeque::new();
        for &seed in &seeds {
            if placed[seed as usize] {
                continue;
            }
            positions[seed as usize] = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            placed[seed as usize] = true;
            queue.push_back(seed);
            while let Some(v) = queue.pop_front() {
                let anchor = positions[v as usize];
                for &u in graph.neighbors(v) {
                    if placed[u as usize] {
                        continue;
                    }
                    let distance = offset.sample(rng).abs();
                    let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                    let p = Point::new(
                        anchor.x + distance * angle.cos(),
                        anchor.y + distance * angle.sin(),
                    )
                    .clamp(0.0, 1.0);
                    positions[u as usize] = p;
                    placed[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
        positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sac_graph::GraphBuilder;

    fn ring_graph(n: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for v in 0..n {
            b.add_edge(v, (v + 1) % n);
        }
        b.build()
    }

    #[test]
    fn every_vertex_gets_a_location_in_the_unit_square() {
        let g = ring_graph(200);
        let placer = SpatialPlacer::new();
        let positions = placer.place(&g, &mut StdRng::seed_from_u64(5));
        assert_eq!(positions.len(), 200);
        assert!(positions
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
    }

    #[test]
    fn neighbours_are_spatially_correlated() {
        // Average neighbour distance should be far below the expected distance of
        // two uniformly random points in the unit square (~0.52).
        let mut rng = StdRng::seed_from_u64(77);
        let g = crate::PowerLawGenerator::new(1500, 4).generate(&mut rng);
        let positions = SpatialPlacer::new().place(&g, &mut rng);
        let mut sum = 0.0;
        let mut count = 0usize;
        for (u, v) in g.edges() {
            sum += positions[u as usize].distance(positions[v as usize]);
            count += 1;
        }
        let avg = sum / count as f64;
        assert!(
            avg < 0.4,
            "average neighbour distance {avg} is not spatially correlated"
        );
    }

    #[test]
    fn disconnected_components_are_all_placed() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.ensure_vertex(5); // isolated vertices 4, 5
        let g = b.build();
        let positions = SpatialPlacer::new().place(&g, &mut StdRng::seed_from_u64(3));
        assert_eq!(positions.len(), 6);
        assert!(positions
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(SpatialPlacer::new()
            .place(&g, &mut StdRng::seed_from_u64(1))
            .is_empty());
    }
}
