//! The spatial view of a graph: vertices with locations plus a spatial index.

use crate::{Graph, GraphError, VertexId};
use sac_geom::{Circle, GridIndex, Point};

/// A geo-social graph: an undirected [`Graph`] in which every vertex has a
/// two-dimensional location, plus a grid index for fast spatial queries.
///
/// This is the paper's data model (`G(V, E)` with `(v.x, v.y)` per vertex).  All SAC
/// search algorithms take a `&SpatialGraph`.
#[derive(Debug, Clone)]
pub struct SpatialGraph {
    // NOTE: keep this type free of interior mutability.  `sac-engine` serves
    // immutable `Arc<SpatialGraph>` snapshots across threads; the static
    // assertion at the bottom of this file enforces `Send + Sync`.
    graph: Graph,
    /// The grid owns the vertex positions; [`SpatialGraph::positions`]
    /// reads through it, so each snapshot stores them once.
    index: GridIndex,
}

impl SpatialGraph {
    /// Pairs a graph with vertex positions.
    ///
    /// Returns an error when the number of positions differs from the number of
    /// vertices, when a position is not finite, or when the graph is empty.
    pub fn new(graph: Graph, positions: Vec<Point>) -> Result<Self, GraphError> {
        if positions.len() != graph.num_vertices() {
            return Err(GraphError::PositionCountMismatch {
                vertices: graph.num_vertices(),
                positions: positions.len(),
            });
        }
        if graph.num_vertices() == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(i) = positions.iter().position(|p| !p.is_finite()) {
            return Err(GraphError::InvalidPosition(i as VertexId));
        }
        let index = GridIndex::build(positions, 8).expect("non-empty positions");
        Ok(SpatialGraph { graph, index })
    }

    /// The underlying graph topology.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Location of vertex `v`.
    #[inline]
    pub fn position(&self, v: VertexId) -> Point {
        self.index.point(v)
    }

    /// All vertex positions, indexed by vertex id.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        self.index.points()
    }

    /// Euclidean distance between the locations of two vertices (the paper's
    /// `|u, v|`).
    #[inline]
    pub fn distance(&self, u: VertexId, v: VertexId) -> f64 {
        self.position(u).distance(self.position(v))
    }

    /// Neighbours of `v` (delegates to the graph).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.graph.neighbors(v)
    }

    /// Degree of `v` in the full graph.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.graph.degree(v)
    }

    /// All vertices whose location lies inside `circle`.
    pub fn vertices_in_circle(&self, circle: &Circle) -> Vec<VertexId> {
        self.index.query_circle(circle)
    }

    /// Appends the vertices inside `circle` to `out` (cleared first); avoids
    /// allocation in tight loops.
    pub fn vertices_in_circle_into(&self, circle: &Circle, out: &mut Vec<VertexId>) {
        self.index.query_circle_into(circle, out);
    }

    /// Number of vertices inside `circle`.
    pub fn count_in_circle(&self, circle: &Circle) -> usize {
        self.index.count_in_circle(circle)
    }

    /// The distance-ordered candidate view of the ball `O(center, r_max)`:
    /// one grid range query plus one sort, appended to `out` (cleared first)
    /// as `(vertex, distance² from center)` in ascending distance order,
    /// ties broken by vertex id.
    ///
    /// Because the grid query shares its inclusion bound with
    /// [`Circle::contains`] (see [`sac_geom::Circle::contains_bound_sq`]) and
    /// that bound is monotone in the radius, the vertex set of **any** circle
    /// `O(center, r)` with `r ≤ r_max` is exactly a prefix of this array —
    /// the foundation of the incremental radius-sweep solver
    /// ([`crate::RadiusSweepSolver`]).
    pub fn vertices_by_distance_into(
        &self,
        center: Point,
        r_max: f64,
        scratch: &mut Vec<VertexId>,
        out: &mut Vec<(VertexId, f64)>,
    ) {
        out.clear();
        self.index
            .query_circle_into(&Circle::new(center, r_max.max(0.0)), scratch);
        out.extend(
            scratch
                .iter()
                .map(|&v| (v, self.position(v).distance_sq(center))),
        );
        out.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
    }

    /// Allocating convenience wrapper of
    /// [`SpatialGraph::vertices_by_distance_into`].
    pub fn vertices_by_distance(&self, center: Point, r_max: f64) -> Vec<(VertexId, f64)> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.vertices_by_distance_into(center, r_max, &mut scratch, &mut out);
        out
    }

    /// The `k` vertices spatially nearest to `point`, as `(vertex, distance)` pairs
    /// in ascending distance order.
    pub fn k_nearest(&self, point: Point, k: usize) -> Vec<(VertexId, f64)> {
        self.index.k_nearest(point, k)
    }

    /// The positions of a vertex subset (e.g. a community) in subset order.
    pub fn positions_of(&self, subset: &[VertexId]) -> Vec<Point> {
        subset.iter().map(|&v| self.position(v)).collect()
    }

    /// Returns a copy of this spatial graph with some vertex positions replaced and
    /// the spatial index rebuilt.
    ///
    /// Used by the dynamic-location experiment (Section 5.2.3): each check-in
    /// updates the position of one user.  Updates are applied in batch and the grid
    /// index is rebuilt once, which keeps the amortised cost low.
    pub fn with_updated_positions(
        &self,
        updates: &[(VertexId, Point)],
    ) -> Result<SpatialGraph, GraphError> {
        let mut positions = self.positions().to_vec();
        for &(v, p) in updates {
            if (v as usize) >= positions.len() {
                return Err(GraphError::VertexOutOfRange(v));
            }
            if !p.is_finite() {
                return Err(GraphError::InvalidPosition(v));
            }
            positions[v as usize] = p;
        }
        SpatialGraph::new(self.graph.clone(), positions)
    }

    /// Replaces vertex positions and rebuilds the spatial index.
    ///
    /// Prefer this over [`SpatialGraph::with_updated_positions`] when the graph does
    /// not need to be kept immutable; it avoids cloning the adjacency arrays.  On an
    /// invalid update nothing changes.
    pub fn apply_position_updates(
        &mut self,
        updates: &[(VertexId, Point)],
    ) -> Result<(), GraphError> {
        let mut positions = self.positions().to_vec();
        for &(v, p) in updates {
            if (v as usize) >= positions.len() {
                return Err(GraphError::VertexOutOfRange(v));
            }
            if !p.is_finite() {
                return Err(GraphError::InvalidPosition(v));
            }
            positions[v as usize] = p;
        }
        self.index = GridIndex::build(positions, 8).expect("non-empty positions");
        Ok(())
    }
}

// Shared read-only serving contract: `sac-engine` hands one snapshot to many
// worker threads behind an `Arc`, so the substrate types must stay `Send + Sync`
// (no interior mutability).  Breaking this is a compile error here rather than a
// distant trait-bound error in the engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpatialGraph>();
    assert_send_sync::<crate::Graph>();
    assert_send_sync::<crate::CoreDecomposition>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn grid_graph() -> SpatialGraph {
        // 3x3 grid of vertices, edges between horizontal neighbours.
        let mut b = GraphBuilder::new();
        let mut positions = Vec::new();
        for row in 0..3u32 {
            for col in 0..3u32 {
                let v = row * 3 + col;
                b.ensure_vertex(v);
                positions.push(Point::new(col as f64, row as f64));
                if col > 0 {
                    b.add_edge(v - 1, v);
                }
            }
        }
        SpatialGraph::new(b.build(), positions).unwrap()
    }

    #[test]
    fn construction_validates_input() {
        let g = GraphBuilder::from_edges([(0, 1)]);
        assert!(SpatialGraph::new(g.clone(), vec![Point::ORIGIN]).is_err());
        assert!(
            SpatialGraph::new(g.clone(), vec![Point::ORIGIN, Point::new(f64::NAN, 0.0)]).is_err()
        );
        assert!(SpatialGraph::new(g, vec![Point::ORIGIN, Point::new(1.0, 0.0)]).is_ok());
        assert!(SpatialGraph::new(Graph::empty(0), vec![]).is_err());
    }

    #[test]
    fn distances_and_positions() {
        let sg = grid_graph();
        assert_eq!(sg.num_vertices(), 9);
        assert_eq!(sg.position(4), Point::new(1.0, 1.0));
        assert!((sg.distance(0, 8) - (8f64).sqrt()).abs() < 1e-12);
        assert_eq!(
            sg.positions_of(&[0, 4]),
            vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]
        );
    }

    #[test]
    fn circle_queries() {
        let sg = grid_graph();
        let mut got = sg.vertices_in_circle(&Circle::new(Point::new(1.0, 1.0), 1.0));
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 4, 5, 7]);
        assert_eq!(
            sg.count_in_circle(&Circle::new(Point::new(1.0, 1.0), 1.0)),
            5
        );

        let mut buf = Vec::new();
        sg.vertices_in_circle_into(&Circle::new(Point::new(0.0, 0.0), 0.5), &mut buf);
        assert_eq!(buf, vec![0]);
    }

    #[test]
    fn distance_ordered_view_is_prefix_consistent() {
        let sg = grid_graph();
        let center = Point::new(1.0, 1.0);
        let view = sg.vertices_by_distance(center, 1.5);
        // Sorted ascending by distance.
        for w in view.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Any smaller radius is a prefix of the view and equals the grid query.
        for r in [0.0, 0.5, 1.0, 1.4] {
            let bound = Circle::new(center, r).contains_bound_sq();
            let prefix: Vec<u32> = view
                .iter()
                .take_while(|&&(_, d2)| d2 <= bound)
                .map(|&(v, _)| v)
                .collect();
            let mut expected = sg.vertices_in_circle(&Circle::new(center, r));
            expected.sort_unstable();
            let mut got = prefix;
            got.sort_unstable();
            assert_eq!(got, expected, "r = {r}");
        }
    }

    #[test]
    fn knn_queries() {
        let sg = grid_graph();
        let nearest = sg.k_nearest(Point::new(0.1, 0.1), 3);
        assert_eq!(nearest.len(), 3);
        assert_eq!(nearest[0].0, 0);
    }

    #[test]
    fn position_updates_rebuild_index() {
        let sg = grid_graph();
        let moved = sg
            .with_updated_positions(&[(0, Point::new(10.0, 10.0))])
            .unwrap();
        assert_eq!(moved.position(0), Point::new(10.0, 10.0));
        assert!(moved
            .vertices_in_circle(&Circle::new(Point::new(10.0, 10.0), 0.5))
            .contains(&0));
        // Original untouched.
        assert_eq!(sg.position(0), Point::new(0.0, 0.0));

        // In-place variant.
        let mut sg2 = grid_graph();
        sg2.apply_position_updates(&[(8, Point::new(-5.0, -5.0))])
            .unwrap();
        assert_eq!(sg2.position(8), Point::new(-5.0, -5.0));
        assert!(sg2
            .vertices_in_circle(&Circle::new(Point::new(-5.0, -5.0), 0.1))
            .contains(&8));

        // Invalid updates are rejected.
        assert!(sg.with_updated_positions(&[(99, Point::ORIGIN)]).is_err());
        assert!(sg
            .with_updated_positions(&[(0, Point::new(f64::INFINITY, 0.0))])
            .is_err());
    }
}
