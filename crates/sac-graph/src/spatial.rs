//! The spatial view of a graph: vertices with locations.

use crate::{Graph, GraphError, VertexId};
use sac_geom::{Circle, Point};
use std::sync::Arc;

/// A geo-social graph: an undirected [`Graph`] in which every vertex has a
/// two-dimensional location.
///
/// This is the paper's data model (`G(V, E)` with `(v.x, v.y)` per vertex).  All SAC
/// search algorithms take a `&SpatialGraph`.  There is no spatial index: the
/// search runs inside the k-ĉore `X` containing the query vertex, so its
/// circle queries filter `X`'s member list by position instead.
///
/// Graph and positions are both shared, so a clone copies neither, and the
/// live write front hands an unchanged position array to the next epoch
/// as it is.
#[derive(Debug, Clone)]
pub struct SpatialGraph {
    // NOTE: keep this type free of interior mutability.  `sac-engine` serves
    // immutable `Arc<SpatialGraph>` snapshots across threads; the static
    // assertion at the bottom of this file enforces `Send + Sync`.
    graph: Graph,
    positions: Arc<[Point]>,
}

impl SpatialGraph {
    /// Pairs a graph with vertex positions.
    ///
    /// Returns an error when the number of positions differs from the number of
    /// vertices, when a position is not finite, or when the graph is empty.
    pub fn new(graph: Graph, positions: Vec<Point>) -> Result<Self, GraphError> {
        SpatialGraph::with_shared_positions(graph, positions.into())
    }

    /// Pairs a graph with a shared position array, under the checks of
    /// [`SpatialGraph::new`].
    pub fn with_shared_positions(
        graph: Graph,
        positions: Arc<[Point]>,
    ) -> Result<Self, GraphError> {
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
        Ok(SpatialGraph { graph, positions })
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
        self.positions[v as usize]
    }

    /// The shared position array (cloning it copies no position).
    #[inline]
    pub fn shared_positions(&self) -> &Arc<[Point]> {
        &self.positions
    }

    /// All vertex positions, indexed by vertex id.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
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

    /// The eager, fully sorted view of the ball `O(center, r_max)`: one scan
    /// of every position plus one sort, appended to `out` (cleared first) as
    /// `(vertex, distance² from center)` in ascending distance order, ties
    /// broken by vertex id.  `_scratch` is unused.
    ///
    /// Membership uses the [`Circle::contains`] bound (see
    /// [`sac_geom::Circle::contains_bound_sq`]), which is monotone in the
    /// radius, so the vertex set of **any** circle `O(center, r)` with
    /// `r ≤ r_max` is exactly a prefix of this array.  It is a reference
    /// view: the radius sweep ([`crate::RadiusSweepSolver`]) partitions its
    /// candidates lazily instead of sorting them.
    pub fn vertices_by_distance_into(
        &self,
        center: Point,
        r_max: f64,
        _scratch: &mut Vec<VertexId>,
        out: &mut Vec<(VertexId, f64)>,
    ) {
        let bound = Circle::new(center, r_max.max(0.0)).contains_bound_sq();
        out.clear();
        out.extend(
            (0..self.num_vertices() as VertexId)
                .map(|v| (v, self.position(v).distance_sq(center)))
                .filter(|&(_, d2)| d2 <= bound),
        );
        out.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
    }

    /// The positions of a vertex subset (e.g. a community) in subset order.
    pub fn positions_of(&self, subset: &[VertexId]) -> Vec<Point> {
        subset.iter().map(|&v| self.position(v)).collect()
    }

    /// Returns a copy of this spatial graph with some vertex positions replaced.
    ///
    /// Used by the dynamic-location experiment (Section 5.2.3): each check-in
    /// updates the position of one user.  Updates are applied in batch, so one
    /// copy of the graph and positions serves the whole batch.
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

    /// The vertices within `circle`, by a brute-force scan of every position.
    fn in_circle(sg: &SpatialGraph, circle: &Circle) -> Vec<VertexId> {
        (0..sg.num_vertices() as VertexId)
            .filter(|&v| circle.contains(sg.position(v)))
            .collect()
    }

    #[test]
    fn circle_queries() {
        let sg = grid_graph();
        let mut view = Vec::new();
        sg.vertices_by_distance_into(Point::new(1.0, 1.0), 1.0, &mut Vec::new(), &mut view);
        let got: Vec<VertexId> = view.iter().map(|&(v, _)| v).collect();
        // The centre first, then its four unit-distance neighbours by id.
        assert_eq!(got, vec![4, 1, 3, 5, 7]);

        sg.vertices_by_distance_into(Point::new(0.0, 0.0), 0.5, &mut Vec::new(), &mut view);
        assert_eq!(view, vec![(0, 0.0)]);
    }

    #[test]
    fn distance_ordered_view_is_prefix_consistent() {
        let sg = grid_graph();
        let center = Point::new(1.0, 1.0);
        let mut view = Vec::new();
        sg.vertices_by_distance_into(center, 1.5, &mut Vec::new(), &mut view);
        // Sorted ascending by distance.
        for w in view.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Any smaller radius is a prefix of the view and equals a scan.
        for r in [0.0, 0.5, 1.0, 1.4] {
            let bound = Circle::new(center, r).contains_bound_sq();
            let prefix: Vec<u32> = view
                .iter()
                .take_while(|&&(_, d2)| d2 <= bound)
                .map(|&(v, _)| v)
                .collect();
            let expected = in_circle(&sg, &Circle::new(center, r));
            let mut got = prefix;
            got.sort_unstable();
            assert_eq!(got, expected, "r = {r}");
        }
    }

    #[test]
    fn position_updates_rebuild_index() {
        let sg = grid_graph();
        let moved = sg
            .with_updated_positions(&[(0, Point::new(10.0, 10.0))])
            .unwrap();
        assert_eq!(moved.position(0), Point::new(10.0, 10.0));
        assert_eq!(
            in_circle(&moved, &Circle::new(Point::new(10.0, 10.0), 0.5)),
            vec![0]
        );
        // Original untouched.
        assert_eq!(sg.position(0), Point::new(0.0, 0.0));

        // A caller that owns its graph rebinds it to the moved copy.
        let mut sg2 = grid_graph();
        sg2 = sg2
            .with_updated_positions(&[(8, Point::new(-5.0, -5.0))])
            .unwrap();
        assert_eq!(sg2.position(8), Point::new(-5.0, -5.0));
        assert_eq!(sg2.positions()[8], Point::new(-5.0, -5.0));

        // Invalid updates are rejected.
        assert!(sg.with_updated_positions(&[(99, Point::ORIGIN)]).is_err());
        assert!(sg
            .with_updated_positions(&[(0, Point::new(f64::INFINITY, 0.0))])
            .is_err());
    }
}
