//! Incremental graph construction with deduplication.

use crate::{Graph, VertexId};

/// Builds an undirected [`Graph`] from an edge stream.
///
/// The builder tolerates messy real-world input: self-loops are dropped, duplicate
/// edges (in either direction) are deduplicated, and the vertex count grows to the
/// largest id mentioned.  Isolated vertices can be reserved with
/// [`GraphBuilder::ensure_vertex`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    max_vertex: Option<VertexId>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `edges` edges.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            max_vertex: None,
        }
    }

    /// Ensures vertex `v` exists even if no edge mentions it.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        self.max_vertex = Some(self.max_vertex.map_or(v, |m| m.max(v)));
    }

    /// Adds the undirected edge `{u, v}`.  Self-loops are ignored.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.ensure_vertex(u);
        self.ensure_vertex(v);
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
    }

    /// Adds every edge of `edges`.
    pub fn add_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, edges: I) {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
    }

    /// Builds the CSR graph, deduplicating edges.
    pub fn build(mut self) -> Graph {
        let n = self.max_vertex.map_or(0, |m| m as usize + 1);
        if n == 0 {
            return Graph::empty(0);
        }
        self.edges.sort_unstable();
        self.edges.dedup();

        // Counting sort into CSR: each undirected edge contributes to both endpoints.
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut neighbors = vec![0 as VertexId; self.edges.len() * 2];
        let mut cursor = offsets.clone();
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Sort each adjacency list so `has_edge` can binary-search.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            neighbors[lo..hi].sort_unstable();
        }
        // The edge list goes before the rows are copied into shared arrays.
        drop(self.edges);
        drop(cursor);
        Graph::from_csr(offsets, neighbors)
    }

    /// Convenience constructor: builds a graph directly from an edge list.
    pub fn from_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(edges: I) -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates_and_ignores_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(2, 2); // self-loop, ignored (but vertex 2 exists)
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn ensure_vertex_reserves_isolated_vertices() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_vertex(9);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn from_edges_convenience() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn empty_builder_yields_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn large_random_like_graph_is_consistent() {
        // Deterministic pseudo-random edges; verifies CSR symmetry.
        let mut b = GraphBuilder::new();
        let mut x: u64 = 12345;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 33) % 500) as VertexId;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((x >> 33) % 500) as VertexId;
            b.add_edge(u, v);
        }
        let g = b.build();
        // Every edge must be stored symmetrically.
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                assert!(g.neighbors(v).binary_search(&u).is_ok());
            }
        }
        // Handshake lemma.
        let total: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(total, 2 * g.num_edges());
    }
}
