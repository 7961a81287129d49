//! CSR-based undirected graph representation.

use std::fmt;
use std::sync::Arc;

/// Identifier of a graph vertex.
///
/// Vertices are densely numbered `0..n`; the id doubles as an index into the CSR
/// arrays and into the position array of a [`crate::SpatialGraph`].
pub type VertexId = u32;

/// An undirected graph stored in compressed-sparse-row (CSR) form.
///
/// The adjacency of vertex `v` is the slice `neighbors[offsets[v]..offsets[v+1]]`.
/// Both directions of every edge are stored, so the rows hold `2 * m` entries.  The
/// structure is immutable after construction; use [`crate::GraphBuilder`] to build
/// one incrementally.
///
/// Both arrays are shared, so a clone is `O(1)`: the live write front keeps
/// the published epoch's CSR as its base this way instead of copying it.
/// The neighbour array may be longer than the `offsets[n]` entries the rows
/// use: the write front sizes it to a coarse size class.
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Arc<[u64]>,
    neighbors: Arc<[VertexId]>,
}

impl Graph {
    /// Creates a graph directly from CSR arrays.
    ///
    /// Intended for use by [`crate::GraphBuilder`]; most callers should use the
    /// builder instead.  `offsets` must have length `n + 1`, start at zero, be
    /// non-decreasing and end at `neighbors.len()`.
    pub(crate) fn from_csr(offsets: Vec<u64>, neighbors: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.first().unwrap(), 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Graph {
            offsets: offsets.into(),
            neighbors: neighbors.into(),
        }
    }

    /// A graph over shared arrays: the conditions of [`Graph::from_csr`],
    /// except that `neighbors` may run past `offsets[n]`.
    pub(crate) fn from_arrays(offsets: Arc<[u64]>, neighbors: Arc<[VertexId]>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert!(*offsets.last().unwrap() as usize <= neighbors.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Graph { offsets, neighbors }
    }

    /// The offsets and the rows' prefix of the neighbour array.
    pub(crate) fn csr(&self) -> (&[u64], &[VertexId]) {
        (&self.offsets, &self.neighbors[..self.entries()])
    }

    /// Entries the rows hold: `2 * m`.
    #[inline]
    fn entries(&self) -> usize {
        self.offsets[self.offsets.len() - 1] as usize
    }

    /// Creates a graph from externally produced CSR arrays, validating every
    /// structural invariant (snapshot-codec hook: `sac-wal` rebuilds graphs
    /// from checkpoint files through this).
    ///
    /// `offsets` must have length `n + 1`, start at zero, be non-decreasing
    /// and end at `neighbors.len()`; every adjacency slice must be strictly
    /// sorted (no duplicates), free of self-loops, and reference vertices
    /// inside `0..n`.  Violations yield [`crate::GraphError::Parse`]-free,
    /// dedicated errors so callers can surface what was malformed.
    pub fn try_from_csr(
        offsets: Vec<u64>,
        neighbors: Vec<VertexId>,
    ) -> Result<Self, crate::GraphError> {
        use crate::GraphError;
        if offsets.is_empty() || offsets[0] != 0 {
            return Err(GraphError::InvalidCsr("offsets must start at 0"));
        }
        if *offsets.last().unwrap() as usize != neighbors.len() {
            return Err(GraphError::InvalidCsr(
                "offsets must end at neighbors.len()",
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::InvalidCsr("offsets must be non-decreasing"));
        }
        let n = offsets.len() - 1;
        for v in 0..n {
            let row = &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
            for (i, &w) in row.iter().enumerate() {
                if w as usize >= n {
                    return Err(GraphError::VertexOutOfRange(w));
                }
                if w as usize == v {
                    return Err(GraphError::InvalidCsr("self-loop in adjacency"));
                }
                if i > 0 && row[i - 1] >= w {
                    return Err(GraphError::InvalidCsr(
                        "adjacency rows must be strictly sorted",
                    ));
                }
            }
        }
        Ok(Graph::from_csr(offsets, neighbors))
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph::from_csr(vec![0; n + 1], Vec::new())
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.entries() / 2
    }

    /// Degree of vertex `v` in the full graph (the paper's `deg_G(v)`).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Neighbours of vertex `v` (the paper's `nb(v)`), in ascending id order.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Returns `true` when the undirected edge `{u, v}` exists.
    ///
    /// Neighbour lists are sorted, so this is a binary search: `O(log deg(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        // Search in the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over every undirected edge exactly once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Average degree `d̂ = 2m / n` (as reported in Table 4 of the paper).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.entries() as f64 / self.num_vertices() as f64
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.csr() == other.csr()
    }
}

impl Eq for Graph {}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, d̂={:.2})",
            self.num_vertices(),
            self.num_edges(),
            self.average_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_with_tail() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_with_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = triangle_with_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[2]);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle_with_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle_with_tail();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(Graph::empty(0).average_degree(), 0.0);
    }
}
