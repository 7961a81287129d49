//! k-core decomposition (Batagelj–Zaversnik, O(m)).
//!
//! [`core_decomposition`] is the one full peel.  It runs once per static
//! graph or restored snapshot; afterwards [`crate::DynamicGraph`] keeps the
//! core numbers exact edge by edge, without peeling again.  The peel's
//! removal order doubles as the k-order that maintenance starts from.

use crate::{Graph, VertexId};

/// The result of a k-core decomposition: the core number of every vertex.
///
/// The *core number* of `v` is the largest `k` such that `v` belongs to the k-core
/// of the graph (Definition 1 of the paper).  Core numbers are computed once per
/// graph in `O(m)` time by the bucket-based peeling algorithm of Batagelj &
/// Zaversnik, which the paper cites as reference \[3\].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    core_numbers: Vec<u32>,
    max_core: u32,
}

impl CoreDecomposition {
    /// Wraps already-known core numbers (e.g. maintained incrementally by
    /// [`crate::DynamicGraph`]) without recomputing them.
    ///
    /// The caller is responsible for the numbers being the true core numbers
    /// of the graph they will be used with; the dynamic-graph property suite
    /// asserts this invariant for the incremental-maintenance path.
    pub fn from_core_numbers(core_numbers: Vec<u32>) -> Self {
        let max_core = core_numbers.iter().copied().max().unwrap_or(0);
        CoreDecomposition {
            core_numbers,
            max_core,
        }
    }

    /// Core number of vertex `v`.
    #[inline]
    pub fn core_number(&self, v: VertexId) -> u32 {
        self.core_numbers[v as usize]
    }

    /// The largest core number in the graph (the graph's degeneracy).
    #[inline]
    pub fn max_core(&self) -> u32 {
        self.max_core
    }

    /// Slice of all core numbers, indexed by vertex id.
    #[inline]
    pub fn core_numbers(&self) -> &[u32] {
        &self.core_numbers
    }

    /// All vertices whose core number is at least `k` — the vertex set of the
    /// k-core `H_k` (which may be disconnected).
    pub fn vertices_in_kcore(&self, k: u32) -> Vec<VertexId> {
        self.core_numbers
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= k)
            .map(|(v, _)| v as VertexId)
            .collect()
    }

    /// Number of vertices with core number at least `k`.
    pub fn kcore_size(&self, k: u32) -> usize {
        self.core_numbers.iter().filter(|&&c| c >= k).count()
    }
}

/// Computes the core number of every vertex in `O(m)` time.
///
/// This is the bin-sort peeling algorithm: vertices are processed in ascending
/// order of (current) degree; when a vertex is removed its remaining neighbours'
/// effective degrees drop by one and they move down one bucket.
pub fn core_decomposition(graph: &Graph) -> CoreDecomposition {
    let (core, _) = peel(graph.num_vertices(), |v| graph.neighbors(v));
    CoreDecomposition::from_core_numbers(core)
}

/// The Batagelj–Zaversnik peel over `n` vertices whose adjacency `neighbors`
/// returns: every vertex's core number, and the order the peel removed the
/// vertices in.
///
/// The removal order is a *k-order*: core numbers never decrease along it,
/// and each vertex has at most `core(v)` neighbours after it (its degree
/// when removed is its core number and bounds the neighbours still
/// unpeeled).  [`crate::DynamicGraph`] seeds its order-based maintenance
/// from it.
pub(crate) fn peel<'g>(
    n: usize,
    neighbors: impl Fn(VertexId) -> &'g [VertexId],
) -> (Vec<u32>, Vec<VertexId>) {
    if n == 0 {
        return (Vec::new(), Vec::new());
    }

    // degree[v] starts at deg_G(v) and decreases as neighbours are peeled.
    let mut degree: Vec<u32> = (0..n)
        .map(|v| neighbors(v as VertexId).len() as u32)
        .collect();
    let max_degree = *degree.iter().max().unwrap() as usize;

    // bin[d] = index in `order` of the first vertex with current degree d.
    let mut bin = vec![0u32; max_degree + 2];
    for &d in &degree {
        bin[d as usize + 1] += 1;
    }
    for d in 0..=max_degree {
        bin[d + 1] += bin[d];
    }
    // order: vertices sorted by current degree; pos: inverse permutation.
    let mut order = vec![0 as VertexId; n];
    let mut pos = vec![0u32; n];
    {
        let mut next = bin.clone();
        for v in 0..n {
            let d = degree[v] as usize;
            order[next[d] as usize] = v as VertexId;
            pos[v] = next[d];
            next[d] += 1;
        }
    }

    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = order[i];
        let dv = degree[v as usize];
        core[v as usize] = dv;
        for &u in neighbors(v) {
            let du = degree[u as usize];
            if du > dv {
                // Move u to the front of its bucket and shift the bucket boundary,
                // effectively decreasing u's degree by one.
                let pu = pos[u as usize];
                let bucket_start = bin[du as usize];
                let w = order[bucket_start as usize];
                if u != w {
                    order[pu as usize] = w;
                    pos[w as usize] = pu;
                    order[bucket_start as usize] = u;
                    pos[u as usize] = bucket_start;
                }
                bin[du as usize] += 1;
                degree[u as usize] -= 1;
            }
        }
    }

    (core, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Naive reference: repeatedly peel vertices of degree < k for every k.
    fn naive_core_numbers(graph: &Graph) -> Vec<u32> {
        let n = graph.num_vertices();
        let mut core = vec![0u32; n];
        let max_possible = graph.max_degree() as u32;
        for k in 1..=max_possible {
            // Peel to the k-core.
            let mut alive = vec![true; n];
            let mut deg: Vec<usize> = (0..n).map(|v| graph.degree(v as VertexId)).collect();
            let mut changed = true;
            while changed {
                changed = false;
                for v in 0..n {
                    if alive[v] && deg[v] < k as usize {
                        alive[v] = false;
                        changed = true;
                        for &u in graph.neighbors(v as VertexId) {
                            if alive[u as usize] {
                                deg[u as usize] -= 1;
                            }
                        }
                    }
                }
            }
            for v in 0..n {
                if alive[v] {
                    core[v] = k;
                }
            }
        }
        core
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        let d = core_decomposition(&g);
        assert_eq!(d.max_core(), 0);
        assert!(d.core_numbers().is_empty());
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let g = Graph::empty(4);
        let d = core_decomposition(&g);
        assert!(g.vertices().all(|v| d.core_number(v) == 0));
    }

    #[test]
    fn triangle_with_tail() {
        // Triangle {0,1,2} (core 2) with a pendant vertex 3 (core 1).
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
        let d = core_decomposition(&g);
        assert_eq!(d.core_number(0), 2);
        assert_eq!(d.core_number(1), 2);
        assert_eq!(d.core_number(2), 2);
        assert_eq!(d.core_number(3), 1);
        assert_eq!(d.max_core(), 2);
        assert_eq!(d.vertices_in_kcore(2), vec![0, 1, 2]);
        assert_eq!(d.kcore_size(1), 4);
    }

    #[test]
    fn paper_figure3_example() {
        // Figure 3 of the paper: 10 vertices Q,A..I.  Vertex ids:
        // Q=0, A=1, B=2, C=3, D=4, E=5, F=6, G=7, H=8, I=9.
        // Edges reconstructed from the k-core decomposition shown in Fig. 3(b):
        // 3-core {Q,A,B,C,D} (wait: the 3-ĉore is {Q,A,B} ∪ ... ) — we use a
        // reading where {Q,C,D} and {Q,A,B} are triangles, E attaches to C and D,
        // A-B-Q form a triangle, giving the 2-ĉore {Q,A,B,C,D,E}; {F,G,H} is a
        // separate triangle (2-ĉore), and I is a pendant attached to H (1-core).
        let g = GraphBuilder::from_edges([
            (0, 1),
            (0, 2),
            (1, 2), // Q-A-B triangle
            (0, 3),
            (0, 4),
            (3, 4), // Q-C-D triangle
            (3, 5),
            (4, 5), // E connected to C and D
            (6, 7),
            (7, 8),
            (6, 8), // F-G-H triangle
            (8, 9), // I pendant on H
        ]);
        let d = core_decomposition(&g);
        // 2-core has two connected components: {Q,A,B,C,D,E} and {F,G,H}.
        let two_core = d.vertices_in_kcore(2);
        assert_eq!(two_core, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(d.core_number(9), 1);
    }

    #[test]
    fn matches_naive_on_pseudorandom_graphs() {
        for seed in [1u64, 7, 42] {
            let mut b = GraphBuilder::new();
            let mut x = seed;
            for _ in 0..600 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((x >> 33) % 120) as VertexId;
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((x >> 33) % 120) as VertexId;
                b.add_edge(u, v);
            }
            let g = b.build();
            let fast = core_decomposition(&g);
            let slow = naive_core_numbers(&g);
            assert_eq!(fast.core_numbers(), slow.as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn complete_graph_core_number() {
        // K6: every vertex has core number 5.
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                b.add_edge(u, v);
            }
        }
        let d = core_decomposition(&b.build());
        assert!((0..6).all(|v| d.core_number(v) == 5));
        assert_eq!(d.max_core(), 5);
    }
}
