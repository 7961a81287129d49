//! Connected k-core ("k-ĉore") queries.
//!
//! Every SAC search algorithm repeatedly asks: *does the subgraph induced by some
//! vertex set `S` contain a connected k-core that includes the query vertex `q`,
//! and if so, which vertices form it?*  This module provides:
//!
//! * [`connected_kcore`] — the k-ĉore of the **whole graph** containing `q`
//!   (the `Global` baseline and Step 1 of the paper's two-step framework),
//! * [`KCoreComponents`] — the same answer for every vertex at once: the
//!   connected components of one k-core, labelled in `O(n + m)` so Step 1 of
//!   every later query with that `k` is a slice lookup, and
//! * [`KCoreSolver`] — a reusable solver answering the **subset-restricted**
//!   question without allocating per call, which is the inner loop of `Exact`,
//!   `AppInc`, `AppFast`, `AppAcc` and `Exact+`.

use crate::{bits, core_decomposition, CoreDecomposition, Graph, VertexId};

/// Returns the vertex set of the connected k-core (k-ĉore) of `graph` that contains
/// `q`, or `None` when `q` is not part of any k-core.
///
/// The result is sorted by vertex id.  This is exactly what the `Global` community
/// search baseline of Sozio & Gionis returns.
pub fn connected_kcore(graph: &Graph, q: VertexId, k: u32) -> Option<Vec<VertexId>> {
    if (q as usize) >= graph.num_vertices() {
        return None;
    }
    let decomp = core_decomposition(graph);
    if decomp.core_number(q) < k {
        return None;
    }
    // BFS from q over vertices with core number >= k.
    let mut visited = vec![false; graph.num_vertices()];
    let mut component = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    visited[q as usize] = true;
    queue.push_back(q);
    while let Some(v) = queue.pop_front() {
        component.push(v);
        for &u in graph.neighbors(v) {
            if !visited[u as usize] && decomp.core_number(u) >= k {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    component.sort_unstable();
    Some(component)
}

/// Connected-component labelling of one k-core (all vertices with core number
/// `>= k`), with members grouped per component for O(size) retrieval.
///
/// [`KCoreComponents::core_of`] answers [`connected_kcore`] for every vertex
/// (the same sorted member list) without a peel or a BFS.
#[derive(Debug, Clone)]
pub struct KCoreComponents {
    k: u32,
    /// Component id per vertex; `NOT_IN_CORE` for vertices outside the k-core.
    label: Vec<u32>,
    /// Members of every component, grouped contiguously (CSR layout).
    members: Vec<VertexId>,
    /// `offsets[c]..offsets[c + 1]` indexes `members` for component `c`.
    offsets: Vec<u32>,
}

const NOT_IN_CORE: u32 = u32::MAX;

impl KCoreComponents {
    /// The (allocation-free) labelling of an empty k-core, used for any `k`
    /// above the graph's degeneracy.
    pub fn empty(k: u32) -> Self {
        KCoreComponents {
            k,
            label: Vec::new(),
            members: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Labels the connected components of the k-core in `O(n + m)`.
    pub fn build(graph: &Graph, decomposition: &CoreDecomposition, k: u32) -> Self {
        if k > decomposition.max_core() {
            return KCoreComponents::empty(k);
        }
        let n = graph.num_vertices();
        let mut label = vec![NOT_IN_CORE; n];
        let mut members = Vec::new();
        let mut offsets = vec![0u32];
        let mut queue = Vec::new();
        let mut next_component = 0u32;
        for start in 0..n as VertexId {
            if decomposition.core_number(start) < k || label[start as usize] != NOT_IN_CORE {
                continue;
            }
            label[start as usize] = next_component;
            queue.push(start);
            while let Some(v) = queue.pop() {
                members.push(v);
                for &u in graph.neighbors(v) {
                    if decomposition.core_number(u) >= k && label[u as usize] == NOT_IN_CORE {
                        label[u as usize] = next_component;
                        queue.push(u);
                    }
                }
            }
            offsets.push(members.len() as u32);
            next_component += 1;
        }
        // Members sorted within each component: deterministic output for
        // serving, and binary-searchable.
        for c in 0..next_component as usize {
            members[offsets[c] as usize..offsets[c + 1] as usize].sort_unstable();
        }
        KCoreComponents {
            k,
            label,
            members,
            offsets,
        }
    }

    /// The `k` this labelling was built for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of vertex ids the labelling covers; every id at or past it is
    /// outside the k-core.  This is the vertex count of the graph the index
    /// was built for, and 0 for [`KCoreComponents::empty`].
    pub fn covered_vertices(&self) -> usize {
        self.label.len()
    }

    /// Number of connected components of the k-core.
    pub fn num_components(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Component id of `v`, or `None` when `v` is not in the k-core.
    pub fn component_of(&self, v: VertexId) -> Option<u32> {
        match self.label.get(v as usize) {
            Some(&c) if c != NOT_IN_CORE => Some(c),
            _ => None,
        }
    }

    /// Sorted members of component `c`.
    pub fn component_members(&self, c: u32) -> &[VertexId] {
        &self.members[self.offsets[c as usize] as usize..self.offsets[c as usize + 1] as usize]
    }

    /// Size of the connected k-core containing `v` (`None` outside the k-core).
    pub fn core_size_of(&self, v: VertexId) -> Option<usize> {
        self.component_of(v)
            .map(|c| self.component_members(c).len())
    }

    /// Sorted members of the connected k-core containing `v` — the paper's
    /// "k-ĉore of q" — or `None` when `v` is not in the k-core.
    pub fn core_of(&self, v: VertexId) -> Option<&[VertexId]> {
        self.component_of(v).map(|c| self.component_members(c))
    }
}

/// A reusable solver for subset-restricted connected-k-core queries.
///
/// Given a vertex subset `S`, [`KCoreSolver::kcore_containing`] peels `G[S]` down to
/// its k-core and returns the connected component containing `q`, if any.  The
/// membership and removal working sets are packed flat bitsets (`u64` words), so
/// the per-edge tests of the peel touch 32x less memory than the former `u32`
/// epoch arrays; the marks set by a call are cleared sparsely on exit, keeping
/// the cost of a call at `O(Σ_{v ∈ S} deg_G(v))` with no `O(n)` reset.
#[derive(Debug, Clone)]
pub struct KCoreSolver {
    /// Bit `v` set ⇔ vertex `v` belongs to the current call's subset.
    in_subset: Vec<u64>,
    /// Bit `v` set ⇔ vertex `v` was peeled away (or BFS-visited) this call.
    removed: Vec<u64>,
    /// Degree of `v` restricted to the current subset (valid only for subset members).
    deg: Vec<u32>,
    /// Scratch stack shared by peeling and BFS.
    stack: Vec<VertexId>,
    /// The deduplicated subset of the current call (drives the sparse cleanup).
    dedup: Vec<VertexId>,
}

impl KCoreSolver {
    /// Creates a solver for graphs with at most `n` vertices.
    pub fn new(n: usize) -> Self {
        KCoreSolver {
            in_subset: vec![0; bits::words_for(n)],
            removed: vec![0; bits::words_for(n)],
            deg: vec![0; n],
            stack: Vec::new(),
            dedup: Vec::new(),
        }
    }

    /// Grows the internal buffers if the graph has more vertices than anticipated.
    fn ensure_capacity(&mut self, n: usize) {
        if self.deg.len() < n {
            self.in_subset.resize(bits::words_for(n), 0);
            self.removed.resize(bits::words_for(n), 0);
            self.deg.resize(n, 0);
        }
    }

    /// Clears the bits set by the current call (sparse, `O(|subset|)`).
    fn cleanup(&mut self) {
        for &v in &self.dedup {
            bits::clear(&mut self.in_subset, v);
            bits::clear(&mut self.removed, v);
        }
    }

    /// Returns the vertex set (sorted by id) of the connected k-core of `G[subset]`
    /// containing `q`, or `None` when no such subgraph exists.
    ///
    /// `subset` may contain duplicates and need not contain `q`; if it does not,
    /// the answer is `None`.
    pub fn kcore_containing(
        &mut self,
        graph: &Graph,
        subset: &[VertexId],
        q: VertexId,
        k: u32,
    ) -> Option<Vec<VertexId>> {
        self.ensure_capacity(graph.num_vertices());

        // Mark the subset, deduplicating via test-and-set.
        self.dedup.clear();
        for &v in subset {
            if !bits::test(&self.in_subset, v) {
                bits::set(&mut self.in_subset, v);
                self.dedup.push(v);
            }
        }
        if (q as usize) >= graph.num_vertices() || !bits::test(&self.in_subset, q) {
            self.cleanup();
            return None;
        }

        // Degree of every subset vertex restricted to the subset.
        for i in 0..self.dedup.len() {
            let v = self.dedup[i];
            let mut d = 0u32;
            for &u in graph.neighbors(v) {
                if bits::test(&self.in_subset, u) {
                    d += 1;
                }
            }
            self.deg[v as usize] = d;
        }

        // Peel vertices whose subset-degree is below k.
        self.stack.clear();
        for i in 0..self.dedup.len() {
            let v = self.dedup[i];
            if self.deg[v as usize] < k {
                bits::set(&mut self.removed, v);
                self.stack.push(v);
            }
        }
        while let Some(v) = self.stack.pop() {
            for &u in graph.neighbors(v) {
                if bits::test(&self.in_subset, u) && !bits::test(&self.removed, u) {
                    self.deg[u as usize] -= 1;
                    if self.deg[u as usize] + 1 == k {
                        bits::set(&mut self.removed, u);
                        self.stack.push(u);
                    }
                }
            }
        }
        if bits::test(&self.removed, q) {
            self.cleanup();
            return None;
        }

        // BFS from q over surviving subset vertices, marking visits in `removed`
        // (the visited vertices are the answer and the call ends right after, so
        // the overload is harmless and saves a third bitset).
        let mut component = Vec::new();
        self.stack.clear();
        self.stack.push(q);
        bits::set(&mut self.removed, q);
        while let Some(v) = self.stack.pop() {
            component.push(v);
            for &u in graph.neighbors(v) {
                if bits::test(&self.in_subset, u) && !bits::test(&self.removed, u) {
                    bits::set(&mut self.removed, u);
                    self.stack.push(u);
                }
            }
        }
        self.cleanup();
        component.sort_unstable();
        Some(component)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn figure3_graph() -> Graph {
        // See `core_decomp::tests::paper_figure3_example` for the vertex mapping.
        GraphBuilder::from_edges([
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 3),
            (0, 4),
            (3, 4),
            (3, 5),
            (4, 5),
            (6, 7),
            (7, 8),
            (6, 8),
            (8, 9),
        ])
    }

    #[test]
    fn global_kcore_of_figure3() {
        let g = figure3_graph();
        // 2-ĉore containing Q (=0) is {Q,A,B,C,D,E}.
        assert_eq!(connected_kcore(&g, 0, 2).unwrap(), vec![0, 1, 2, 3, 4, 5]);
        // 2-ĉore containing F (=6) is {F,G,H}.
        assert_eq!(connected_kcore(&g, 6, 2).unwrap(), vec![6, 7, 8]);
        // I (=9) has no 2-core.
        assert!(connected_kcore(&g, 9, 2).is_none());
        // Out-of-range query vertex.
        assert!(connected_kcore(&g, 99, 2).is_none());
    }

    /// Two disjoint triangles, each with a pendant vertex: the 2-core has two
    /// components {0,1,2} and {4,5,6}; vertices 3 and 7 have core number 1.
    fn two_triangles() -> Graph {
        GraphBuilder::from_edges([
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (4, 5),
            (5, 6),
            (4, 6),
            (6, 7),
        ])
    }

    #[test]
    fn components_label_the_kcore() {
        let g = two_triangles();
        let d = core_decomposition(&g);
        let c = KCoreComponents::build(&g, &d, 2);
        assert_eq!(c.k(), 2);
        assert_eq!(c.covered_vertices(), g.num_vertices());
        assert_eq!(c.num_components(), 2);
        assert_eq!(c.core_of(0).unwrap(), &[0, 1, 2]);
        assert_eq!(c.core_of(5).unwrap(), &[4, 5, 6]);
        assert_eq!(c.core_size_of(1), Some(3));
        assert!(c.component_of(3).is_none());
        assert!(c.core_of(7).is_none());
        assert!(c.component_of(99).is_none());
        // Distinct components get distinct labels.
        assert_ne!(c.component_of(0), c.component_of(4));
        // Above the degeneracy: the empty labelling.
        let empty = KCoreComponents::build(&g, &d, 3);
        assert_eq!((empty.k(), empty.num_components()), (3, 0));
        assert_eq!(empty.covered_vertices(), 0);
        assert!(empty.core_of(0).is_none());
    }

    #[test]
    fn subset_restricted_kcore() {
        let g = figure3_graph();
        let mut solver = KCoreSolver::new(g.num_vertices());

        // Within {Q,A,B}: the triangle is a 2-core containing Q.
        assert_eq!(
            solver.kcore_containing(&g, &[0, 1, 2], 0, 2).unwrap(),
            vec![0, 1, 2]
        );
        // Within {Q,A,C}: A has only Q as a neighbour, C has only Q — no 2-core.
        assert!(solver.kcore_containing(&g, &[0, 1, 3], 0, 2).is_none());
        // Within {Q,C,D,E}: {Q,C,D} is a triangle; E has degree 2 (C, D) so the
        // whole set has min degree 2.
        assert_eq!(
            solver.kcore_containing(&g, &[0, 3, 4, 5], 0, 2).unwrap(),
            vec![0, 3, 4, 5]
        );
        // q not in subset → None.
        assert!(solver.kcore_containing(&g, &[1, 2], 0, 2).is_none());
        // Duplicate entries in the subset are tolerated.
        assert_eq!(
            solver
                .kcore_containing(&g, &[0, 1, 2, 1, 0, 2], 0, 2)
                .unwrap(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn connected_component_is_restricted_to_q() {
        // Two disjoint triangles in the same subset: only q's triangle is returned.
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let mut solver = KCoreSolver::new(g.num_vertices());
        let all: Vec<VertexId> = (0..6).collect();
        assert_eq!(
            solver.kcore_containing(&g, &all, 0, 2).unwrap(),
            vec![0, 1, 2]
        );
        assert_eq!(
            solver.kcore_containing(&g, &all, 4, 2).unwrap(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn peeling_cascades() {
        // A path 0-1-2-3-4 plus a triangle on {0,1,5}: asking for the 2-core from 0
        // must peel the entire path tail (4, then 3, then 2) and keep the triangle.
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (1, 5)]);
        let mut solver = KCoreSolver::new(g.num_vertices());
        let all: Vec<VertexId> = (0..6).collect();
        assert_eq!(
            solver.kcore_containing(&g, &all, 0, 2).unwrap(),
            vec![0, 1, 5]
        );
        // k = 3 is impossible here.
        assert!(solver.kcore_containing(&g, &all, 0, 3).is_none());
    }

    #[test]
    fn repeated_calls_reuse_buffers_correctly() {
        let g = figure3_graph();
        let mut solver = KCoreSolver::new(g.num_vertices());
        for _ in 0..100 {
            assert_eq!(
                solver.kcore_containing(&g, &[0, 1, 2], 0, 2).unwrap(),
                vec![0, 1, 2]
            );
            assert!(solver.kcore_containing(&g, &[0, 1, 3], 0, 2).is_none());
            assert_eq!(
                solver
                    .kcore_containing(&g, &[0, 1, 2, 3, 4, 5], 0, 2)
                    .unwrap(),
                vec![0, 1, 2, 3, 4, 5]
            );
        }
    }

    #[test]
    fn solver_grows_with_larger_graphs() {
        let small = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2)]);
        let mut solver = KCoreSolver::new(small.num_vertices());
        assert!(solver.kcore_containing(&small, &[0, 1, 2], 0, 2).is_some());
        // Now a larger graph with the same solver instance.
        let big = GraphBuilder::from_edges([(10, 11), (11, 12), (10, 12)]);
        assert_eq!(
            solver.kcore_containing(&big, &[10, 11, 12], 10, 2).unwrap(),
            vec![10, 11, 12]
        );
    }

    #[test]
    fn k_zero_and_k_one() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2)]);
        let mut solver = KCoreSolver::new(g.num_vertices());
        // k = 0: every connected subset containing q qualifies.
        assert_eq!(
            solver.kcore_containing(&g, &[0, 1, 2], 0, 0).unwrap(),
            vec![0, 1, 2]
        );
        // k = 1: path survives entirely.
        assert_eq!(
            solver.kcore_containing(&g, &[0, 1, 2], 0, 1).unwrap(),
            vec![0, 1, 2]
        );
        // Isolated q with k = 1 fails.
        assert!(solver.kcore_containing(&g, &[0], 0, 1).is_none());
        // Isolated q with k = 0 is just {q}.
        assert_eq!(solver.kcore_containing(&g, &[0], 0, 0).unwrap(), vec![0]);
    }
}
