//! Dynamic-graph write front: mutable adjacency with **incremental k-core
//! maintenance**.
//!
//! The serving stack ([`crate::SpatialGraph`] + the `sac-engine` snapshot
//! cache) is read-only by design; real geo-social graphs mutate continuously.
//! [`DynamicGraph`] is the mutable counterpart: an adjacency-list graph that
//! accepts single edge insertions/deletions and vertex additions while keeping
//! the core number of every vertex **exactly** up to date — without re-running
//! the `O(m)` [`crate::core_decomposition`] peel after every change.
//!
//! The maintenance algorithms are the classic subcore-traversal ones (Sarıyüce
//! et al., *Streaming algorithms for k-core decomposition*, VLDB 2013; Li, Yu
//! & Mao, TKDE 2014), the same family the paper's `AppInc` repair idea builds
//! on:
//!
//! * **Insertion** of `{u, v}`: let `K = min(core(u), core(v))`.  Only
//!   vertices with core number `K` in the subcore reachable from the lower
//!   endpoint(s) can rise, and only by one.  The candidate subcore is walked
//!   (BFS over `core == K` vertices), each candidate's *core degree*
//!   (neighbours with core ≥ K) is counted, and candidates are peeled while
//!   their degree is ≤ K; survivors rise to `K + 1`.
//! * **Removal** of `{u, v}`: only `core == K` vertices can drop, by one.  A
//!   lazy cascade starts at the endpoint(s) with core `K`: a vertex drops when
//!   its support (neighbours with core ≥ K, minus already-dropped ones) falls
//!   below `K`, and each drop decrements the support of its touched
//!   neighbours.
//!
//! Both cascades touch only the affected subcore — for a small delta this is
//! orders of magnitude less work than a full re-decomposition, and the result
//! is bit-identical (the property suite in `sac-live` asserts this on random
//! update streams).
//!
//! Each mutation reports an [`EdgeChange`] carrying the information a snapshot
//! cache needs for *selective* invalidation: the largest `k` whose k-core
//! (membership or component structure) may have changed.

use crate::{core_decomposition, CoreDecomposition, Graph, VertexId};

/// The effect of one edge mutation on the core decomposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeChange {
    /// Whether the mutation changed the graph at all (`false` for inserting an
    /// existing edge, removing an absent one, or a self-loop).
    pub applied: bool,
    /// Vertices whose core number changed (each by exactly ±1), sorted by id.
    pub changed: Vec<VertexId>,
    /// Upper bound on the `k` values whose k-core may differ from before the
    /// mutation: every `k` in `1..=dirty_up_to` may have changed membership or
    /// component structure; every `k > dirty_up_to` is untouched.  `0` when
    /// the mutation was a no-op.
    ///
    /// For an insertion this is `min(core(u), core(v))` *after* the update
    /// (the inserted edge only exists in k-cores up to that `k`, and any core
    /// rise lands exactly there); for a removal it is the same minimum
    /// *before* the update.
    pub dirty_up_to: u32,
}

/// One edge mutation of a bulk delta (see [`DynamicGraph::apply_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert the undirected edge `{u, v}`.
    Insert(VertexId, VertexId),
    /// Remove the undirected edge `{u, v}`.
    Remove(VertexId, VertexId),
}

impl BatchOp {
    /// The endpoints of the mutation.
    #[inline]
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            BatchOp::Insert(u, v) | BatchOp::Remove(u, v) => (u, v),
        }
    }
}

/// How [`DynamicGraph::apply_batch_with`] repairs core numbers for a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchStrategy {
    /// Pick per delta size: one shared peel for heavy deltas, per-edge
    /// cascades for small ones.
    #[default]
    Auto,
    /// Run the incremental subcore cascade once per applied edge.
    PerEdge,
    /// Apply all edges structurally, then repair with one shared `O(n + m)`
    /// peel over the whole adjacency.
    Recompute,
}

/// The effect of one bulk delta on the core decomposition (the batch
/// counterpart of [`EdgeChange`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchChange {
    /// The ops that changed the graph, in application order (no-ops dropped).
    pub applied: Vec<BatchOp>,
    /// Vertices whose core number differs between the batch boundaries,
    /// sorted by id.
    pub changed: Vec<VertexId>,
    /// Upper bound on the `k` values whose k-core (membership or component
    /// structure) may differ between the state before and after the batch;
    /// `0` when nothing applied.
    pub dirty_up_to: u32,
    /// Whether the shared-peel strategy ran (`false` = per-edge cascades).
    pub recomputed: bool,
    /// Microseconds spent repairing core numbers: the one shared peel on the
    /// recompute path, or the per-edge cascade loop (structural application
    /// included — the cascades interleave with the adjacency edits) on the
    /// per-edge path.  The commit pipeline's observability spans feed on
    /// this, so "peel" vs "delta apply" time stays attributable per batch.
    pub repair_micros: u64,
}

/// A mutable graph that maintains exact core numbers under edge insertions,
/// edge removals and vertex additions.
///
/// Adjacency is stored as one sorted `Vec<VertexId>` per vertex — cheap to
/// mutate, cheap to convert back to the immutable CSR [`Graph`] once per
/// published epoch ([`DynamicGraph::to_graph`]).  Scratch state for the
/// maintenance cascades is epoch-marked (the [`crate::KCoreSolver`] trick), so
/// a mutation allocates nothing beyond the cascade's output.
///
/// ```
/// use sac_graph::{DynamicGraph, GraphBuilder, core_decomposition};
///
/// // Triangle {0,1,2} plus pendant 3.
/// let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
/// let mut dynamic = DynamicGraph::from_graph(&g);
/// assert_eq!(dynamic.core_number(3), 1);
///
/// // Closing the triangle {1, 2, 3} lifts vertex 3 into the 2-core.
/// let change = dynamic.insert_edge(1, 3).unwrap();
/// assert_eq!(change.changed, vec![3]);
/// assert_eq!(dynamic.core_number(3), 2);
///
/// // The maintained numbers equal a full recomputation.
/// let rebuilt = dynamic.to_graph();
/// assert_eq!(
///     core_decomposition(&rebuilt).core_numbers(),
///     dynamic.core_numbers()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    adj: Vec<Vec<VertexId>>,
    num_edges: usize,
    core: Vec<u32>,
    // Epoch-marked scratch for the maintenance cascades.
    epoch: u32,
    mark: Vec<u32>,
    evicted: Vec<u32>,
    processed: Vec<u32>,
    cd: Vec<u32>,
    queue: Vec<VertexId>,
}

impl DynamicGraph {
    /// A write front over `graph`, computing the core decomposition from
    /// scratch.
    pub fn from_graph(graph: &Graph) -> Self {
        let decomposition = core_decomposition(graph);
        DynamicGraph::from_parts(graph, &decomposition)
    }

    /// A write front over `graph` seeded with an already-computed
    /// decomposition (e.g. the serving engine's cached one), skipping the
    /// `O(m)` peel.
    ///
    /// # Panics
    ///
    /// Panics when the decomposition does not match the graph's vertex count.
    pub fn from_parts(graph: &Graph, decomposition: &CoreDecomposition) -> Self {
        let n = graph.num_vertices();
        assert_eq!(
            decomposition.core_numbers().len(),
            n,
            "decomposition does not match graph"
        );
        let adj: Vec<Vec<VertexId>> = (0..n)
            .map(|v| graph.neighbors(v as VertexId).to_vec())
            .collect();
        DynamicGraph {
            adj,
            num_edges: graph.num_edges(),
            core: decomposition.core_numbers().to_vec(),
            epoch: 0,
            mark: vec![0; n],
            evicted: vec![0; n],
            processed: vec![0; n],
            cd: vec![0; n],
            queue: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Current degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Maintained core number of `v`.
    #[inline]
    pub fn core_number(&self, v: VertexId) -> u32 {
        self.core[v as usize]
    }

    /// Maintained core numbers, indexed by vertex id.
    #[inline]
    pub fn core_numbers(&self) -> &[u32] {
        &self.core
    }

    /// The largest maintained core number (the graph's degeneracy).
    pub fn max_core(&self) -> u32 {
        self.core.iter().copied().max().unwrap_or(0)
    }

    /// Returns `true` when the undirected edge `{u, v}` currently exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if (u as usize) >= self.adj.len() || (v as usize) >= self.adj.len() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// Appends a new isolated vertex (core number 0) and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.adj.len() as VertexId;
        self.adj.push(Vec::new());
        self.core.push(0);
        self.mark.push(0);
        self.evicted.push(0);
        self.processed.push(0);
        self.cd.push(0);
        v
    }

    fn check_endpoints(&self, u: VertexId, v: VertexId) -> Result<(), crate::GraphError> {
        let n = self.adj.len() as u64;
        for w in [u, v] {
            if (w as u64) >= n {
                return Err(crate::GraphError::VertexOutOfRange(w));
            }
        }
        Ok(())
    }

    fn bump_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.mark.iter_mut().for_each(|x| *x = 0);
            self.evicted.iter_mut().for_each(|x| *x = 0);
            self.processed.iter_mut().for_each(|x| *x = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Inserts the undirected edge `{u, v}` and incrementally repairs the core
    /// numbers.
    ///
    /// Self-loops and already-present edges are no-ops (`applied == false`).
    /// Returns an error when either endpoint is out of range.
    pub fn insert_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
    ) -> Result<EdgeChange, crate::GraphError> {
        self.check_endpoints(u, v)?;
        if u == v || self.has_edge(u, v) {
            return Ok(EdgeChange::default());
        }
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut self.adj[a as usize];
            let pos = list.binary_search(&b).unwrap_err();
            list.insert(pos, b);
        }
        self.num_edges += 1;

        // Purecore traversal (insertion): only core == K vertices reachable
        // from the lower-core endpoint(s) can rise, each by exactly one — and
        // a riser needs K + 1 supporters among {core > K} ∪ {fellow risers},
        // so every vertex on a riser path has core degree cd > K.  The BFS
        // therefore expands only through vertices with cd > K: vertices with
        // cd <= K are still *visited* (they sit on the candidate boundary and
        // must feed the eviction cascade) but never expanded, which keeps the
        // walk local instead of flooding the whole core-K level of the graph.
        let k = self.core[u as usize].min(self.core[v as usize]);
        let epoch = self.bump_epoch();

        self.queue.clear();
        for root in [u, v] {
            if self.core[root as usize] == k && self.mark[root as usize] != epoch {
                self.mark[root as usize] = epoch;
                self.queue.push(root);
            }
        }
        let mut candidates: Vec<VertexId> = Vec::new();
        let mut head = 0usize;
        while head < self.queue.len() {
            let w = self.queue[head];
            head += 1;
            candidates.push(w);
            let mut support = 0u32;
            for &x in &self.adj[w as usize] {
                if self.core[x as usize] >= k {
                    support += 1;
                }
            }
            self.cd[w as usize] = support;
            if support > k {
                for &x in &self.adj[w as usize] {
                    if self.core[x as usize] == k && self.mark[x as usize] != epoch {
                        self.mark[x as usize] = epoch;
                        self.queue.push(x);
                    }
                }
            }
        }

        // Peel candidates whose support cannot reach K + 1; survivors rise.
        // Every core == K vertex has >= K neighbours with core >= K, so
        // supports start at K or above and eviction triggers exactly when a
        // decrement lands on K.
        self.queue.clear();
        for &w in &candidates {
            if self.cd[w as usize] <= k {
                self.evicted[w as usize] = epoch;
                self.queue.push(w);
            }
        }
        while let Some(w) = self.queue.pop() {
            for &x in &self.adj[w as usize] {
                if self.mark[x as usize] == epoch && self.evicted[x as usize] != epoch {
                    self.cd[x as usize] -= 1;
                    if self.cd[x as usize] == k {
                        self.evicted[x as usize] = epoch;
                        self.queue.push(x);
                    }
                }
            }
        }

        let mut changed: Vec<VertexId> = candidates
            .into_iter()
            .filter(|&w| self.evicted[w as usize] != epoch)
            .collect();
        for &w in &changed {
            self.core[w as usize] = k + 1;
        }
        changed.sort_unstable();

        // The inserted edge exists in every k-core up to min(core) after the
        // update; a rise lands exactly at K + 1 == that minimum.
        let dirty_up_to = self.core[u as usize].min(self.core[v as usize]);
        Ok(EdgeChange {
            applied: true,
            changed,
            dirty_up_to,
        })
    }

    /// Removes the undirected edge `{u, v}` and incrementally repairs the core
    /// numbers.
    ///
    /// Removing an absent edge (or a self-loop) is a no-op
    /// (`applied == false`).  Returns an error when either endpoint is out of
    /// range.
    pub fn remove_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
    ) -> Result<EdgeChange, crate::GraphError> {
        self.check_endpoints(u, v)?;
        if u == v || !self.has_edge(u, v) {
            return Ok(EdgeChange::default());
        }
        // The removed edge existed in every k-core up to min(core) before the
        // update; drops land exactly at that minimum.
        let k = self.core[u as usize].min(self.core[v as usize]);
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut self.adj[a as usize];
            let pos = list.binary_search(&b).expect("edge exists");
            list.remove(pos);
        }
        self.num_edges -= 1;

        // Lazy drop cascade (removal): only core == K vertices can drop, each
        // by exactly one.  `mark` flags vertices whose support has been
        // counted; `evicted` flags dropped vertices (core updated at the end
        // so supports are counted against pre-cascade numbers); `processed`
        // flags evicted vertices whose decrement pass has already run.  A
        // first-touch support count must exclude exactly the `processed`
        // droppers: the still-queued ones remain counted and subtract
        // themselves when they pop — excluding them up front too would
        // double-count the loss and drop vertices that actually survive.
        let epoch = self.bump_epoch();
        self.queue.clear();
        let mut dropped: Vec<VertexId> = Vec::new();
        for root in [u, v] {
            if self.core[root as usize] != k || self.mark[root as usize] == epoch {
                continue;
            }
            self.mark[root as usize] = epoch;
            let support = self.adj[root as usize]
                .iter()
                .filter(|&&x| self.core[x as usize] >= k)
                .count() as u32;
            self.cd[root as usize] = support;
            if support < k {
                self.evicted[root as usize] = epoch;
                self.queue.push(root);
            }
        }
        while let Some(w) = self.queue.pop() {
            dropped.push(w);
            self.processed[w as usize] = epoch;
            for i in 0..self.degree(w) {
                let x = self.adj[w as usize][i];
                if self.core[x as usize] != k || self.evicted[x as usize] == epoch {
                    continue;
                }
                if self.mark[x as usize] != epoch {
                    // First touch: count x's support now, excluding droppers
                    // that already ran their decrement pass (w included).
                    self.mark[x as usize] = epoch;
                    let support = self.adj[x as usize]
                        .iter()
                        .filter(|&&y| {
                            self.core[y as usize] >= k
                                && (self.core[y as usize] > k
                                    || self.processed[y as usize] != epoch)
                        })
                        .count() as u32;
                    self.cd[x as usize] = support;
                } else {
                    self.cd[x as usize] -= 1;
                }
                if self.cd[x as usize] < k {
                    self.evicted[x as usize] = epoch;
                    self.queue.push(x);
                }
            }
        }
        for &w in &dropped {
            self.core[w as usize] = k - 1;
        }
        dropped.sort_unstable();
        Ok(EdgeChange {
            applied: true,
            changed: dropped,
            dirty_up_to: k,
        })
    }

    /// Applies a whole batch of edge mutations with the automatically chosen
    /// repair strategy (see [`DynamicGraph::apply_batch_with`] and
    /// [`BatchStrategy::Auto`]).
    pub fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<BatchChange, crate::GraphError> {
        self.apply_batch_with(ops, BatchStrategy::Auto)
    }

    /// Applies a batch of edge mutations and repairs the core numbers once
    /// for the whole delta.
    ///
    /// Endpoints of **every** op are validated before anything mutates, so a
    /// bad batch is all-or-nothing.  Ops apply in order with the usual no-op
    /// semantics (self-loops, duplicate inserts, absent removals are skipped)
    /// — a batch may legitimately toggle the same edge several times.
    ///
    /// Two repair strategies produce bit-identical core numbers:
    ///
    /// * [`BatchStrategy::PerEdge`] runs the incremental subcore cascade per
    ///   applied edge — optimal for small deltas.
    /// * [`BatchStrategy::Recompute`] applies all edges structurally first and
    ///   then runs **one shared peel** over the adjacency (`O(n + m)`),
    ///   amortising the repair across the whole delta — for heavy-churn
    ///   deltas this beats paying a cascade per edge (the `bench_bulk_apply`
    ///   runner gates the win).
    /// * [`BatchStrategy::Auto`] picks `Recompute` when the delta is large
    ///   relative to the graph, `PerEdge` otherwise.
    ///
    /// The returned [`BatchChange`] reports the applied ops (in application
    /// order), the vertices whose core number changed between the batch
    /// boundaries, and a `dirty_up_to` bound valid for the old-epoch →
    /// new-epoch transition (intermediate states are never published).
    pub fn apply_batch_with(
        &mut self,
        ops: &[BatchOp],
        strategy: BatchStrategy,
    ) -> Result<BatchChange, crate::GraphError> {
        for op in ops {
            let (u, v) = op.endpoints();
            self.check_endpoints(u, v)?;
        }
        let per_edge = match strategy {
            BatchStrategy::PerEdge => true,
            BatchStrategy::Recompute => false,
            // Heuristic crossover: one shared `O(n + m)` peel amortises once
            // the delta stops being tiny relative to the graph; below that,
            // per-edge subcore cascades are cheaper.
            BatchStrategy::Auto => ops.len() < 8 || ops.len() * 12 < self.num_edges().max(1),
        };
        if per_edge {
            return Ok(self.apply_batch_per_edge(ops));
        }

        // Shared-repair path: snapshot the old cores, apply every op
        // structurally, recompute the decomposition with one peel.
        let old_core = self.core.clone();
        let mut applied: Vec<BatchOp> = Vec::new();
        for op in ops {
            let (u, v) = op.endpoints();
            if u == v {
                continue;
            }
            match op {
                BatchOp::Insert(..) => {
                    if self.has_edge(u, v) {
                        continue;
                    }
                    for (a, b) in [(u, v), (v, u)] {
                        let list = &mut self.adj[a as usize];
                        let pos = list.binary_search(&b).unwrap_err();
                        list.insert(pos, b);
                    }
                    self.num_edges += 1;
                }
                BatchOp::Remove(..) => {
                    if !self.has_edge(u, v) {
                        continue;
                    }
                    for (a, b) in [(u, v), (v, u)] {
                        let list = &mut self.adj[a as usize];
                        let pos = list.binary_search(&b).expect("edge exists");
                        list.remove(pos);
                    }
                    self.num_edges -= 1;
                }
            }
            applied.push(*op);
        }
        let repair_start = std::time::Instant::now();
        self.recompute_cores();
        let repair_micros = repair_start.elapsed().as_micros() as u64;

        // Dirty bound for cache invalidation across the epoch boundary: an
        // inserted edge lives in the *new* k-cores up to min(new core of its
        // endpoints); a removed edge lived in the *old* k-cores up to
        // min(old core); a vertex whose core moved changes membership of
        // every k-core up to max(old, new).  (Conservative for edges toggled
        // back and forth within the batch.)
        let mut dirty_up_to = 0u32;
        for op in &applied {
            let (u, v) = op.endpoints();
            let bound = match op {
                BatchOp::Insert(..) => self.core[u as usize].min(self.core[v as usize]),
                BatchOp::Remove(..) => old_core[u as usize].min(old_core[v as usize]),
            };
            dirty_up_to = dirty_up_to.max(bound);
        }
        let mut changed: Vec<VertexId> = (0..self.core.len() as VertexId)
            .filter(|&v| self.core[v as usize] != old_core[v as usize])
            .collect();
        for &v in &changed {
            dirty_up_to = dirty_up_to.max(self.core[v as usize].max(old_core[v as usize]));
        }
        changed.sort_unstable();
        Ok(BatchChange {
            applied,
            changed,
            dirty_up_to,
            recomputed: true,
            repair_micros,
        })
    }

    /// The per-edge strategy: the existing incremental cascades, one per
    /// applied op, with the dirty bounds and core changes accumulated.
    fn apply_batch_per_edge(&mut self, ops: &[BatchOp]) -> BatchChange {
        let old_core = self.core.clone();
        let mut applied = Vec::new();
        let mut dirty_up_to = 0u32;
        let repair_start = std::time::Instant::now();
        for op in ops {
            let (u, v) = op.endpoints();
            let change = match op {
                BatchOp::Insert(..) => self.insert_edge(u, v),
                BatchOp::Remove(..) => self.remove_edge(u, v),
            }
            .expect("endpoints validated up front");
            if change.applied {
                applied.push(*op);
                dirty_up_to = dirty_up_to.max(change.dirty_up_to);
            }
        }
        let repair_micros = repair_start.elapsed().as_micros() as u64;
        let mut changed: Vec<VertexId> = (0..self.core.len() as VertexId)
            .filter(|&v| self.core[v as usize] != old_core[v as usize])
            .collect();
        changed.sort_unstable();
        BatchChange {
            applied,
            changed,
            dirty_up_to,
            recomputed: false,
            repair_micros,
        }
    }

    /// One shared peel over the mutable adjacency — the batch counterpart of
    /// [`crate::core_decomposition`], sharing its Batagelj–Zaversnik
    /// implementation while avoiding a CSR round trip.
    fn recompute_cores(&mut self) {
        self.core = crate::core_decomp::peel_core_numbers(self.adj.len(), |v| {
            self.adj[v as usize].as_slice()
        });
    }

    /// Builds the immutable CSR [`Graph`] for the current state (the per-epoch
    /// rebuild of the publish path).
    pub fn to_graph(&self) -> Graph {
        let n = self.adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut total = 0u64;
        for list in &self.adj {
            total += list.len() as u64;
            offsets.push(total);
        }
        let mut neighbors = Vec::with_capacity(total as usize);
        for list in &self.adj {
            neighbors.extend_from_slice(list);
        }
        Graph::from_csr(offsets, neighbors)
    }

    /// The maintained core numbers as a [`CoreDecomposition`] (bit-identical
    /// to recomputing from scratch on [`DynamicGraph::to_graph`]).
    pub fn decomposition(&self) -> CoreDecomposition {
        CoreDecomposition::from_core_numbers(self.core.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn assert_cores_match(dynamic: &DynamicGraph) {
        let rebuilt = dynamic.to_graph();
        let fresh = core_decomposition(&rebuilt);
        assert_eq!(
            fresh.core_numbers(),
            dynamic.core_numbers(),
            "incremental maintenance diverged from full recomputation"
        );
    }

    #[test]
    fn insertion_lifts_a_subcore() {
        // Triangle {0,1,2} + pendant 3.
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut d = DynamicGraph::from_graph(&g);
        assert_eq!(d.core_numbers(), &[2, 2, 2, 1]);

        let change = d.insert_edge(1, 3).unwrap();
        assert!(change.applied);
        assert_eq!(change.changed, vec![3]);
        assert_eq!(change.dirty_up_to, 2);
        assert_eq!(d.core_numbers(), &[2, 2, 2, 2]);
        assert_cores_match(&d);
    }

    #[test]
    fn insertion_between_high_cores_changes_nothing_structural() {
        // Two triangles; bridging them merges 2-core components but changes no
        // core numbers.
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let mut d = DynamicGraph::from_graph(&g);
        let change = d.insert_edge(0, 3).unwrap();
        assert!(change.applied);
        assert!(change.changed.is_empty());
        // Connectivity of k-cores up to min(core) may still have changed.
        assert_eq!(change.dirty_up_to, 2);
        assert_cores_match(&d);
    }

    #[test]
    fn removal_cascades() {
        // K4 on {0,1,2,3}: every vertex core 3.  Removing one edge drops all
        // four to core 2 (the cascade must propagate past the endpoints).
        let g = GraphBuilder::from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mut d = DynamicGraph::from_graph(&g);
        assert_eq!(d.core_numbers(), &[3, 3, 3, 3]);
        let change = d.remove_edge(0, 1).unwrap();
        assert_eq!(change.changed, vec![0, 1, 2, 3]);
        assert_eq!(change.dirty_up_to, 3);
        assert_eq!(d.core_numbers(), &[2, 2, 2, 2]);
        assert_cores_match(&d);
    }

    #[test]
    fn removal_with_two_queued_droppers_sharing_a_neighbour() {
        // Regression: triangle {0,1,2} with 2 also in triangle {2,3,4} —
        // every vertex has core 2.  Removing (0,1) evicts both 0 and 1 before
        // either runs its decrement pass; vertex 2 is first-touched while one
        // dropper is still queued.  Counting correctly, 2 keeps supporters
        // {3, 4} plus the queued dropper until it pops — net support 2 — so
        // the triangle {2,3,4} must survive at core 2 (a double-count would
        // cascade it down to 1).
        let g = GraphBuilder::from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]);
        let mut d = DynamicGraph::from_graph(&g);
        assert_eq!(d.core_numbers(), &[2, 2, 2, 2, 2]);
        let change = d.remove_edge(0, 1).unwrap();
        assert_eq!(change.changed, vec![0, 1]);
        assert_eq!(d.core_numbers(), &[1, 1, 2, 2, 2]);
        assert_cores_match(&d);
    }

    #[test]
    fn removal_without_core_change_reports_dirty_range() {
        // Square 0-1-2-3-0 plus diagonal 0-2: all core 2; removing the
        // diagonal keeps every core at 2 (cycle remains).
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let mut d = DynamicGraph::from_graph(&g);
        let change = d.remove_edge(0, 2).unwrap();
        assert!(change.applied);
        assert!(change.changed.is_empty());
        assert_eq!(change.dirty_up_to, 2);
        assert_cores_match(&d);
    }

    #[test]
    fn noop_mutations() {
        let g = GraphBuilder::from_edges([(0, 1)]);
        let mut d = DynamicGraph::from_graph(&g);
        assert!(!d.insert_edge(0, 1).unwrap().applied); // already present
        assert!(!d.insert_edge(1, 1).unwrap().applied); // self-loop
        assert!(!d.remove_edge(0, 0).unwrap().applied); // self-loop
        d.remove_edge(0, 1).unwrap();
        assert!(!d.remove_edge(0, 1).unwrap().applied); // already absent
        assert!(d.insert_edge(0, 7).is_err());
        assert!(d.remove_edge(9, 0).is_err());
        assert_cores_match(&d);
    }

    #[test]
    fn vertex_addition_and_attachment() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2)]);
        let mut d = DynamicGraph::from_graph(&g);
        let v = d.add_vertex();
        assert_eq!(v, 3);
        assert_eq!(d.core_number(v), 0);
        assert_cores_match(&d);

        // First edge lifts the newcomer to core 1.
        let change = d.insert_edge(v, 0).unwrap();
        assert_eq!(change.changed, vec![v]);
        assert_eq!(d.core_number(v), 1);
        // Two more edges pull it into the 3-core (K4).
        d.insert_edge(v, 1).unwrap();
        let change = d.insert_edge(v, 2).unwrap();
        assert_eq!(change.changed, vec![0, 1, 2, v]);
        assert_eq!(d.core_numbers(), &[3, 3, 3, 3]);
        assert_cores_match(&d);
    }

    #[test]
    fn isolated_pair_connection() {
        let mut d = DynamicGraph::from_graph(&Graph::empty(2));
        let change = d.insert_edge(0, 1).unwrap();
        assert_eq!(change.changed, vec![0, 1]);
        assert_eq!(d.core_numbers(), &[1, 1]);
        assert_cores_match(&d);
    }

    #[test]
    fn random_stream_matches_full_recompute() {
        // Deterministic pseudo-random toggles over 60 vertices; check the
        // maintained cores against a fresh decomposition after every step.
        let mut d = DynamicGraph::from_graph(&Graph::empty(60));
        let mut x: u64 = 0xD1E5;
        for step in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 33) % 60) as VertexId;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((x >> 33) % 60) as VertexId;
            if u == v {
                continue;
            }
            let change = if d.has_edge(u, v) {
                d.remove_edge(u, v).unwrap()
            } else {
                d.insert_edge(u, v).unwrap()
            };
            assert!(change.applied, "step {step}");
            // Change magnitude is always exactly one level.
            let rebuilt = core_decomposition(&d.to_graph());
            assert_eq!(
                rebuilt.core_numbers(),
                d.core_numbers(),
                "divergence at step {step} ({u}, {v})"
            );
        }
        assert!(d.num_edges() > 0);
    }

    #[test]
    fn batch_apply_matches_sequential_per_edge() {
        // Deterministic pseudo-random batches over 50 vertices: both batch
        // strategies must land on the same cores as applying the ops one by
        // one, and the recompute path must agree with the cascade path.
        let mut x: u64 = 0xBA7C;
        let mut rand = move |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        let mut reference = DynamicGraph::from_graph(&Graph::empty(50));
        let mut per_edge = reference.clone();
        let mut recompute = reference.clone();
        for round in 0..12 {
            let mut ops = Vec::new();
            for _ in 0..(4 + rand(40)) {
                let u = rand(50) as VertexId;
                let v = rand(50) as VertexId;
                // Toggle against the reference's *current* state interleaved
                // with the batch being built, so batches contain genuine
                // insert/remove mixes and repeated toggles of one edge.
                if rand(2) == 0 {
                    ops.push(BatchOp::Insert(u, v));
                } else {
                    ops.push(BatchOp::Remove(u, v));
                }
            }
            // Reference: sequential application through the single-edge API.
            let mut ref_applied = 0usize;
            for op in &ops {
                let (u, v) = op.endpoints();
                let change = match op {
                    BatchOp::Insert(..) => reference.insert_edge(u, v).unwrap(),
                    BatchOp::Remove(..) => reference.remove_edge(u, v).unwrap(),
                };
                if change.applied {
                    ref_applied += 1;
                }
            }
            let a = per_edge
                .apply_batch_with(&ops, BatchStrategy::PerEdge)
                .unwrap();
            let b = recompute
                .apply_batch_with(&ops, BatchStrategy::Recompute)
                .unwrap();
            assert!(!a.recomputed && b.recomputed);
            assert_eq!(a.applied.len(), ref_applied, "round {round}");
            assert_eq!(a.applied, b.applied);
            assert_eq!(a.changed, b.changed, "round {round}");
            assert_eq!(per_edge.core_numbers(), reference.core_numbers());
            assert_eq!(recompute.core_numbers(), reference.core_numbers());
            assert_eq!(per_edge.num_edges(), recompute.num_edges());
            // The recompute dirty bound covers the per-edge one for k-core
            // membership purposes: every k above either bound has identical
            // vertex membership across the batch.
            let max_core = recompute.max_core();
            for k in (b.dirty_up_to + 1)..=max_core {
                // No vertex crossing k means k-core membership unchanged.
                assert!(
                    b.changed
                        .iter()
                        .all(|&v| (recompute.core_number(v) >= k) == (per_edge.core_number(v) >= k)),
                    "round {round}, k {k}"
                );
            }
            assert_cores_match(&recompute);
        }
        assert!(reference.num_edges() > 0);
    }

    #[test]
    fn batch_apply_validates_and_reports() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut d = DynamicGraph::from_graph(&g);
        // One bad endpoint poisons the whole batch, atomically.
        let before = d.core_numbers().to_vec();
        assert!(d
            .apply_batch(&[BatchOp::Insert(0, 3), BatchOp::Insert(0, 99)])
            .is_err());
        assert_eq!(d.core_numbers(), before.as_slice());
        assert!(!d.has_edge(0, 3));

        // No-ops are dropped; a closing batch lifts the pendant into the
        // 2-core with the right dirty bound.
        let change = d
            .apply_batch_with(
                &[
                    BatchOp::Insert(0, 0), // self-loop: no-op
                    BatchOp::Remove(0, 3), // absent: no-op
                    BatchOp::Insert(1, 3), // closes triangle {1, 2, 3}
                    BatchOp::Insert(1, 3), // duplicate: no-op
                ],
                BatchStrategy::Recompute,
            )
            .unwrap();
        assert_eq!(change.applied, vec![BatchOp::Insert(1, 3)]);
        assert_eq!(change.changed, vec![3]);
        assert_eq!(change.dirty_up_to, 2);
        assert_eq!(d.core_numbers(), &[2, 2, 2, 2]);

        // An empty batch is a no-op.
        let change = d.apply_batch(&[]).unwrap();
        assert!(change.applied.is_empty() && change.changed.is_empty());
        assert_eq!(change.dirty_up_to, 0);
    }

    #[test]
    fn csr_roundtrip_preserves_structure() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let d = DynamicGraph::from_graph(&g);
        let rebuilt = d.to_graph();
        assert_eq!(rebuilt, g);
        assert_eq!(d.decomposition().core_numbers(), d.core_numbers());
        assert_eq!(d.decomposition().max_core(), d.max_core());
    }
}
