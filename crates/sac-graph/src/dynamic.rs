//! Dynamic-graph write front: mutable adjacency with **incremental k-core
//! maintenance**.
//!
//! The serving stack ([`crate::SpatialGraph`] + the `sac-engine` snapshot
//! cache) is read-only by design; real geo-social graphs mutate continuously.
//! [`DynamicGraph`] is the mutable counterpart: a graph that accepts single
//! edge insertions/deletions and vertex additions while keeping the core
//! number of every vertex **exactly** up to date — without re-running the
//! `O(m)` [`crate::core_decomposition`] peel after every change.
//!
//! Maintenance is order-based (Zhang, Yu, Zhang & Qin, *A Fast Order-Based
//! Approach for Core Maintenance*, ICDE 2017).  The graph keeps a *k-order*:
//! every vertex sorted by core number, and within one core level by a
//! position, such that each vertex `v` has `deg⁺(v) ≤ core(v)` neighbours
//! after it.  Each level is a linked list with `u64` labels (relabelled when
//! a gap closes), and `deg⁺` is stored per vertex.  The order is seeded from
//! a Batagelj–Zaversnik peel, whose removal order is a k-order, on the first
//! edge mutation, so a graph that is never mutated never pays for it.
//!
//! * **Insertion** of `{u, v}` with `u` before `v` and `K = core(u)`: `u`
//!   gains one `deg⁺`; while that stays `≤ K` the order is still a k-order
//!   and nothing else is touched.  Otherwise level `K` is walked forward
//!   from `u` in order (a min-heap of labels), visiting only the level-`K`
//!   neighbours of candidates.  A vertex becomes a candidate when its
//!   candidate neighbours before it (`deg*`) plus `deg⁺` exceed `K`; a
//!   vertex that does not stays, and candidates that lose its support and
//!   drop to `≤ K` leave the set (cascading) and are placed right after it.
//!   The candidates left at the end rise to `K + 1` at the head of that
//!   level.
//! * **Removal** of `{u, v}`: only `core == K` vertices can drop, by one.  A
//!   lazy cascade starts at the endpoint(s) with core `K`: a vertex drops when
//!   its support (neighbours with core ≥ K, minus already-dropped ones) falls
//!   below `K`, and each drop decrements the support of its touched
//!   neighbours.  The droppers go to the tail of level `K − 1`.
//!
//! Both touch only the vertices whose order or core can change — for a
//! small delta this is orders of magnitude less work than a full
//! re-decomposition, and the result is bit-identical (the property suite in
//! `sac-live` asserts this on random update streams).
//!
//! Each mutation reports an [`EdgeChange`] carrying the information a snapshot
//! cache needs for *selective* invalidation: the largest `k` whose k-core
//! (membership or component structure) may have changed.
//!
//! The adjacency is the CSR [`Graph`] of the last published epoch (shared,
//! not copied) plus the rows changed since; [`DynamicGraph::publish`]
//! merges the two into the next epoch's CSR and makes it the new base.
//!
//! The graph changes one edge or vertex at a time, as in the paper's dynamic
//! setting; there is no bulk path.  In the serving stack the only caller
//! that mutates a [`DynamicGraph`] is `sac-live`'s write front, which live
//! writes, crash recovery and replica replay all go through.

use crate::core_decomp::peel;
use crate::{CoreDecomposition, Graph, VertexId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

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
    /// Vertices the core repair examined: those an insertion's walk took
    /// off its heap, or those a removal's cascade counted the support of.
    /// `0` when the mutation was a no-op.
    pub visited: u64,
}

/// A mutable graph that maintains exact core numbers under edge insertions,
/// edge removals and vertex additions.
///
/// Adjacency is the CSR [`Graph`] the front was built on or last published,
/// plus one sorted `Vec<VertexId>` per vertex changed since: cheap to mutate,
/// and merged back into a CSR once per published epoch
/// ([`DynamicGraph::publish`]).  Scratch state for the maintenance walks is
/// epoch-marked (the [`crate::KCoreSolver`] trick), so a mutation allocates
/// nothing beyond its output and the rows it changes.
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
/// let rebuilt = dynamic.publish();
/// assert_eq!(
///     core_decomposition(&rebuilt).core_numbers(),
///     dynamic.core_numbers()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    adj: Adjacency,
    num_edges: usize,
    core: Vec<u32>,
    /// The k-order and the walks' scratch; `None` until the first edge
    /// mutation.
    order: Option<KOrder>,
}

impl DynamicGraph {
    /// A write front over `graph`.  One peel computes the core numbers and
    /// seeds the k-order.
    pub fn from_graph(graph: &Graph) -> Self {
        let adj = Adjacency::new(graph);
        let (core, peeled) = peel(adj.n, |v| adj.neighbors(v));
        let order = KOrder::new(&adj, &core, &peeled);
        DynamicGraph {
            num_edges: graph.num_edges(),
            adj,
            core,
            order: Some(order),
        }
    }

    /// A write front over `graph` seeded with an already-computed
    /// decomposition (e.g. the serving engine's cached one), skipping the
    /// `O(m)` peel until the first edge mutation needs the k-order.
    ///
    /// # Panics
    ///
    /// Panics when the decomposition does not match the graph's vertex count.
    pub fn from_parts(graph: &Graph, decomposition: &CoreDecomposition) -> Self {
        assert_eq!(
            decomposition.core_numbers().len(),
            graph.num_vertices(),
            "decomposition does not match graph"
        );
        DynamicGraph {
            adj: Adjacency::new(graph),
            num_edges: graph.num_edges(),
            core: decomposition.core_numbers().to_vec(),
            order: None,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Current degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj.neighbors(v).len()
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
        if (u as usize) >= self.adj.n || (v as usize) >= self.adj.n {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj.neighbors(a).binary_search(&b).is_ok()
    }

    /// Appends a new isolated vertex (core number 0, at the tail of the
    /// order's level 0) and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.adj.n as VertexId;
        self.adj.rows.insert(v, Vec::new());
        self.adj.n += 1;
        self.core.push(0);
        if let Some(order) = &mut self.order {
            order.push_vertex(v);
        }
        v
    }

    fn check_endpoints(&self, u: VertexId, v: VertexId) -> Result<(), crate::GraphError> {
        let n = self.adj.n as u64;
        for w in [u, v] {
            if (w as u64) >= n {
                return Err(crate::GraphError::VertexOutOfRange(w));
            }
        }
        Ok(())
    }

    /// The k-order, peeled from the current graph on first use.
    fn ensure_order(&mut self) {
        if self.order.is_none() {
            let adj = &self.adj;
            let (core, peeled) = peel(adj.n, |v| adj.neighbors(v));
            debug_assert_eq!(core, self.core, "maintained cores diverged");
            self.order = Some(KOrder::new(adj, &core, &peeled));
        }
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
        self.ensure_order();
        for (a, b) in [(u, v), (v, u)] {
            let row = self.adj.row_mut(a);
            let pos = row.binary_search(&b).unwrap_err();
            row.insert(pos, b);
        }
        self.num_edges += 1;
        let order = self.order.as_mut().expect("order built above");
        let (changed, visited) = order.insert(&self.adj, &mut self.core, u, v);
        // The inserted edge exists in every k-core up to min(core) after the
        // update; a rise lands exactly at K + 1 == that minimum.
        let dirty_up_to = self.core[u as usize].min(self.core[v as usize]);
        Ok(EdgeChange {
            applied: true,
            changed,
            dirty_up_to,
            visited,
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
        self.ensure_order();
        // The removed edge existed in every k-core up to min(core) before the
        // update; drops land exactly at that minimum.
        let k = self.core[u as usize].min(self.core[v as usize]);
        for (a, b) in [(u, v), (v, u)] {
            let row = self.adj.row_mut(a);
            let pos = row.binary_search(&b).expect("edge exists");
            row.remove(pos);
        }
        self.num_edges -= 1;
        let order = self.order.as_mut().expect("order built above");
        let (changed, visited) = order.remove(&self.adj, &mut self.core, u, v);
        Ok(EdgeChange {
            applied: true,
            changed,
            dirty_up_to: k,
            visited,
        })
    }

    /// Builds the immutable CSR [`Graph`] for the current state, makes it
    /// the base of the adjacency and drops the changed rows.  The base's
    /// unchanged rows are copied in runs between the changed rows, which
    /// are visited in vertex order.  The neighbour array is sized up to a coarse size class (at most 1/8
    /// over), so the arrays of successive epochs of a growing graph mostly
    /// share one size, and each reuses the memory an earlier one freed
    /// instead of leaving the heap fragmented.
    pub fn publish(&mut self) -> Graph {
        if self.adj.is_base() {
            return self.adj.base.clone();
        }
        let entries = 2 * self.num_edges;
        let step = (entries.next_power_of_two() / 8).max(1);
        let mut offsets = zeroed(self.adj.n + 1);
        let mut neighbors = zeroed(entries.div_ceil(step) * step);
        self.adj.write_csr(
            Arc::get_mut(&mut offsets).expect("fresh array"),
            Arc::get_mut(&mut neighbors).expect("fresh array"),
        );
        let graph = Graph::from_arrays(offsets, neighbors);
        self.adj.base = graph.clone();
        self.adj.rows.clear();
        graph
    }

    /// The maintained core numbers as a [`CoreDecomposition`] (bit-identical
    /// to recomputing from scratch on [`DynamicGraph::publish`]'s graph).
    pub fn decomposition(&self) -> CoreDecomposition {
        CoreDecomposition::from_core_numbers(self.core.clone())
    }
}

/// The adjacency of a [`DynamicGraph`]: a shared base CSR plus the rows
/// changed since (and those of vertices added since, which the base lacks).
#[derive(Debug, Clone)]
struct Adjacency {
    base: Graph,
    rows: HashMap<VertexId, Vec<VertexId>>,
    n: usize,
}

impl Adjacency {
    fn new(graph: &Graph) -> Adjacency {
        Adjacency {
            base: graph.clone(),
            rows: HashMap::new(),
            n: graph.num_vertices(),
        }
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.rows.get(&v) {
            Some(row) => row,
            None => self.base.neighbors(v),
        }
    }

    /// `v`'s row, copied out of the base on first change.
    fn row_mut(&mut self, v: VertexId) -> &mut Vec<VertexId> {
        let base = &self.base;
        self.rows
            .entry(v)
            .or_insert_with(|| base.neighbors(v).to_vec())
    }

    /// Whether the base alone is the current adjacency.
    fn is_base(&self) -> bool {
        self.rows.is_empty() && self.n == self.base.num_vertices()
    }

    /// Writes the current CSR into `offsets` (`n + 1` long) and the prefix
    /// of `neighbors`: the base's unchanged rows in runs, the changed rows
    /// in vertex order, so no row is looked up by hash.
    fn write_csr(&self, offsets: &mut [u64], neighbors: &mut [VertexId]) {
        let (base_offsets, base_neighbors) = self.base.csr();
        let base_n = self.base.num_vertices();
        let mut changed: Vec<(VertexId, &[VertexId])> = self
            .rows
            .iter()
            .map(|(&v, row)| (v, row.as_slice()))
            .collect();
        changed.sort_unstable_by_key(|&(v, _)| v);
        offsets[0] = 0;
        let mut at = 0usize;
        // Copies the base rows of vertices `from..to` as one run.
        let copy_run = |offsets: &mut [u64],
                        neighbors: &mut [VertexId],
                        from: usize,
                        to: usize,
                        at: &mut usize| {
            if from >= to {
                return;
            }
            let (lo, hi) = (base_offsets[from], base_offsets[to]);
            let shift = *at as u64;
            for v in from + 1..=to {
                offsets[v] = base_offsets[v] - lo + shift;
            }
            let len = (hi - lo) as usize;
            neighbors[*at..*at + len].copy_from_slice(&base_neighbors[lo as usize..hi as usize]);
            *at += len;
        };
        let mut next = 0usize;
        for (v, row) in changed {
            let v = v as usize;
            copy_run(offsets, neighbors, next, v.min(base_n), &mut at);
            neighbors[at..at + row.len()].copy_from_slice(row);
            at += row.len();
            offsets[v + 1] = at as u64;
            next = v + 1;
        }
        copy_run(offsets, neighbors, next, base_n, &mut at);
        debug_assert_eq!(offsets[self.n], at as u64);
    }
}

/// A shared array of `len` zeros, allocated once.
fn zeroed<T: Copy + Default>(len: usize) -> Arc<[T]> {
    std::iter::repeat_n(T::default(), len).collect()
}

/// No vertex: the end of a level list.
const NIL: VertexId = VertexId::MAX;
/// Labels of a freshly labelled level are spread evenly below this.
const LABEL_SPAN: u64 = 1 << 62;
/// Label step of a vertex appended at a level's tail.
const TAIL_STEP: u64 = 1 << 32;

/// The k-order of order-based core maintenance, plus the scratch its walks
/// reuse.
#[derive(Debug, Clone)]
struct KOrder {
    /// `deg⁺(v)`: neighbours of `v` after it in the order; `≤ core(v)`.
    deg_plus: Vec<u32>,
    levels: Levels,
    // Epoch-marked scratch.  The insertion walk reads `mark` as "entered
    // the heap", `evicted` as "became a candidate", `processed` as "left
    // the candidate set" and `cd` as `deg*`; the removal cascade reads them
    // as "support counted", "drops", "decrement pass ran" and the support.
    epoch: u32,
    mark: Vec<u32>,
    evicted: Vec<u32>,
    processed: Vec<u32>,
    cd: Vec<u32>,
    queue: Vec<VertexId>,
    heap: BinaryHeap<Reverse<(u64, VertexId)>>,
    candidates: Vec<VertexId>,
    /// Candidates that left the set, each with the vertex it goes after.
    placed: Vec<(VertexId, VertexId)>,
}

/// One doubly linked list per core level, ordered by increasing label.
#[derive(Debug, Clone)]
struct Levels {
    label: Vec<u64>,
    next: Vec<VertexId>,
    prev: Vec<VertexId>,
    head: Vec<VertexId>,
    tail: Vec<VertexId>,
}

impl Levels {
    fn ensure_level(&mut self, k: u32) {
        if self.head.len() <= k as usize {
            self.head.resize(k as usize + 1, NIL);
            self.tail.resize(k as usize + 1, NIL);
        }
    }

    fn unlink(&mut self, k: u32, v: VertexId) {
        let (p, x) = (self.prev[v as usize], self.next[v as usize]);
        match p {
            NIL => self.head[k as usize] = x,
            p => self.next[p as usize] = x,
        }
        match x {
            NIL => self.tail[k as usize] = p,
            x => self.prev[x as usize] = p,
        }
    }

    /// Links `run` into level `k` right after `anchor` (at the head when
    /// `anchor` is `NIL`), in run order, and labels it between its new
    /// neighbours — relabelling the whole level when the gap is too small.
    fn splice(&mut self, k: u32, anchor: VertexId, run: &[VertexId]) {
        if run.is_empty() {
            return;
        }
        self.ensure_level(k);
        let after = match anchor {
            NIL => self.head[k as usize],
            a => self.next[a as usize],
        };
        let mut p = anchor;
        for &v in run {
            self.prev[v as usize] = p;
            match p {
                NIL => self.head[k as usize] = v,
                p => self.next[p as usize] = v,
            }
            p = v;
        }
        self.next[p as usize] = after;
        match after {
            NIL => self.tail[k as usize] = p,
            a => self.prev[a as usize] = p,
        }
        let slots = run.len() as u64 + 1;
        let lo = match anchor {
            NIL => 0,
            a => self.label[a as usize],
        };
        let hi = match after {
            NIL => lo.saturating_add(TAIL_STEP.saturating_mul(slots)),
            a => self.label[a as usize],
        };
        let step = (hi - lo) / slots;
        if step == 0 {
            self.relabel(k);
        } else {
            for (i, &v) in run.iter().enumerate() {
                self.label[v as usize] = lo + step * (i as u64 + 1);
            }
        }
    }

    /// Spreads level `k`'s labels evenly again.
    fn relabel(&mut self, k: u32) {
        let mut len = 0u64;
        let mut v = self.head[k as usize];
        while v != NIL {
            len += 1;
            v = self.next[v as usize];
        }
        let gap = LABEL_SPAN / (len + 1);
        let mut v = self.head[k as usize];
        let mut label = 0;
        while v != NIL {
            label += gap;
            self.label[v as usize] = label;
            v = self.next[v as usize];
        }
    }
}

impl KOrder {
    /// The k-order of a peel's removal order `peeled` (core numbers `core`).
    fn new(adj: &Adjacency, core: &[u32], peeled: &[VertexId]) -> KOrder {
        let n = core.len();
        let mut levels = Levels {
            label: vec![0; n],
            next: vec![NIL; n],
            prev: vec![NIL; n],
            head: Vec::new(),
            tail: Vec::new(),
        };
        let gap = LABEL_SPAN / (n as u64 + 1);
        for (i, &v) in peeled.iter().enumerate() {
            let k = core[v as usize];
            levels.ensure_level(k);
            let tail = levels.tail[k as usize];
            levels.prev[v as usize] = tail;
            match tail {
                NIL => levels.head[k as usize] = v,
                t => levels.next[t as usize] = v,
            }
            levels.tail[k as usize] = v;
            levels.label[v as usize] = gap * (i as u64 + 1);
        }
        let mut order = KOrder {
            deg_plus: vec![0; n],
            levels,
            epoch: 0,
            mark: vec![0; n],
            evicted: vec![0; n],
            processed: vec![0; n],
            cd: vec![0; n],
            queue: Vec::new(),
            heap: BinaryHeap::new(),
            candidates: Vec::new(),
            placed: Vec::new(),
        };
        for v in 0..n as VertexId {
            order.deg_plus[v as usize] = order.count_after(adj, core, v);
            debug_assert!(order.deg_plus[v as usize] <= core[v as usize]);
        }
        order
    }

    /// Whether `a` is before `b` in the order.
    #[inline]
    fn before(&self, core: &[u32], a: VertexId, b: VertexId) -> bool {
        let key = |v: VertexId| (core[v as usize], self.levels.label[v as usize]);
        key(a) < key(b)
    }

    /// Neighbours of `v` after it in the order.
    fn count_after(&self, adj: &Adjacency, core: &[u32], v: VertexId) -> u32 {
        adj.neighbors(v)
            .iter()
            .filter(|&&w| self.before(core, v, w))
            .count() as u32
    }

    /// Appends the new isolated vertex `v` to the tail of level 0.
    fn push_vertex(&mut self, v: VertexId) {
        debug_assert_eq!(v as usize, self.deg_plus.len());
        self.deg_plus.push(0);
        self.levels.label.push(0);
        self.levels.next.push(NIL);
        self.levels.prev.push(NIL);
        self.mark.push(0);
        self.evicted.push(0);
        self.processed.push(0);
        self.cd.push(0);
        self.levels.ensure_level(0);
        let tail = self.levels.tail[0];
        self.levels.splice(0, tail, &[v]);
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

    /// A candidate still in the set (queued-to-leave ones included).
    #[inline]
    fn is_candidate(&self, v: VertexId, epoch: u32) -> bool {
        self.evicted[v as usize] == epoch && self.processed[v as usize] != epoch
    }

    /// Repairs cores and order after `{a, b}` was inserted into `adj`.
    /// Returns the risen vertices (sorted) and the vertices visited.
    fn insert(
        &mut self,
        adj: &Adjacency,
        core: &mut [u32],
        a: VertexId,
        b: VertexId,
    ) -> (Vec<VertexId>, u64) {
        let u = if self.before(core, a, b) { a } else { b };
        let k = core[u as usize];
        self.deg_plus[u as usize] += 1;
        if self.deg_plus[u as usize] <= k {
            return (Vec::new(), 1);
        }

        let epoch = self.bump_epoch();
        self.heap.clear();
        self.candidates.clear();
        self.placed.clear();
        self.mark[u as usize] = epoch;
        self.cd[u as usize] = 0;
        self.heap.push(Reverse((self.levels.label[u as usize], u)));
        let mut visited = 0u64;
        while let Some(Reverse((label, w))) = self.heap.pop() {
            visited += 1;
            let wi = w as usize;
            if self.cd[wi] + self.deg_plus[wi] > k {
                // Candidate: every later level-K neighbour may now count
                // it as support from before.
                self.evicted[wi] = epoch;
                self.candidates.push(w);
                for &x in adj.neighbors(w) {
                    let xi = x as usize;
                    if core[xi] != k || self.levels.label[xi] <= label {
                        continue;
                    }
                    if self.mark[xi] != epoch {
                        self.mark[xi] = epoch;
                        self.cd[xi] = 0;
                        self.heap.push(Reverse((self.levels.label[xi], x)));
                    }
                    self.cd[xi] += 1;
                }
            } else {
                // w stays in level K, so its candidate neighbours — all
                // before it — end up after it.
                self.deg_plus[wi] += self.cd[wi];
                if self.cd[wi] > 0 {
                    self.shed_candidates(adj, core, k, w, epoch);
                }
            }
        }

        // Moves wait until the walk ends, so the heap's labels stayed valid.
        let mut risen = Vec::new();
        for &c in &self.candidates {
            if self.processed[c as usize] != epoch {
                risen.push(c);
            }
            self.levels.unlink(k, c);
        }
        let mut start = 0;
        while start < self.placed.len() {
            let anchor = self.placed[start].1;
            let end = start
                + self.placed[start..]
                    .iter()
                    .take_while(|&&(_, a)| a == anchor)
                    .count();
            self.queue.clear();
            self.queue
                .extend(self.placed[start..end].iter().map(|&(c, _)| c));
            self.levels.splice(k, anchor, &self.queue);
            start = end;
        }
        for &c in &risen {
            core[c as usize] = k + 1;
        }
        self.levels.splice(k + 1, NIL, &risen);
        risen.sort_unstable();
        (risen, visited)
    }

    /// The non-candidate `w` no longer supports its candidate neighbours:
    /// each loses one `deg⁺`, and those left with `deg* + deg⁺ ≤ K` leave
    /// the set in a cascade, to be placed right after `w` in pop order.
    /// A leaver is finalised when popped, not when queued: until then it
    /// still counts as a candidate for the others' bookkeeping.
    fn shed_candidates(&mut self, adj: &Adjacency, core: &[u32], k: u32, w: VertexId, epoch: u32) {
        self.queue.clear();
        for &c in adj.neighbors(w) {
            if self.is_candidate(c, epoch) {
                self.deg_plus[c as usize] -= 1;
                if self.deg_plus[c as usize] + self.cd[c as usize] == k {
                    self.queue.push(c);
                }
            }
        }
        let w_label = self.levels.label[w as usize];
        let mut head = 0;
        while head < self.queue.len() {
            let c = self.queue[head];
            head += 1;
            let ci = c as usize;
            self.processed[ci] = epoch;
            // Placed after w: its candidate neighbours from before end up
            // after it too.
            self.deg_plus[ci] += self.cd[ci];
            self.placed.push((c, w));
            for &x in adj.neighbors(c) {
                let xi = x as usize;
                if core[xi] != k {
                    continue;
                }
                if self.is_candidate(x, epoch) {
                    if self.levels.label[xi] < self.levels.label[ci] {
                        self.deg_plus[xi] -= 1;
                    } else {
                        self.cd[xi] -= 1;
                    }
                    if self.deg_plus[xi] + self.cd[xi] == k {
                        self.queue.push(x);
                    }
                } else if self.mark[xi] == epoch && self.levels.label[xi] > w_label {
                    // Still on the heap: c no longer precedes it as a
                    // candidate.
                    self.cd[xi] -= 1;
                }
            }
        }
    }

    /// Repairs cores and order after `{a, b}` was removed from `adj`.
    /// Returns the dropped vertices (sorted) and the vertices visited.
    fn remove(
        &mut self,
        adj: &Adjacency,
        core: &mut [u32],
        a: VertexId,
        b: VertexId,
    ) -> (Vec<VertexId>, u64) {
        let u = if self.before(core, a, b) { a } else { b };
        self.deg_plus[u as usize] -= 1;
        let k = core[a as usize].min(core[b as usize]);

        // Lazy drop cascade: only core == K vertices can drop, each by
        // exactly one.  `mark` flags vertices whose support has been
        // counted; `evicted` flags dropped vertices (core updated at the end
        // so supports are counted against pre-cascade numbers); `processed`
        // flags evicted vertices whose decrement pass has already run.  A
        // first-touch support count must exclude exactly the `processed`
        // droppers: the still-queued ones remain counted and subtract
        // themselves when they pop — excluding them up front too would
        // double-count the loss and drop vertices that actually survive.
        let epoch = self.bump_epoch();
        self.queue.clear();
        let mut visited = 0u64;
        let mut dropped: Vec<VertexId> = Vec::new();
        for root in [a, b] {
            let ri = root as usize;
            if core[ri] != k || self.mark[ri] == epoch {
                continue;
            }
            self.mark[ri] = epoch;
            visited += 1;
            let support = adj
                .neighbors(root)
                .iter()
                .filter(|&&x| core[x as usize] >= k)
                .count() as u32;
            self.cd[ri] = support;
            if support < k {
                self.evicted[ri] = epoch;
                self.queue.push(root);
            }
        }
        while let Some(w) = self.queue.pop() {
            dropped.push(w);
            self.processed[w as usize] = epoch;
            for &x in adj.neighbors(w) {
                let xi = x as usize;
                if core[xi] != k || self.evicted[xi] == epoch {
                    continue;
                }
                if self.mark[xi] != epoch {
                    // First touch: count x's support now, excluding droppers
                    // that already ran their decrement pass (w included).
                    self.mark[xi] = epoch;
                    visited += 1;
                    let support = adj
                        .neighbors(x)
                        .iter()
                        .filter(|&&y| {
                            let yi = y as usize;
                            core[yi] > k || (core[yi] == k && self.processed[yi] != epoch)
                        })
                        .count() as u32;
                    self.cd[xi] = support;
                } else {
                    self.cd[xi] -= 1;
                }
                if self.cd[xi] < k {
                    self.evicted[xi] = epoch;
                    self.queue.push(x);
                }
            }
        }

        // Level-K vertices that stay lose one deg⁺ per dropper after them;
        // the droppers go to the tail of level K − 1 in pop order, where
        // only later droppers and cores ≥ K are after them.
        for &d in &dropped {
            let d_label = self.levels.label[d as usize];
            for &x in adj.neighbors(d) {
                let xi = x as usize;
                if core[xi] == k && self.evicted[xi] != epoch && self.levels.label[xi] < d_label {
                    self.deg_plus[xi] -= 1;
                }
            }
            self.levels.unlink(k, d);
            core[d as usize] = k - 1;
        }
        if !dropped.is_empty() {
            let tail = self.levels.tail[k as usize - 1];
            self.levels.splice(k - 1, tail, &dropped);
            for &d in &dropped {
                self.deg_plus[d as usize] = self.count_after(adj, core, d);
            }
        }
        dropped.sort_unstable();
        (dropped, visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{core_decomposition, GraphBuilder};

    /// The current graph built by [`GraphBuilder`] from the adjacency rows,
    /// independently of the publish path's CSR merge.
    fn rebuilt(d: &DynamicGraph) -> Graph {
        let mut b = GraphBuilder::new();
        if d.num_vertices() > 0 {
            b.ensure_vertex(d.num_vertices() as VertexId - 1);
        }
        for u in 0..d.num_vertices() as VertexId {
            for &v in d.adj.neighbors(u) {
                if u < v {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }

    /// Checks the k-order against its definition: each level's list holds
    /// exactly its core's vertices with strictly increasing labels, every
    /// stored `deg⁺` equals a recount over the rebuilt graph, and
    /// `deg⁺ ≤ core`.  Also checks the cores against a full peel.
    fn assert_invariants(d: &DynamicGraph, context: &str) {
        let rebuilt = rebuilt(d);
        assert_eq!(
            core_decomposition(&rebuilt).core_numbers(),
            d.core_numbers(),
            "cores diverged from a full peel ({context})"
        );
        let Some(order) = &d.order else { return };
        let levels = &order.levels;
        let mut seen = 0;
        for k in 0..levels.head.len() {
            let (mut prev, mut v) = (NIL, levels.head[k]);
            while v != NIL {
                let vi = v as usize;
                assert_eq!(d.core[vi] as usize, k, "{v} in level {k} ({context})");
                assert_eq!(levels.prev[vi], prev, "broken prev link ({context})");
                if prev != NIL {
                    assert!(
                        levels.label[prev as usize] < levels.label[vi],
                        "level {k} labels out of order ({context})"
                    );
                }
                seen += 1;
                prev = v;
                v = levels.next[vi];
            }
            assert_eq!(levels.tail[k], prev, "broken tail of level {k} ({context})");
        }
        assert_eq!(seen, d.num_vertices(), "levels miss vertices ({context})");
        let key = |v: VertexId| (d.core[v as usize], levels.label[v as usize]);
        for v in rebuilt.vertices() {
            let after = rebuilt
                .neighbors(v)
                .iter()
                .filter(|&&w| key(w) > key(v))
                .count() as u32;
            assert_eq!(order.deg_plus[v as usize], after, "deg⁺({v}) ({context})");
            assert!(after <= d.core[v as usize], "deg⁺({v}) > core ({context})");
        }
    }

    /// Linear congruential steps for the deterministic streams.
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 33
    }

    /// A Barabási–Albert graph (preferential attachment by sampling edge
    /// endpoints, seeded with a clique), the shape of the Brightkite
    /// surrogate: nearly every vertex sits in the one core level `per`.
    fn barabasi_albert(n: usize, per: usize, seed: u64) -> Graph {
        let mut x = seed;
        let mut b = GraphBuilder::new();
        let mut endpoints = Vec::new();
        for u in 0..=per as VertexId {
            for v in u + 1..=per as VertexId {
                b.add_edge(u, v);
                endpoints.extend([u, v]);
            }
        }
        for v in per as VertexId + 1..n as VertexId {
            let mut targets = Vec::new();
            while targets.len() < per {
                let t = endpoints[lcg(&mut x) as usize % endpoints.len()];
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for t in targets {
                b.add_edge(v, t);
                endpoints.extend([v, t]);
            }
        }
        b.build()
    }

    /// Runs a seeded stream mixing inserts of absent pairs, removals of
    /// edges the stream added, removals of base edges and vertex additions,
    /// rebasing every 50 steps as a commit does, and checks every invariant
    /// after every step.
    fn check_random_stream(mut d: DynamicGraph, steps: usize, seed: u64) {
        let mut x = seed;
        let mut added: Vec<(VertexId, VertexId)> = Vec::new();
        let mut counts = [0usize; 4];
        for step in 0..steps {
            let n = d.num_vertices() as u64;
            let roll = lcg(&mut x) % 100;
            let change = if roll < 50 {
                let (u, v) = ((lcg(&mut x) % n) as VertexId, (lcg(&mut x) % n) as VertexId);
                if u == v || d.has_edge(u, v) {
                    continue;
                }
                added.push((u, v));
                counts[0] += 1;
                d.insert_edge(u, v).unwrap()
            } else if roll < 75 && !added.is_empty() {
                let (u, v) = added.swap_remove(lcg(&mut x) as usize % added.len());
                if !d.has_edge(u, v) {
                    continue;
                }
                counts[1] += 1;
                d.remove_edge(u, v).unwrap()
            } else if roll < 95 {
                let u = (lcg(&mut x) % n) as VertexId;
                if d.degree(u) == 0 {
                    continue;
                }
                let v = d.adj.neighbors(u)[lcg(&mut x) as usize % d.degree(u)];
                counts[2] += 1;
                d.remove_edge(u, v).unwrap()
            } else {
                counts[3] += 1;
                d.add_vertex();
                EdgeChange {
                    applied: true,
                    ..EdgeChange::default()
                }
            };
            assert!(change.applied, "step {step}");
            assert_invariants(&d, &format!("step {step}"));
            if step % 50 == 49 {
                let expected = rebuilt(&d);
                assert_eq!(d.publish(), expected, "step {step}");
                assert_eq!(d.num_edges(), expected.num_edges(), "step {step}");
            }
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "stream lacks an op kind: {counts:?}"
        );
    }

    #[test]
    fn order_invariants_hold_on_a_flat_barabasi_albert_level() {
        // Brightkite's size and degree at scale 0.02: 1,028 vertices, 4
        // attachment edges each.
        let g = barabasi_albert(1028, 4, 0xB219);
        check_random_stream(DynamicGraph::from_graph(&g), 1500, 0x5EED);
    }

    #[test]
    fn order_invariants_hold_on_a_small_random_graph() {
        let mut b = GraphBuilder::new();
        let mut x = 0xC0DE;
        for _ in 0..150 {
            b.add_edge(
                (lcg(&mut x) % 60) as VertexId,
                (lcg(&mut x) % 60) as VertexId,
            );
        }
        b.ensure_vertex(59);
        let g = b.build();
        // The order is peeled lazily on the first edge mutation here.
        let d = DynamicGraph::from_parts(&g, &core_decomposition(&g));
        assert!(d.order.is_none());
        check_random_stream(d, 1500, 0xFACE);
    }

    #[test]
    fn splicing_into_one_gap_relabels_the_level() {
        let mut d = DynamicGraph::from_graph(&Graph::empty(3));
        // Each newcomer goes right after vertex 0 in level 0: the gap halves
        // every time, so labels only stay strictly increasing if the level
        // is relabelled once it closes.
        for _ in 0..100 {
            let v = d.add_vertex();
            let levels = &mut d.order.as_mut().unwrap().levels;
            levels.unlink(0, v);
            levels.splice(0, 0, &[v]);
        }
        assert_invariants(&d, "relabel");
    }

    #[test]
    fn publish_merges_changed_rows_and_rebases() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut d = DynamicGraph::from_graph(&g);
        d.insert_edge(0, 4).unwrap();
        let v = d.add_vertex();
        d.insert_edge(v, 2).unwrap();
        d.remove_edge(2, 3).unwrap();
        let expected = GraphBuilder::from_edges([(0, 1), (1, 2), (3, 4), (0, 4), (5, 2)]);
        assert_eq!(rebuilt(&d), expected);
        assert_eq!(d.publish(), expected);
        assert!(d.adj.rows.is_empty());
        assert_eq!(rebuilt(&d), expected);
        // Nothing changed since: the base itself is published again.
        let again = d.publish();
        assert_eq!(again, expected);
        assert_invariants(&d, "published");
    }

    fn assert_cores_match(dynamic: &DynamicGraph) {
        let fresh = core_decomposition(&rebuilt(dynamic));
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
            let fresh = core_decomposition(&rebuilt(&d));
            assert_eq!(
                fresh.core_numbers(),
                d.core_numbers(),
                "divergence at step {step} ({u}, {v})"
            );
        }
        assert!(d.num_edges() > 0);
    }

    #[test]
    fn csr_roundtrip_preserves_structure() {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let mut d = DynamicGraph::from_graph(&g);
        assert_eq!(d.publish(), g);
        assert_eq!(d.decomposition().core_numbers(), d.core_numbers());
        assert_eq!(d.decomposition().max_core(), d.max_core());
    }
}
