//! Internal helpers shared by the SAC search algorithms.

use crate::{Community, SacError};
use sac_geom::{Circle, Point};
use sac_graph::{
    connected_kcore, CoreDecomposition, KCoreComponents, KCoreSolver, RadiusSweepSolver,
    SpatialGraph, SweepStats, VertexId,
};
use std::sync::Arc;

/// Per-query scratch state shared by all algorithms: the validated query, a
/// reusable subset-k-core solver, an incremental radius-sweep solver, a
/// reusable in-circle member buffer and — when the caller already has one —
/// a shared k-core index that lets the structural phase (Step 1) skip its
/// `O(m)` peel.
///
/// A context is the execution environment [`Algorithm::run`](crate::Algorithm::run)
/// runs in: the serving engine builds one per query (threading its cached
/// per-`k` component index through [`SearchContext::with_components`]) and
/// hands it to whichever algorithm the planner picked.
///
/// ## Probe model
///
/// Algorithms ask "is there a connected k-core containing `q` inside circle
/// `O(c, r)`?" over monotone nested circle families.  The sweep API amortises
/// that loop: [`SearchContext::begin_sweep`] makes one pass over the member
/// list the algorithm searches (the k-ĉore `X`, or `AppAcc`'s `S ⊆ X`), after
/// which every [`SearchContext::probe`] at `r ≤ r_max` is answered from a
/// prefix of the lazily partitioned candidate array (each probe partitions
/// only the one unordered bucket its radius falls in) with an incremental
/// peel (see [`sac_graph::RadiusSweepSolver`]).
/// [`SearchContext::feasible_in_circle`] is the from-scratch single-probe
/// path over the same kind of member list (`AppAcc`'s line 3, `θ-SAC`).
/// No probe reads a spatial index: every connected k-core containing `q`
/// lies in `X`, so filtering `X` by the circle is the whole range query.
pub struct SearchContext<'g> {
    pub(crate) g: &'g SpatialGraph,
    pub(crate) q: VertexId,
    pub(crate) k: u32,
    solver: KCoreSolver,
    sweep: RadiusSweepSolver,
    step1: Step1,
    circle_buf: Vec<VertexId>,
}

/// Where [`SearchContext::global_kcore_of_q`] reads Step 1 from.
enum Step1 {
    /// Nothing shared: a full peel of the graph.
    Peel,
    /// A shared core decomposition: a BFS over the vertices with core
    /// number ≥ `k`.
    Decomposition(Arc<CoreDecomposition>),
    /// The shared component index of the k-core: a slice copy.
    Components(Arc<KCoreComponents>),
}

impl<'g> SearchContext<'g> {
    /// Validates the query vertex and builds the scratch state.
    pub fn new(g: &'g SpatialGraph, q: VertexId, k: u32) -> Result<Self, SacError> {
        SearchContext::build(g, q, k, Step1::Peel)
    }

    /// Like [`SearchContext::new`], but reuses an already-computed core
    /// decomposition of `g`: [`SearchContext::global_kcore_of_q`] then costs
    /// a BFS over the k-ĉore instead of a full peel.  The decomposition must
    /// belong to exactly this graph.
    pub fn with_decomposition(
        g: &'g SpatialGraph,
        q: VertexId,
        k: u32,
        decomposition: Arc<CoreDecomposition>,
    ) -> Result<Self, SacError> {
        assert_eq!(
            decomposition.core_numbers().len(),
            g.num_vertices(),
            "decomposition does not match graph"
        );
        SearchContext::build(g, q, k, Step1::Decomposition(decomposition))
    }

    /// Like [`SearchContext::new`], but reuses the connected-component index
    /// of `g`'s k-core (e.g. the serving engine's per-`k` cache entry):
    /// [`SearchContext::global_kcore_of_q`] then costs one copy of the
    /// k-ĉore's sorted member slice, with no peel and no BFS.
    ///
    /// The index must be built for this `k` and must belong to this graph.
    /// Its covered vertex count may fall short of `g`'s when the index was
    /// carried over from an earlier epoch that `g` only appended vertices to
    /// (ids past the covered range are outside the k-core); it may never
    /// exceed it.
    pub fn with_components(
        g: &'g SpatialGraph,
        q: VertexId,
        k: u32,
        components: Arc<KCoreComponents>,
    ) -> Result<Self, SacError> {
        assert!(
            components.covered_vertices() <= g.num_vertices(),
            "component index does not match graph"
        );
        assert_eq!(components.k(), k, "component index built for another k");
        SearchContext::build(g, q, k, Step1::Components(components))
    }

    fn build(g: &'g SpatialGraph, q: VertexId, k: u32, step1: Step1) -> Result<Self, SacError> {
        if (q as usize) >= g.num_vertices() {
            return Err(SacError::QueryVertexOutOfRange(q));
        }
        Ok(SearchContext {
            g,
            q,
            k,
            solver: KCoreSolver::new(g.num_vertices()),
            sweep: RadiusSweepSolver::new(g.num_vertices()),
            step1,
            circle_buf: Vec::new(),
        })
    }

    /// The k-ĉore containing `q` in the **whole** graph (Step 1 of the paper's
    /// two-step framework), sorted by id; `None` when `q` is in no k-core.
    ///
    /// With a shared component index this copies the k-ĉore's member slice;
    /// with a shared decomposition it is a BFS over vertices with core
    /// number ≥ `k`; without either it falls back to
    /// [`sac_graph::connected_kcore`], which recomputes the decomposition.
    /// All three paths return the identical sorted vertex set.
    pub fn global_kcore_of_q(&self) -> Option<Vec<VertexId>> {
        match &self.step1 {
            Step1::Components(c) => c.core_of(self.q).map(<[VertexId]>::to_vec),
            Step1::Decomposition(d) => {
                if d.core_number(self.q) < self.k {
                    return None;
                }
                Some(sac_graph::bfs_component(self.g.graph(), self.q, |v| {
                    d.core_number(v) >= self.k
                }))
            }
            Step1::Peel => connected_kcore(self.g.graph(), self.q, self.k),
        }
    }

    /// The graph this context searches.
    pub fn graph(&self) -> &'g SpatialGraph {
        self.g
    }

    /// The query vertex this context was built for.
    pub fn query_vertex(&self) -> VertexId {
        self.q
    }

    /// The minimum-degree constraint `k` this context was built for.
    pub fn degree_bound(&self) -> u32 {
        self.k
    }

    /// Location of the query vertex.
    pub fn q_pos(&self) -> Point {
        self.g.position(self.q)
    }

    /// Distance from the query vertex to `v`.
    pub fn dist_to_q(&self, v: VertexId) -> f64 {
        self.g.position(v).distance(self.q_pos())
    }

    /// Returns the connected k-core containing `q` induced by the vertices of
    /// `members` (distinct vertices in any order) inside `circle`.  `None`
    /// when no feasible community exists.
    ///
    /// With the k-ĉore containing `q` as the members this is the answer over
    /// the whole graph: every connected k-core containing `q` lies in it.
    /// This is the from-scratch path (one pass over `members` with the
    /// [`Circle::contains`] bound, then one full subset peel).  Probe loops
    /// over nested circles should use [`SearchContext::begin_sweep`] /
    /// [`SearchContext::probe`] instead, which answer the same question
    /// bit-identically at amortised cost.
    pub fn feasible_in_circle(
        &mut self,
        circle: &Circle,
        members: &[VertexId],
    ) -> Option<Vec<VertexId>> {
        let (g, bound) = (self.g, circle.contains_bound_sq());
        let inside = |&v: &VertexId| circle.center.distance_sq(g.position(v)) <= bound;
        self.circle_buf.clear();
        self.circle_buf
            .extend(members.iter().copied().filter(inside));
        self.solver
            .kcore_containing(self.g.graph(), &self.circle_buf, self.q, self.k)
    }

    /// Runs `f` on [`SearchContext::global_kcore_of_q`]'s k-ĉore, borrowing
    /// a shared component index's member slice instead of copying it;
    /// `None` when `q` is in no k-core.
    pub(crate) fn with_kcore_of_q<R>(
        &mut self,
        f: impl FnOnce(&mut Self, &[VertexId]) -> R,
    ) -> Option<R> {
        if let Step1::Components(index) = &self.step1 {
            let index = Arc::clone(index);
            return index.core_of(self.q).map(|x| f(self, x));
        }
        let x = self.global_kcore_of_q()?;
        Some(f(self, &x))
    }

    /// Starts an incremental radius sweep centred at `center` covering every
    /// probe radius up to `r_max`, restricted to `members` (distinct vertices
    /// in any order, e.g. the k-ĉore containing `q`): one pass over them,
    /// after which [`SearchContext::probe`] answers any `O(center, r)` with
    /// `r ≤ r_max` without a spatial query.
    pub fn begin_sweep(&mut self, center: Point, r_max: f64, members: &[VertexId]) {
        self.sweep
            .begin(self.g, center, r_max, self.q, self.k, members);
    }

    /// Sweep probe: the connected k-core containing `q` among the sweep's
    /// members inside `O(center, r)`, served incrementally from the current
    /// sweep (shrinks continue the deletion cascade; grows re-seed from the
    /// maintained pre-peel state); the same answer as
    /// [`SearchContext::feasible_in_circle`] over the sweep's members.
    pub fn probe(&mut self, r: f64) -> Option<Vec<VertexId>> {
        self.sweep.probe_radius(self.g.graph(), r)
    }

    /// Sweep probe for an **arbitrary** circle (the triple-enumeration loops
    /// of `Exact`/`Exact+`, whose circles are not concentric): the candidate
    /// view replaces the pass over the members, the flat-bitset subset solver
    /// does the peel.  The current sweep's candidate view must cover the circle
    /// (`Exact`/`Exact+` begin their sweep at `q` with `r_max` past twice the
    /// current best radius, which Lemma 1 guarantees is enough).
    pub fn probe_circle(&mut self, circle: &Circle) -> Option<Vec<VertexId>> {
        self.sweep.count_probe();
        if !circle.contains(self.q_pos()) {
            // q outside the circle: the from-scratch subset would not contain
            // q, so the answer is `None` without materialising the subset.
            return None;
        }
        self.sweep
            .candidates_in_circle_into(self.g, circle, &mut self.circle_buf);
        self.solver
            .kcore_containing(self.g.graph(), &self.circle_buf, self.q, self.k)
    }

    /// Starts a *collected* sweep (empty candidate list): `AppInc` grows the
    /// absorbed set one vertex at a time via [`SearchContext::collect`] and
    /// probes it with [`SearchContext::probe_collected`].
    pub fn begin_collect(&mut self) {
        self.sweep
            .begin_collect(self.g.num_vertices(), self.q, self.k);
    }

    /// Appends `v` to the collected sweep, maintaining the pre-peel state
    /// incrementally (`v` must not have been collected before).
    pub fn collect(&mut self, v: VertexId) {
        self.sweep.push_candidate(self.g.graph(), v);
    }

    /// Feasibility probe over every vertex collected so far; bit-identical to
    /// running the subset solver on the collected list.
    pub fn probe_collected(&mut self) -> Option<Vec<VertexId>> {
        self.sweep.probe_collected(self.g.graph())
    }

    /// The smallest candidate distance strictly greater than `r` in the
    /// current sweep (`f64::INFINITY` when exhausted) — the `AppFast`
    /// lower-bound advance, answered from the one unordered bucket around `r`
    /// (which it partitions at `r`) instead of a scan of every candidate.
    pub fn next_candidate_distance_above(&mut self, r: f64) -> f64 {
        self.sweep.next_distance_above(r)
    }

    /// Cumulative sweep counters for this context (probe/candidate counts the
    /// serving engine surfaces in its per-query trace).
    pub fn sweep_stats(&self) -> SweepStats {
        self.sweep.stats()
    }
}

/// The sweep `r_max` that covers every probe circle of radius `< r` that
/// contains `q`: a member `v` of such a circle satisfies `|v, q| ≤ 2r`
/// (triangle inequality through the circle centre), so a q-centred candidate
/// view of this radius covers the triple-enumeration loops of `Exact`/`Exact+`.
/// The `EPS` slack (absolute + relative) generously absorbs the circle
/// inclusion tolerance and floating-point rounding, and any extra candidate it
/// admits is filtered back out by the exact per-circle containment test.
pub(crate) fn sweep_cover_radius(r: f64) -> f64 {
    let diameter = 2.0 * r;
    diameter + sac_geom::EPS * (8.0 + 8.0 * diameter)
}

/// Handles the trivial degree parameters the paper dispenses with up front
/// (Section 4.1): for `k = 0` the query vertex alone is an optimal SAC, and for
/// `k = 1` the optimal SAC is `q` together with its spatially nearest graph
/// neighbour.  Returns `None` when `k >= 2` so the caller runs the full algorithm.
pub(crate) fn trivial_small_k(g: &SpatialGraph, q: VertexId, k: u32) -> Option<Option<Community>> {
    match k {
        0 => Some(Some(Community::new(g, vec![q]))),
        1 => {
            let qp = g.position(q);
            let nearest = g.neighbors(q).iter().copied().min_by(|&a, &b| {
                g.position(a)
                    .distance(qp)
                    .partial_cmp(&g.position(b).distance(qp))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            Some(nearest.map(|v| Community::new(g, vec![q, v])))
        }
        _ => None,
    }
}

/// The lower bound `l` of Eq. (1): the distance from `q` to its k-th nearest
/// neighbour among `candidates ∩ nb(q)` (`candidates` sorted by id).
///
/// Every feasible solution gives `q` at least `k` neighbours inside the solution's
/// MCC, so the minimal q-centred radius δ is at least this value... the paper uses
/// it as the binary-search lower bound.  Returns `None` when `q` has fewer than `k`
/// eligible neighbours (in which case no feasible solution exists).
pub(crate) fn knn_lower_bound(
    g: &SpatialGraph,
    q: VertexId,
    k: u32,
    candidates: &[VertexId],
) -> Option<f64> {
    debug_assert!(candidates.is_sorted(), "candidates must be sorted by id");
    let qp = g.position(q);
    let mut dists: Vec<f64> = g
        .neighbors(q)
        .iter()
        .copied()
        .filter(|v| candidates.binary_search(v).is_ok())
        .map(|v| g.position(v).distance(qp))
        .collect();
    if dists.len() < k as usize {
        return None;
    }
    // Only the k-th smallest is needed: partial selection instead of a sort.
    let (_, kth, _) = dists.select_nth_unstable_by(k as usize - 1, |a, b| {
        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
    });
    Some(*kth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, figure3_graph};
    use sac_graph::{core_decomposition, GraphBuilder};

    /// `g` plus one isolated vertex appended (the shape of a live epoch that
    /// only added a vertex).
    fn with_extra_vertex(g: &SpatialGraph) -> SpatialGraph {
        let mut b = GraphBuilder::new();
        b.ensure_vertex(g.num_vertices() as VertexId);
        b.add_edges(g.graph().edges());
        let mut positions = g.positions().to_vec();
        positions.push(Point::new(9.0, 9.0));
        SpatialGraph::new(b.build(), positions).unwrap()
    }

    fn components_of(g: &SpatialGraph, k: u32) -> Arc<KCoreComponents> {
        let d = core_decomposition(g.graph());
        Arc::new(KCoreComponents::build(g.graph(), &d, k))
    }

    #[test]
    fn carried_component_indexes_answer_for_the_grown_graph() {
        let g = figure3_graph();
        let grown = with_extra_vertex(&g);
        // k = 0 is left out: an appended vertex joins the 0-core, so the
        // engine never carries a k = 0 index across epochs.
        for k in 1..=3 {
            let old_index = components_of(&g, k);
            for q in 0..grown.num_vertices() as VertexId {
                let expected = SearchContext::new(&grown, q, k)
                    .unwrap()
                    .global_kcore_of_q();
                // An index of the epoch before the vertex was appended
                // still answers for the grown graph.
                let carried = SearchContext::with_components(&grown, q, k, old_index.clone());
                assert_eq!(
                    carried.unwrap().global_kcore_of_q(),
                    expected,
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "component index built for another k")]
    fn with_components_rejects_an_index_of_another_k() {
        let g = figure3_graph();
        let _ = SearchContext::with_components(&g, figure3::Q, 3, components_of(&g, 2));
    }

    #[test]
    #[should_panic(expected = "component index does not match graph")]
    fn with_components_rejects_an_index_of_a_larger_graph() {
        let g = figure3_graph();
        let index = components_of(&with_extra_vertex(&g), 2);
        let _ = SearchContext::with_components(&g, figure3::Q, 2, index);
    }

    #[test]
    fn context_validates_query_vertex() {
        let g = figure3_graph();
        assert!(SearchContext::new(&g, 0, 2).is_ok());
        assert!(matches!(
            SearchContext::new(&g, 42, 2),
            Err(SacError::QueryVertexOutOfRange(42))
        ));
    }

    #[test]
    fn feasible_in_circle_finds_triangles() {
        let g = figure3_graph();
        let mut ctx = SearchContext::new(&g, figure3::Q, 2).unwrap();
        let x = ctx.global_kcore_of_q().unwrap();
        // A large circle around Q covers the whole left 2-ĉore.
        let big = Circle::new(ctx.q_pos(), 10.0);
        let community = ctx.feasible_in_circle(&big, &x).unwrap();
        assert_eq!(community, vec![0, 1, 2, 3, 4, 5]);
        // Every vertex as the members: the same answer.
        let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        assert_eq!(ctx.feasible_in_circle(&big, &all), Some(community));
        // A tight circle around Q covers nothing feasible.
        let tiny = Circle::new(ctx.q_pos(), 0.5);
        assert!(ctx.feasible_in_circle(&tiny, &x).is_none());
    }

    #[test]
    fn sweep_probes_match_feasible_in_circle() {
        let g = figure3_graph();
        let mut ctx = SearchContext::new(&g, figure3::Q, 2).unwrap();
        let mut reference = SearchContext::new(&g, figure3::Q, 2).unwrap();
        let center = ctx.q_pos();
        let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        ctx.begin_sweep(center, 10.0, &all);
        for r in [10.0, 1.0, 4.0, 0.2, 2.5, 0.0, 10.0] {
            assert_eq!(
                ctx.probe(r),
                reference.feasible_in_circle(&Circle::new(center, r), &all),
                "radius {r}"
            );
        }
        // Arbitrary (non-concentric) circles through the same sweep.
        ctx.begin_sweep(center, sweep_cover_radius(10.0), &all);
        for (cx, cy, r) in [(1.0, 0.5, 2.0), (3.0, 3.0, 1.0), (0.0, 0.0, 0.5)] {
            let circle = Circle::new(sac_geom::Point::new(cx, cy), r);
            assert_eq!(
                ctx.probe_circle(&circle),
                reference.feasible_in_circle(&circle, &all),
                "circle ({cx}, {cy}) r={r}"
            );
        }
        assert!(ctx.sweep_stats().probes >= 10);
        // Restricting the members to {Q, C, D} finds exactly that triangle.
        let triangle = [figure3::D, figure3::Q, figure3::C];
        ctx.begin_sweep(center, 10.0, &triangle);
        assert_eq!(
            ctx.probe(10.0),
            Some(vec![figure3::Q, figure3::C, figure3::D])
        );
    }

    #[test]
    fn trivial_k_zero_and_one() {
        let g = figure3_graph();
        let zero = trivial_small_k(&g, figure3::Q, 0).unwrap().unwrap();
        assert_eq!(zero.members(), &[figure3::Q]);
        assert_eq!(zero.radius(), 0.0);

        let one = trivial_small_k(&g, figure3::Q, 1).unwrap().unwrap();
        assert_eq!(one.len(), 2);
        assert!(one.contains(figure3::Q));
        // The nearest neighbour of Q is B in the fixture coordinates.
        assert!(one.contains(figure3::B));

        // Isolated vertex with k = 1 has no community.
        assert!(trivial_small_k(&g, figure3::I, 1).unwrap().is_some()); // I has a neighbour (H)
        assert!(trivial_small_k(&g, figure3::Q, 2).is_none());
    }

    #[test]
    fn knn_lower_bound_matches_sorted_distances() {
        let g = figure3_graph();
        let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        let l1 = knn_lower_bound(&g, figure3::Q, 1, &all).unwrap();
        let l2 = knn_lower_bound(&g, figure3::Q, 2, &all).unwrap();
        let l4 = knn_lower_bound(&g, figure3::Q, 4, &all).unwrap();
        assert!(l1 <= l2 && l2 <= l4);
        // Q has 4 neighbours, so k = 5 is impossible.
        assert!(knn_lower_bound(&g, figure3::Q, 5, &all).is_none());
        // Restricting the candidates shrinks the eligible neighbours.
        let only_cd = [figure3::C, figure3::D];
        assert!(knn_lower_bound(&g, figure3::Q, 3, &only_cd).is_none());
    }
}
