//! Incremental radius-sweep solver for connected-k-core probes.
//!
//! Every SAC search algorithm is a loop of *probes* — "is there a connected
//! k-core containing `q` among the vertices inside circle `O(c, r)`?" — over a
//! monotone nested family of circles.  The from-scratch path pays a filter of
//! every member by the circle plus a complete subset peel per probe.  [`RadiusSweepSolver`]
//! amortises both across the whole loop:
//!
//! * **Candidate view** — one pass over the vertices the search may use
//!   (the k-ĉore containing `q`, or a subset of it) at
//!   [`RadiusSweepSolver::begin`] keeps every member within the largest
//!   probe radius as unsorted `(distance², vertex)` pairs.  Membership is
//!   decided by [`sac_geom::Circle::contains_bound_sq`], the inclusion bound
//!   of [`sac_geom::Circle::contains`], which is monotone in the radius; so the vertex set of *any* probe radius
//!   `r ≤ r_max` is a distance² down-set of that array, and no spatial
//!   query is needed at all.  The view is kept
//!   *lazily partitioned*: each probe makes its down-set a prefix by
//!   partitioning, in place, only the one bucket between the two nearest
//!   known split points (incremental quickselect).  Earlier splits never
//!   move, so every prefix length the peel state indexes stays a valid set
//!   prefix, and a sweep whose first probe already decides it never pays
//!   for ordering candidates at all.
//! * **Pre-peel state** — the prefix membership bitset and prefix-restricted
//!   degrees are maintained incrementally: moving the probe radius only
//!   touches the annulus ring of candidates between the old and new radius
//!   (the first prefix of a sweep is built in bulk: all membership bits
//!   first, then one in-prefix neighbour count per member).
//! * **Incremental peel** — shrinking the radius removes the annulus from the
//!   current peeled state and continues the existing deletion cascade (the
//!   k-core of a subset is contained in the k-core of its superset, so no
//!   re-peel is needed); growing the radius re-seeds from the saved pre-peel
//!   state, skipping the per-probe degree recomputation entirely.  One
//!   checkpoint of the most recent changed feasible probe makes the shrink
//!   path available even after an infeasible probe wrecked the working
//!   state — exactly the access pattern of the paper's binary searches,
//!   which only ever probe below the last feasible radius.
//! * **Component collection** — a probe whose peel changed re-collects the
//!   component of `q` with one bitset of unreached vertices: seeded with the
//!   alive candidates of the prefix, cleared bit by bit as the BFS reaches
//!   vertices (one bit test per edge), and read back as `alive & !unreached`
//!   in id order, which also zeroes it.  Probes that leave the peel
//!   unchanged answer from the cached member list without a BFS.
//!
//! Probe answers are bit-identical to running [`crate::KCoreSolver`] on the
//! from-scratch circle query (the `sac-core` property suite pins this),
//! turning the per-query cost from `O(probes × Σdeg(S))` toward
//! `O(Σdeg(S) + Σdeg(changed rings))`.

use crate::{bits, Graph, SpatialGraph, VertexId};
use sac_geom::{Circle, Point};

/// Cumulative counters of one [`RadiusSweepSolver`] (the serving engine
/// reports `probes` and `candidates` in each query's trace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Sweeps started (`begin`/`begin_collect` calls).
    pub sweeps: u64,
    /// Feasibility probes answered (prefix, circle and collected probes).
    pub probes: u64,
    /// Candidates materialised across all sweep begins.
    pub candidates: u64,
    /// Probes that rebuilt the peel state from the pre-peel arrays.
    pub reseeds: u64,
}

/// A saved peel (the sweep's checkpoint): the alive bitset and restricted
/// degrees of the first `len` candidates of a sweep, plus the member list the
/// probe answered with.  Bits are set only for candidates below `len`, which
/// keeps saves, restores and resets sparse (they iterate candidate ranges,
/// never whole bitsets).
#[derive(Debug, Clone)]
struct PeelSnapshot {
    alive: Vec<u64>,
    deg: Vec<u32>,
    len: usize,
    valid: bool,
    members: Vec<VertexId>,
}

impl PeelSnapshot {
    fn new(n: usize) -> Self {
        PeelSnapshot {
            alive: vec![0; bits::words_for(n)],
            deg: vec![0; n],
            len: 0,
            valid: false,
            members: Vec::new(),
        }
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.deg.len() < n {
            self.alive.resize(bits::words_for(n), 0);
            self.deg.resize(n, 0);
        }
    }

    /// Clears every bit this snapshot may hold and invalidates it.
    fn reset(&mut self, cand: &[(f64, VertexId)]) {
        for &(_, v) in &cand[..self.len] {
            bits::clear(&mut self.alive, v);
        }
        self.len = 0;
        self.valid = false;
    }

    /// Overwrites this snapshot with the working peel (`alive`/`deg` over
    /// `cand[..len]`) and the member list it answered with.
    fn save(
        &mut self,
        cand: &[(f64, VertexId)],
        alive: &[u64],
        deg: &[u32],
        len: usize,
        members: &[VertexId],
    ) {
        for &(_, v) in &cand[len..self.len.max(len)] {
            bits::clear(&mut self.alive, v);
        }
        for &(_, v) in &cand[..len] {
            if bits::test(alive, v) {
                bits::set(&mut self.alive, v);
                self.deg[v as usize] = deg[v as usize];
            } else {
                bits::clear(&mut self.alive, v);
            }
        }
        self.len = len;
        self.valid = true;
        self.members.clear();
        self.members.extend_from_slice(members);
    }

    /// Restores this snapshot into a working peel whose bits currently live
    /// below `work_len`, refreshing the member cache; returns the restored
    /// prefix length.
    fn restore(
        &self,
        cand: &[(f64, VertexId)],
        alive: &mut [u64],
        deg: &mut [u32],
        work_len: usize,
        members: &mut Vec<VertexId>,
    ) -> usize {
        for &(_, v) in &cand[self.len..work_len.max(self.len)] {
            bits::clear(alive, v);
        }
        for &(_, v) in &cand[..self.len] {
            if bits::test(&self.alive, v) {
                bits::set(alive, v);
                deg[v as usize] = self.deg[v as usize];
            } else {
                bits::clear(alive, v);
            }
        }
        members.clear();
        members.extend_from_slice(&self.members);
        self.len
    }
}

/// A sweep-capable connected-k-core solver over a lazily partitioned
/// candidate view: one pass over the search's member list per sweep,
/// incremental peels per probe from the working peel or the one checkpoint
/// of the last changed feasible probe (see the module docs above for the
/// probe model).
///
/// ```
/// use sac_graph::{GraphBuilder, RadiusSweepSolver, SpatialGraph};
/// use sac_geom::Point;
///
/// // A triangle near the origin and a far-away pendant.
/// let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
/// let positions = vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(0.5, 1.0),
///     Point::new(9.0, 9.0),
/// ];
/// let sg = SpatialGraph::new(g, positions).unwrap();
///
/// let mut sweep = RadiusSweepSolver::new(sg.num_vertices());
/// sweep.begin(&sg, Point::new(0.0, 0.0), 20.0, 0, 2, &[0, 1, 2, 3]);
/// // Probes at any radius ≤ 20 reuse the one candidate view.
/// assert_eq!(sweep.probe_radius(sg.graph(), 2.0).unwrap(), vec![0, 1, 2]);
/// assert!(sweep.probe_radius(sg.graph(), 0.5).is_none());
/// assert_eq!(sweep.probe_radius(sg.graph(), 20.0).unwrap(), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct RadiusSweepSolver {
    q: VertexId,
    k: u32,
    center: Point,
    /// `q`'s index in `cand` (`None` when `q` is not a candidate); partitions
    /// keep it current as they swap `q`.
    q_idx: Option<usize>,
    /// Whether this is a radius sweep (`begin`; radius probes allowed) rather
    /// than a collected one (`begin_collect`).
    by_distance: bool,
    /// Candidates as `(distance² from the sweep centre, vertex)`: in push
    /// order for a collected sweep, lazily partitioned for a radius sweep.
    cand: Vec<(f64, VertexId)>,
    /// Known split points of a radius sweep, ascending in both fields:
    /// `(t, i)` means every `cand[..i]` lies at distance² ≤ `t` and every
    /// `cand[i..]` beyond it.  Between two adjacent splits (or the array
    /// ends) lies one unordered bucket.
    splits: Vec<(f64, usize)>,
    // Pre-peel state: prefix membership + prefix-restricted degrees,
    // maintained incrementally (annulus updates only).
    in_prefix: Vec<u64>,
    predeg: Vec<u32>,
    prefix_len: usize,
    // Working peeled state.  `work_valid` means `alive`/`deg` are exactly the
    // k-core of the first `work_len` candidates (with `q` alive); bits are
    // set only for candidates below `work_len` even after a failed cascade
    // (peeling only clears bits).
    alive: Vec<u64>,
    deg: Vec<u32>,
    work_len: usize,
    work_valid: bool,
    // Snapshot of the most recent changed feasible probe — restoring it also
    // restores the member list, so unchanged peels answer without re-walking
    // the graph.  A binary search probes only below its last feasible
    // radius, so no feasible peel larger than this one is needed again.
    ckpt: PeelSnapshot,
    /// The member list of the current working peel (valid ⇔ `work_valid`).
    cached_members: Vec<VertexId>,
    /// Largest prefix length known to be infeasible this sweep.  Probe
    /// answers are a pure function of the prefix length and feasibility is
    /// monotone in it, so anything at or below this frontier is `None` for
    /// free.
    max_infeasible_len: usize,
    // BFS scratch of `collect_component`: the alive candidates the BFS has
    // not reached yet (always all-clear between probes).
    unreached: Vec<u64>,
    stack: Vec<VertexId>,
    stats: SweepStats,
}

impl RadiusSweepSolver {
    /// Creates a solver for graphs with at most `n` vertices.
    pub fn new(n: usize) -> Self {
        let words = bits::words_for(n);
        RadiusSweepSolver {
            q: 0,
            k: 0,
            center: Point::ORIGIN,
            q_idx: None,
            by_distance: false,
            cand: Vec::new(),
            splits: Vec::new(),
            in_prefix: vec![0; words],
            predeg: vec![0; n],
            prefix_len: 0,
            alive: vec![0; words],
            deg: vec![0; n],
            work_len: 0,
            work_valid: false,
            ckpt: PeelSnapshot::new(n),
            cached_members: Vec::new(),
            max_infeasible_len: 0,
            unreached: vec![0; words],
            stack: Vec::new(),
            stats: SweepStats::default(),
        }
    }

    /// Grows the internal buffers if the graph has more vertices than anticipated.
    fn ensure_capacity(&mut self, n: usize) {
        if self.deg.len() < n {
            let words = bits::words_for(n);
            self.in_prefix.resize(words, 0);
            self.alive.resize(words, 0);
            self.unreached.resize(words, 0);
            self.predeg.resize(n, 0);
            self.deg.resize(n, 0);
        }
        self.ckpt.ensure_capacity(n);
    }

    /// Clears every bit the previous sweep may have set (sparse: iterates the
    /// old candidate list) and invalidates all derived state.
    fn reset_sweep(&mut self) {
        for i in 0..self.prefix_len {
            bits::clear(&mut self.in_prefix, self.cand[i].1);
        }
        for i in 0..self.work_len {
            bits::clear(&mut self.alive, self.cand[i].1);
        }
        self.ckpt.reset(&self.cand);
        self.prefix_len = 0;
        self.work_len = 0;
        self.work_valid = false;
        self.cached_members.clear();
        self.max_infeasible_len = 0;
        self.cand.clear();
        self.splits.clear();
        self.q_idx = None;
    }

    /// Starts a sweep over `members` (distinct vertices, in any order): one
    /// pass keeps those inside the cover circle `O(center, r_max)` as unsorted
    /// `(distance², vertex)` candidates.  Subsequent
    /// [`RadiusSweepSolver::probe_radius`] calls at any `r ≤ r_max` answer the
    /// exact circle query `O(center, r)` restricted to `members`, without any
    /// spatial query; each orders only as much of the view as its own radius
    /// needs.
    pub fn begin(
        &mut self,
        g: &SpatialGraph,
        center: Point,
        r_max: f64,
        q: VertexId,
        k: u32,
        members: &[VertexId],
    ) {
        self.ensure_capacity(g.num_vertices());
        self.reset_sweep();
        self.q = q;
        self.k = k;
        self.center = center;
        self.by_distance = true;
        let bound_sq = Circle::new(center, r_max.max(0.0)).contains_bound_sq();
        for &v in members {
            let d2 = g.position(v).distance_sq(center);
            if d2 <= bound_sq {
                if v == q {
                    self.q_idx = Some(self.cand.len());
                }
                self.cand.push((d2, v));
            }
        }
        // The view holds exactly the members within the cover circle's
        // inclusion bound, so the whole view is the first split: a probe at
        // `r_max` itself partitions nothing.
        self.splits.push((bound_sq, self.cand.len()));
        self.stats.sweeps += 1;
        self.stats.candidates += self.cand.len() as u64;
    }

    /// Starts a *collected* sweep with an initially empty candidate list:
    /// [`RadiusSweepSolver::push_candidate`] grows the subset one vertex at a
    /// time (maintaining the pre-peel state incrementally) and
    /// [`RadiusSweepSolver::probe_collected`] asks the feasibility question
    /// for the vertices pushed so far.  This is the access pattern of the
    /// paper's `AppInc` expansion.
    pub fn begin_collect(&mut self, n: usize, q: VertexId, k: u32) {
        self.ensure_capacity(n);
        self.reset_sweep();
        self.q = q;
        self.k = k;
        self.by_distance = false;
        self.stats.sweeps += 1;
    }

    /// Appends `v` to a collected sweep (must not already be a candidate).
    pub fn push_candidate(&mut self, g: &Graph, v: VertexId) {
        debug_assert!(!self.by_distance, "push_candidate on a radius sweep");
        debug_assert!(
            !bits::test(&self.in_prefix, v),
            "candidate {v} pushed twice"
        );
        if self.q_idx.is_none() && v == self.q {
            self.q_idx = Some(self.cand.len());
        }
        self.cand.push((0.0, v));
        self.stats.candidates += 1;
        self.adjust_prefix(g, self.cand.len());
    }

    /// Records a probe that was answered outside the prefix machinery (the
    /// arbitrary-circle path), so `probes` counts every feasibility question.
    pub fn count_probe(&mut self) {
        self.stats.probes += 1;
    }

    /// Cumulative sweep counters.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// The smallest candidate distance strictly greater than `r`
    /// (`f64::INFINITY` when every candidate is within `r`).  Distances are
    /// computed as `Point::distance` does, so the value matches a linear scan
    /// over the candidates bit-for-bit.  The view is split at `r` on the way.
    pub fn next_distance_above(&mut self, r: f64) -> f64 {
        debug_assert!(self.by_distance, "next_distance_above on a collected sweep");
        let within = |d2: f64| d2.sqrt() <= r;
        let at = self.splits.partition_point(|&(t, _)| within(t));
        let (lo, hi) = self.bucket(at);
        let mid = self.partition(lo, hi, within);
        if mid > lo {
            // Everything right of `mid` lies beyond `r`, hence beyond the
            // farthest candidate left of it: that distance² is a split.
            let t = self.cand[lo..mid]
                .iter()
                .fold(f64::NEG_INFINITY, |t, &(d2, _)| t.max(d2));
            self.splits.insert(at, (t, mid));
        }
        // The nearest candidate beyond `r` lies in the first bucket from
        // `mid` on: every later bucket is farther.
        let end = self
            .splits
            .iter()
            .map(|&(_, i)| i)
            .find(|&i| i > mid)
            .unwrap_or(self.cand.len());
        self.cand[mid..end]
            .iter()
            .map(|&(d2, _)| d2)
            .reduce(f64::min)
            .map_or(f64::INFINITY, f64::sqrt)
    }

    /// The candidates inside an arbitrary `circle`, appended to `out`
    /// (cleared first).  Radius sweeps only.  The caller must guarantee the
    /// sweep's candidate view covers the circle (every member of the sweep
    /// inside `circle` lies within the sweep's `r_max` of its centre);
    /// membership uses the [`Circle::contains`] bound, so the result equals
    /// the sweep's members filtered by `circle` from scratch.
    pub fn candidates_in_circle_into(
        &mut self,
        g: &SpatialGraph,
        circle: &Circle,
        out: &mut Vec<VertexId>,
    ) {
        debug_assert!(
            self.by_distance,
            "candidates_in_circle_into on a collected sweep"
        );
        out.clear();
        // Conservative prefix cut: a member inside `circle` lies within its
        // inclusion bound of `circle.center`, hence within the inclusion bound
        // of the sweep-centred circle of radius |center, circle.center| +
        // `circle.radius` (the bound grows faster than the radius); exact
        // membership is decided by `contains` below.
        let reach = self.center.distance(circle.center) + circle.radius;
        let cut = self.prefix_within(Circle::new(self.center, reach).contains_bound_sq());
        for &(_, v) in &self.cand[..cut] {
            if circle.contains(g.position(v)) {
                out.push(v);
            }
        }
    }

    /// Answers the probe "does the subgraph induced by the candidates inside
    /// `O(center, r)` contain a connected k-core with `q`?", returning the
    /// sorted component when it does.  Bit-identical to running
    /// [`crate::KCoreSolver`] on the from-scratch circle query.
    pub fn probe_radius(&mut self, g: &Graph, r: f64) -> Option<Vec<VertexId>> {
        debug_assert!(self.by_distance, "probe_radius on a collected sweep");
        let bound_sq = Circle::new(self.center, r.max(0.0)).contains_bound_sq();
        let len = self.prefix_within(bound_sq);
        self.probe_len(g, len)
    }

    /// Makes the candidates at distance² ≤ `bound_sq` a prefix of the view
    /// and returns its length: partitions only the bucket the bound falls in
    /// and records the bound as a split, so the same bound again is a lookup.
    fn prefix_within(&mut self, bound_sq: f64) -> usize {
        let at = self.splits.partition_point(|&(t, _)| t < bound_sq);
        if let Some(&(t, len)) = self.splits.get(at) {
            if t == bound_sq {
                return len;
            }
        }
        let (lo, hi) = self.bucket(at);
        if lo == hi {
            return lo;
        }
        let len = self.partition(lo, hi, |d2| d2 <= bound_sq);
        self.splits.insert(at, (bound_sq, len));
        len
    }

    /// The unordered bucket `cand[lo..hi]` between the split before `at` and
    /// the split at `at` (the array ends stand in for missing splits).
    fn bucket(&self, at: usize) -> (usize, usize) {
        let lo = at.checked_sub(1).map_or(0, |i| self.splits[i].1);
        let hi = self.splits.get(at).map_or(self.cand.len(), |&(_, i)| i);
        (lo, hi)
    }

    /// Partitions the bucket `cand[lo..hi]` in place so the candidates whose
    /// distance² satisfies `within` come first, returning the boundary;
    /// `q_idx` follows `q` through the swaps.
    fn partition(&mut self, mut lo: usize, mut hi: usize, within: impl Fn(f64) -> bool) -> usize {
        loop {
            while lo < hi && within(self.cand[lo].0) {
                lo += 1;
            }
            while lo < hi && !within(self.cand[hi - 1].0) {
                hi -= 1;
            }
            if lo == hi {
                return lo;
            }
            hi -= 1;
            self.cand.swap(lo, hi);
            if self.cand[lo].1 == self.q {
                self.q_idx = Some(lo);
            } else if self.cand[hi].1 == self.q {
                self.q_idx = Some(hi);
            }
            lo += 1;
        }
    }

    /// Answers the feasibility probe for every candidate pushed so far.
    pub fn probe_collected(&mut self, g: &Graph) -> Option<Vec<VertexId>> {
        self.probe_len(g, self.cand.len())
    }

    /// The probe core: feasibility of the first `len` candidates.
    ///
    /// Within one sweep the answer is a pure function of `len` (every probed
    /// length is a split, and partitions never move a candidate across a
    /// split, so `cand[..len]` is a fixed set), and feasibility is monotone
    /// in `len` (a larger prefix is a superset, and k-cores are monotone
    /// under subgraph inclusion) — the two facts behind the
    /// infeasibility-frontier and unchanged-peel fast paths.
    fn probe_len(&mut self, g: &Graph, len: usize) -> Option<Vec<VertexId>> {
        self.stats.probes += 1;
        // At or below a known-infeasible prefix: `None` without touching the
        // peel at all.
        if len <= self.max_infeasible_len {
            return None;
        }
        let q_idx = self.q_idx?;
        if q_idx >= len {
            self.max_infeasible_len = self.max_infeasible_len.max(len);
            return None;
        }
        // Path choice is cost-based: an incremental shrink touches the
        // annulus ring between the saved peel and the target prefix, a
        // re-seed touches the target prefix itself — when every ring
        // outweighs the prefix, rebuilding from the maintained pre-peel
        // degrees is the cheaper route.  Sources in preference order: the
        // in-place working peel (no restore copy), then the checkpoint.
        let shrink_from_work =
            self.work_valid && self.work_len >= len && self.work_len - len <= len;
        let shrink_from_ckpt =
            self.ckpt.valid && self.ckpt.len >= len && self.ckpt.len - len <= len;
        // `Some(changed)`: q survives, `changed` says whether the alive set
        // differs from the state `cached_members` was collected for; `None`:
        // q was peeled.
        let outcome = if shrink_from_work {
            // Monotone shrink: remove the annulus ring (empty at the same
            // prefix, answering `Some(false)`), continue the cascade.
            self.shrink(g, len)
        } else if shrink_from_ckpt {
            self.work_len = self.ckpt.restore(
                &self.cand,
                &mut self.alive,
                &mut self.deg,
                self.work_len,
                &mut self.cached_members,
            );
            self.work_valid = true;
            if self.work_len > len {
                self.shrink(g, len)
            } else {
                Some(false)
            }
        } else {
            // Growing past the working peel and the checkpoint (or shrinking
            // far below both): re-seed from the pre-peel state — prefix degrees are
            // maintained, so no degree recomputation.
            self.stats.reseeds += 1;
            self.reseed(g, len)
        };
        let Some(changed) = outcome else {
            self.work_valid = false;
            self.max_infeasible_len = self.max_infeasible_len.max(len);
            return None;
        };
        self.work_valid = true;
        self.work_len = len;
        if changed {
            // The alive set moved: re-collect the component and re-anchor the
            // checkpoint.  Unchanged probes keep the (larger) saved peel —
            // same alive set, wider restore coverage, no copying.
            self.cached_members = self.collect_component(g);
            self.ckpt.save(
                &self.cand,
                &self.alive,
                &self.deg,
                len,
                &self.cached_members,
            );
        }
        Some(self.cached_members.clone())
    }

    /// Moves the pre-peel state (prefix bitset + prefix-restricted degrees) to
    /// `len`, touching only the annulus of candidates in between.
    fn adjust_prefix(&mut self, g: &Graph, len: usize) {
        if self.prefix_len == 0 {
            // First prefix of the sweep: set every membership bit, then count
            // each member's in-prefix neighbours — one degree write per
            // member instead of one scattered increment per edge.  No vertex
            // is its own neighbour (the graph builder drops self-loops).
            for &(_, v) in &self.cand[..len] {
                bits::set(&mut self.in_prefix, v);
            }
            for &(_, v) in &self.cand[..len] {
                self.predeg[v as usize] = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| bits::test(&self.in_prefix, u))
                    .count() as u32;
            }
            self.prefix_len = len;
            return;
        }
        while self.prefix_len < len {
            let v = self.cand[self.prefix_len].1;
            bits::set(&mut self.in_prefix, v);
            let mut d = 0u32;
            for &u in g.neighbors(v) {
                if bits::test(&self.in_prefix, u) {
                    self.predeg[u as usize] += 1;
                    d += 1;
                }
            }
            // v's own bit is set above, but v is never its own neighbour
            // (the graph builder drops self-loops), so d counts exactly the
            // prefix members adjacent to v.
            self.predeg[v as usize] = d;
            self.prefix_len += 1;
        }
        while self.prefix_len > len {
            self.prefix_len -= 1;
            let v = self.cand[self.prefix_len].1;
            bits::clear(&mut self.in_prefix, v);
            for &u in g.neighbors(v) {
                if bits::test(&self.in_prefix, u) {
                    self.predeg[u as usize] -= 1;
                }
            }
        }
    }

    /// Rebuilds the working peel from the pre-peel state at `len` and runs the
    /// full deletion cascade.  `None` when `q` is peeled, `Some(true)` (the
    /// alive set must be re-collected) otherwise.
    fn reseed(&mut self, g: &Graph, len: usize) -> Option<bool> {
        self.adjust_prefix(g, len);
        for i in len..self.work_len {
            bits::clear(&mut self.alive, self.cand[i].1);
        }
        for i in 0..len {
            let v = self.cand[i].1;
            bits::set(&mut self.alive, v);
            self.deg[v as usize] = self.predeg[v as usize];
        }
        self.work_len = len;
        self.stack.clear();
        for i in 0..len {
            let v = self.cand[i].1;
            if self.deg[v as usize] < self.k {
                bits::clear(&mut self.alive, v);
                if v == self.q {
                    return None;
                }
                self.stack.push(v);
            }
        }
        if self.cascade(g) {
            Some(true)
        } else {
            None
        }
    }

    /// Shrinks the valid working peel from `work_len` down to `len` by
    /// removing the annulus ring and cascading.  `None` when `q` is peeled;
    /// `Some(false)` when the annulus held no alive vertex at all (the peel —
    /// and hence the component — is unchanged, only the prefix boundary
    /// moved), `Some(true)` otherwise.
    fn shrink(&mut self, g: &Graph, len: usize) -> Option<bool> {
        self.stack.clear();
        let mut removed_any = false;
        for i in len..self.work_len {
            let v = self.cand[i].1;
            // q's candidate rank is below `len`, so the annulus never holds q.
            if bits::test(&self.alive, v) {
                bits::clear(&mut self.alive, v);
                self.stack.push(v);
                removed_any = true;
            }
        }
        self.work_len = len;
        if !removed_any {
            return Some(false);
        }
        if self.cascade(g) {
            Some(true)
        } else {
            None
        }
    }

    /// Runs the deletion cascade from the removal stack, stopping early the
    /// moment `q` is peeled (the probe answer is already `None`; the partial
    /// state is discarded by the caller).  Returns whether `q` survives.
    fn cascade(&mut self, g: &Graph) -> bool {
        while let Some(v) = self.stack.pop() {
            for &u in g.neighbors(v) {
                if bits::test(&self.alive, u) {
                    self.deg[u as usize] -= 1;
                    if self.deg[u as usize] + 1 == self.k {
                        bits::clear(&mut self.alive, u);
                        if u == self.q {
                            self.stack.clear();
                            return false;
                        }
                        self.stack.push(u);
                    }
                }
            }
        }
        true
    }

    /// BFS from `q` over the peeled survivors (read-only on the peel state),
    /// returning the sorted component.
    ///
    /// The `unreached` bitset starts as a copy of the alive candidates
    /// (`O(prefix)`, never `O(n / 64)`), and the BFS clears a vertex's bit
    /// the moment it reaches it, so each edge costs one bit test ("alive and
    /// not yet reached") instead of two.  The BFS stops as soon as it has
    /// reached every alive vertex — the usual case, since a peel is rarely
    /// disconnected.  The component is then `alive & !unreached`; scanning
    /// those words in order emits the members already id-sorted — no
    /// comparison sort — and zeroes the scratch in the same pass.
    fn collect_component(&mut self, g: &Graph) -> Vec<VertexId> {
        let mut alive_count = 0usize;
        let (mut min_word, mut max_word) = (usize::MAX, 0);
        for &(_, v) in &self.cand[..self.work_len] {
            if bits::test(&self.alive, v) {
                bits::set(&mut self.unreached, v);
                alive_count += 1;
                min_word = min_word.min((v >> 6) as usize);
                max_word = max_word.max((v >> 6) as usize);
            }
        }
        bits::clear(&mut self.unreached, self.q);
        let mut left = alive_count - 1;
        self.stack.clear();
        self.stack.push(self.q);
        'bfs: while let Some(v) = self.stack.pop() {
            for &u in g.neighbors(v) {
                if bits::test(&self.unreached, u) {
                    bits::clear(&mut self.unreached, u);
                    left -= 1;
                    if left == 0 {
                        break 'bfs;
                    }
                    self.stack.push(u);
                }
            }
        }
        let mut component = Vec::with_capacity(alive_count - left);
        for w in min_word..=max_word {
            let mut word = self.alive[w] & !self.unreached[w];
            self.unreached[w] = 0;
            while word != 0 {
                component.push(((w as u32) << 6) | word.trailing_zeros());
                word &= word - 1;
            }
        }
        component
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, KCoreSolver};

    /// The paper's Figure 3 layout: a left 2-ĉore {0..5}, a right triangle
    /// {6,7,8} and a pendant 9.
    fn figure3() -> SpatialGraph {
        let g = GraphBuilder::from_edges([
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
        ]);
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(0.4, 0.3),
            Point::new(0.1, 0.5),
            Point::new(1.0, 0.2),
            Point::new(1.2, 0.8),
            Point::new(1.7, 0.5),
            Point::new(4.0, 4.0),
            Point::new(4.5, 4.2),
            Point::new(4.2, 4.7),
            Point::new(5.5, 5.5),
        ];
        SpatialGraph::new(g, positions).unwrap()
    }

    fn all_vertices(sg: &SpatialGraph) -> Vec<VertexId> {
        (0..sg.num_vertices() as VertexId).collect()
    }

    fn from_scratch(
        sg: &SpatialGraph,
        solver: &mut KCoreSolver,
        center: Point,
        r: f64,
        q: VertexId,
        k: u32,
    ) -> Option<Vec<VertexId>> {
        let circle = Circle::new(center, r);
        let subset: Vec<VertexId> = all_vertices(sg)
            .into_iter()
            .filter(|&v| circle.contains(sg.position(v)))
            .collect();
        solver.kcore_containing(sg.graph(), &subset, q, k)
    }

    #[test]
    fn probes_match_from_scratch_on_arbitrary_schedules() {
        let sg = figure3();
        let center = sg.position(0);
        let mut sweep = RadiusSweepSolver::new(sg.num_vertices());
        let mut reference = KCoreSolver::new(sg.num_vertices());
        sweep.begin(&sg, center, 10.0, 0, 2, &all_vertices(&sg));
        // Shrinks, grows, repeats — every answer must match the scratch path.
        for r in [
            10.0, 2.0, 0.7, 1.5, 0.2, 9.0, 0.55, 0.55, 3.0, 0.0, 10.0, 1.0,
        ] {
            let via_sweep = sweep.probe_radius(sg.graph(), r);
            let scratch = from_scratch(&sg, &mut reference, center, r, 0, 2);
            assert_eq!(via_sweep, scratch, "radius {r}");
        }
        let stats = sweep.stats();
        assert_eq!(stats.probes, 12);
        // Growing probes re-seed; shrinks are served in place or from the
        // checkpoint, so a lost fast path raises this pinned count.
        assert_eq!(stats.reseeds, 8);
    }

    #[test]
    fn disconnected_peels_leave_the_scratch_clear() {
        // At r = 10 both 2-cores of the fixture survive the peel, so the
        // component collection meets alive vertices it never reaches.
        let sg = figure3();
        let g = sg.graph();
        let mut sweep = RadiusSweepSolver::new(sg.num_vertices());
        let mut reference = KCoreSolver::new(sg.num_vertices());
        // (q, probe radii): shrinks that keep and that break the far core,
        // a grow back to two cores, then a re-begun sweep from the far core.
        for (q, radii) in [
            (0u32, &[10.0, 7.0, 1.3, 10.0, 6.2, 0.45, 10.0][..]),
            (6, &[10.0, 6.0, 0.6, 8.0, 0.3][..]),
        ] {
            let center = sg.position(q);
            sweep.begin(&sg, center, 10.0, q, 2, &all_vertices(&sg));
            for &r in radii {
                assert_eq!(
                    sweep.probe_radius(g, r),
                    from_scratch(&sg, &mut reference, center, r, q, 2),
                    "q = {q}, r = {r}"
                );
                assert!(
                    sweep.unreached.iter().all(|&w| w == 0),
                    "unreached bits left behind at q = {q}, r = {r}"
                );
            }
        }
        // The r = 10 peel of the far core's sweep keeps the near core alive,
        // so the alive-but-unreached branch really ran.
        let first = sweep.probe_radius(g, 10.0).unwrap();
        assert_eq!(first, vec![6, 7, 8]);
        assert!(bits::test(&sweep.alive, 0), "the other core stays alive");
    }

    #[test]
    fn restricted_members_and_recentred_sweeps() {
        let sg = figure3();
        let mut sweep = RadiusSweepSolver::new(sg.num_vertices());
        // Restrict to the triangle {0, 1, 2}.
        let triangle = [2u32, 0, 1];
        sweep.begin(&sg, sg.position(0), 10.0, 0, 2, &triangle);
        assert_eq!(sweep.probe_radius(sg.graph(), 10.0).unwrap(), vec![0, 1, 2]);
        assert!(sweep.probe_radius(sg.graph(), 0.1).is_none());
        // A second sweep on the same solver, centred elsewhere: stale bits
        // from the first sweep must not leak.
        sweep.begin(&sg, sg.position(6), 2.0, 6, 2, &all_vertices(&sg));
        assert_eq!(sweep.probe_radius(sg.graph(), 1.0).unwrap(), vec![6, 7, 8]);
        assert!(sweep.probe_radius(sg.graph(), 0.3).is_none());
        // q outside the members: every probe is infeasible.
        sweep.begin(&sg, sg.position(0), 10.0, 3, 2, &triangle);
        assert!(sweep.probe_radius(sg.graph(), 10.0).is_none());
    }

    #[test]
    fn collected_sweeps_match_subset_solver() {
        let sg = figure3();
        let g = sg.graph();
        let mut sweep = RadiusSweepSolver::new(sg.num_vertices());
        let mut reference = KCoreSolver::new(sg.num_vertices());
        sweep.begin_collect(sg.num_vertices(), 0, 2);
        let mut pushed = Vec::new();
        for v in [0u32, 3, 1, 4, 2, 5, 9] {
            sweep.push_candidate(g, v);
            pushed.push(v);
            assert_eq!(
                sweep.probe_collected(g),
                reference.kcore_containing(g, &pushed, 0, 2),
                "after pushing {v}"
            );
        }
    }

    #[test]
    fn candidate_view_answers_arbitrary_circles() {
        let sg = figure3();
        let mut sweep = RadiusSweepSolver::new(sg.num_vertices());
        sweep.begin(&sg, sg.position(0), 20.0, 0, 2, &all_vertices(&sg));
        let mut got = Vec::new();
        for (center, r) in [
            (Point::new(1.2, 0.5), 0.9),
            (Point::new(0.0, 0.0), 0.45),
            (Point::new(4.3, 4.3), 1.0),
        ] {
            let circle = Circle::new(center, r);
            sweep.candidates_in_circle_into(&sg, &circle, &mut got);
            got.sort_unstable();
            let expected: Vec<VertexId> = all_vertices(&sg)
                .into_iter()
                .filter(|&v| circle.contains(sg.position(v)))
                .collect();
            assert_eq!(got, expected, "circle at {center:?} r={r}");
        }
    }

    #[test]
    fn next_distance_above_matches_linear_scan() {
        let sg = figure3();
        let center = sg.position(0);
        let mut sweep = RadiusSweepSolver::new(sg.num_vertices());
        sweep.begin(&sg, center, 100.0, 0, 2, &all_vertices(&sg));
        for r in [0.0, 0.5, 1.0, 3.0, 7.7, 100.0] {
            let expected = (0..sg.num_vertices() as u32)
                .map(|v| sg.position(v).distance(center))
                .filter(|&d| d > r)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(sweep.next_distance_above(r), expected, "r = {r}");
        }
    }

    #[test]
    fn direct_and_stepwise_prefixes_agree() {
        let sg = figure3();
        let g = sg.graph();
        let center = sg.position(0);
        let steps: Vec<f64> = (0..=40).map(|i| 0.05 * i as f64).collect();
        for k in 0..=3 {
            // One sweep jumps straight to each radius (its first prefix is
            // built in bulk); the other climbs there in small steps (every
            // later prefix grows annulus by annulus).
            let mut direct = RadiusSweepSolver::new(sg.num_vertices());
            let mut stepwise = RadiusSweepSolver::new(sg.num_vertices());
            stepwise.begin(&sg, center, 10.0, 0, k, &all_vertices(&sg));
            for &r in &steps {
                direct.begin(&sg, center, 10.0, 0, k, &all_vertices(&sg));
                assert_eq!(
                    direct.probe_radius(g, r),
                    stepwise.probe_radius(g, r),
                    "k = {k}, r = {r}"
                );
            }
            // The pre-peel degrees themselves: a bulk build of the whole
            // prefix equals the one grown a candidate at a time.
            let len = stepwise.prefix_within(Circle::new(center, 2.0).contains_bound_sq());
            stepwise.adjust_prefix(g, 0);
            direct.begin(&sg, center, 10.0, 0, k, &all_vertices(&sg));
            let direct_len = direct.prefix_within(Circle::new(center, 2.0).contains_bound_sq());
            assert_eq!(direct_len, len);
            direct.adjust_prefix(g, len);
            for step in 1..=len {
                stepwise.adjust_prefix(g, step);
            }
            for &(_, v) in &direct.cand[..len] {
                assert!(bits::test(&stepwise.in_prefix, v));
                assert_eq!(
                    direct.predeg[v as usize], stepwise.predeg[v as usize],
                    "v = {v}"
                );
            }
        }
    }

    #[test]
    fn k_zero_and_growing_graphs() {
        let sg = figure3();
        let mut sweep = RadiusSweepSolver::new(2); // deliberately undersized
        sweep.begin(&sg, sg.position(0), 10.0, 0, 0, &all_vertices(&sg));
        // k = 0: the probe answer is the connected reachable set inside r.
        assert_eq!(sweep.probe_radius(sg.graph(), 0.0).unwrap(), vec![0]);
        assert_eq!(
            sweep.probe_radius(sg.graph(), 2.0).unwrap(),
            vec![0, 1, 2, 3, 4, 5]
        );
    }
}
