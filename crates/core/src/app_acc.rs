//! `AppAcc`: the anchor-point (1+εA)-approximation algorithm (Algorithm 4).

use crate::app_fast::app_fast_in_kcore;
use crate::common::{knn_lower_bound, trivial_small_k, SearchContext};
use crate::{Community, SacError};
use sac_geom::{AnchorCell, Circle, Point};
use sac_graph::{SpatialGraph, VertexId};

/// Detailed result of [`app_acc_detailed`], exposing the internal state `Exact+`
/// builds on (Algorithm 5 consumes the surviving anchor cells, the candidate vertex
/// set `S` and the final cell width).
#[derive(Debug, Clone)]
pub struct AppAccDetail {
    /// The returned community Γ.
    pub community: Community,
    /// Radius of the MCC covering Γ (the paper's `r_cur` at termination).
    pub radius: f64,
    /// Vertices of the k-ĉore containing `q` restricted to `O(q, 2γ)`; by
    /// Corollary 2 the optimal community is a subset of this set.
    pub candidate_vertices: Vec<VertexId>,
    /// Anchor cells still active (not pruned) at the deepest processed level.
    pub active_cells: Vec<AnchorCell>,
    /// Side length of the cells in [`AppAccDetail::active_cells`].
    pub final_cell_width: f64,
    /// δ estimate produced by the initial `AppFast(εF = 0)` run.
    pub delta: f64,
    /// γ — radius of the MCC covering the `AppFast` community Φ.
    pub gamma: f64,
    /// Total number of anchor cells examined (diagnostics; grows as `(1/εA)²`
    /// without pruning, much less with the two pruning rules).
    pub cells_examined: usize,
}

/// `AppAcc` (Algorithm 4): quadtree anchor-point search with an approximation ratio
/// of `1 + eps_a`, `0 < εA < 1`.
///
/// The optimal MCC's centre `o` lies inside `O(q, γ)` (Corollary 4).  `AppAcc`
/// covers that circle with a region quadtree; the centre of each cell is an *anchor
/// point* `p`, and a binary search finds the smallest radius `r_p` such that
/// `O(p, r_p)` contains a feasible community.  Two pruning rules discard cells that
/// cannot contain `o`.  The traversal descends until the cell width drops below
/// `δ·εA / (√2(2+εA))`, which bounds the distance from `o` to its nearest anchor
/// point well enough to guarantee the `(1+εA)` ratio (Lemma 7).
///
/// Returns `Ok(None)` when no feasible community exists.
pub fn app_acc(
    g: &SpatialGraph,
    q: VertexId,
    k: u32,
    eps_a: f64,
) -> Result<Option<Community>, SacError> {
    Ok(app_acc_detailed(g, q, k, eps_a)?.map(|d| d.community))
}

/// Like [`app_acc`] but returns the full [`AppAccDetail`] needed by `Exact+`.
pub fn app_acc_detailed(
    g: &SpatialGraph,
    q: VertexId,
    k: u32,
    eps_a: f64,
) -> Result<Option<AppAccDetail>, SacError> {
    validate_eps_a(eps_a)?;
    let mut ctx = SearchContext::new(g, q, k)?;
    app_acc_detailed_with_ctx(&mut ctx, eps_a)
}

/// Validates the `εA` parameter shared by the `AppAcc`/`Exact+` entry points.
pub(crate) fn validate_eps_a(eps_a: f64) -> Result<(), SacError> {
    if !eps_a.is_finite() || eps_a <= 0.0 || eps_a >= 1.0 {
        return Err(SacError::InvalidParameter {
            name: "eps_a",
            message: format!("must lie strictly between 0 and 1, got {eps_a}"),
        });
    }
    Ok(())
}

/// `AppAcc` over an existing [`SearchContext`] (assumes `eps_a` validated).
///
/// A context carrying a shared k-core index accelerates Step 1 — the k-ĉore
/// `X` that the embedded `AppFast(εF = 0)` bootstrap and line 3 search is
/// read from the index instead of peeling the graph.
pub(crate) fn app_acc_detailed_with_ctx(
    ctx: &mut SearchContext<'_>,
    eps_a: f64,
) -> Result<Option<AppAccDetail>, SacError> {
    let (g, q, k) = (ctx.g, ctx.q, ctx.k);
    if let Some(trivial) = trivial_small_k(g, q, k) {
        return Ok(trivial.map(|community| AppAccDetail {
            radius: community.radius(),
            candidate_vertices: community.members().to_vec(),
            active_cells: Vec::new(),
            final_cell_width: 0.0,
            delta: community.radius() * 2.0,
            gamma: community.radius(),
            cells_examined: 0,
            community,
        }));
    }

    // Step 1: the k-ĉore X containing q (from the context's shared k-core
    // index when present).  Line 2 and line 3 both search inside it.
    let x = match ctx.global_kcore_of_q() {
        Some(x) => x,
        None => return Ok(None),
    };
    // Line 2: run AppFast with εF = 0 on X to obtain Φ, δ and γ (sharing
    // this context's scratch state).
    let seed = match app_fast_in_kcore(ctx, &x, 0.0) {
        Some(seed) => seed,
        None => return Ok(None),
    };
    let q_pos = ctx.q_pos();
    let gamma = seed.gamma;
    let delta = seed.delta.max(f64::MIN_POSITIVE);

    // Degenerate case: the AppFast community already has a zero-radius MCC, which
    // is trivially optimal.
    if gamma <= f64::EPSILON {
        let radius = seed.community.radius();
        return Ok(Some(AppAccDetail {
            candidate_vertices: seed.community.members().to_vec(),
            active_cells: Vec::new(),
            final_cell_width: 0.0,
            delta,
            gamma,
            cells_examined: 0,
            radius,
            community: seed.community,
        }));
    }

    // Line 3: S = the connected k-core containing q among the vertices of X
    // inside O(q, 2γ); the optimal community is contained in it (Corollary 2).
    let s = match ctx.feasible_in_circle(&Circle::new(q_pos, 2.0 * gamma), &x) {
        Some(s) => s,
        None => {
            // Φ itself lies in O(q, 2γ), so this cannot happen; defensively fall
            // back to the AppFast result.
            let radius = seed.community.radius();
            return Ok(Some(AppAccDetail {
                candidate_vertices: seed.community.members().to_vec(),
                active_cells: Vec::new(),
                final_cell_width: 0.0,
                delta,
                gamma,
                cells_examined: 0,
                radius,
                community: seed.community,
            }));
        }
    };
    // A safe lower bound for every anchor's binary search: r_p ≥ r_opt ≥ l0 / 2,
    // where l0 is the Eq. (1) KNN lower bound.
    let binary_lower = knn_lower_bound(g, q, k, &s)
        .map(|l0| 0.5 * l0)
        .unwrap_or(0.0);

    // Parameters of Lemma 7.
    let alpha_prime = 0.25 * delta * eps_a;
    let width_threshold = delta * eps_a / (std::f64::consts::SQRT_2 * (2.0 + eps_a));

    // Line 4: Γ ← Φ, r_cur ← γ, achList ← children of the root square (centred at
    // q, width 2γ).
    let root = AnchorCell::root(q_pos, 2.0 * gamma);
    let mut best_members: Vec<VertexId> = seed.community.members().to_vec();
    let mut r_cur = gamma;
    let mut level: Vec<AnchorCell> = root.children().to_vec();
    let mut last_level: Vec<AnchorCell> = level.clone();
    let mut final_width = level[0].width;
    let mut cells_examined = 0usize;

    // Lines 5–27: level-by-level traversal of the quadtree.
    while !level.is_empty() && level[0].width >= width_threshold {
        final_width = level[0].width;
        last_level = level.clone();
        let mut survivors: Vec<AnchorCell> = Vec::new();

        for cell in &level {
            cells_examined += 1;
            let p = cell.center;
            let half_diag = cell.half_diagonal();
            // Pruning 1: if the anchor is farther from q than r_cur + √2/2·β the
            // cell cannot contain the optimal centre o (because |o, q| ≤ r_opt ≤
            // r_cur).
            if p.distance(q_pos) > r_cur + half_diag {
                continue;
            }
            // Initial probe at radius r_cur + √2/2·β.  If this is infeasible the
            // cell cannot improve on r_cur, and by Pruning 2 its subtree can be
            // discarded (the probe radius equals the Pruning-2 bound).
            //
            // The initial probe and the whole binary search below are
            // concentric circles around `p`, so one sweep per anchor serves
            // them all from a single pass over S; an anchor pruned by this
            // first probe never orders its candidates at all.
            let probe_radius = r_cur + half_diag;
            ctx.begin_sweep(p, probe_radius, &s);
            let initial = ctx.probe(probe_radius);
            let largest_infeasible: Option<f64>;
            match initial {
                None => {
                    largest_infeasible = Some(probe_radius);
                }
                Some(initial_members) => {
                    // Binary search for the smallest feasible radius around p
                    // (Algorithm 4 lines 11–22).
                    let (members, _rp, inf) = anchor_binary_search(
                        &mut *ctx,
                        g,
                        p,
                        binary_lower,
                        probe_radius,
                        alpha_prime,
                        initial_members,
                    );
                    largest_infeasible = inf;
                    // Lines 23–24: keep the community with the smallest actual MCC.
                    let candidate = Community::new(g, members);
                    if candidate.mcc.radius < r_cur {
                        r_cur = candidate.mcc.radius;
                        best_members = candidate.vertices;
                    }
                }
            }
            // Pruning 2 (line 25): discard the subtree when a radius larger than
            // r_cur + √2/2·β is known to be infeasible around p.
            let prune_children = matches!(
                largest_infeasible,
                Some(r_inf) if r_inf >= r_cur + half_diag - 1e-12
            );
            if !prune_children {
                survivors.extend_from_slice(&cell.children());
            }
        }
        level = survivors;
    }

    let community = Community::new(g, best_members);
    let radius = community.mcc.radius;
    Ok(Some(AppAccDetail {
        community,
        radius,
        candidate_vertices: s,
        active_cells: last_level,
        final_cell_width: final_width,
        delta,
        gamma,
        cells_examined,
    }))
}

/// Binary search (Algorithm 4 lines 11–22) for the smallest radius around anchor
/// `p` whose circle contains a feasible community, probing through the anchor's
/// active sweep (the caller has begun one at `p` covering `upper`).  Returns the
/// best member set, the radius bound it was found at, and the largest radius
/// known to be infeasible (for Pruning 2).
fn anchor_binary_search(
    ctx: &mut SearchContext<'_>,
    g: &SpatialGraph,
    p: Point,
    lower: f64,
    upper: f64,
    alpha_prime: f64,
    initial_members: Vec<VertexId>,
) -> (Vec<VertexId>, f64, Option<f64>) {
    let mut lo = lower;
    let mut hi = upper;
    let mut best = initial_members;
    let mut best_radius = upper;
    let mut largest_infeasible: Option<f64> = None;
    // The feasible upper bound can immediately be tightened to the farthest member.
    let far = best
        .iter()
        .map(|&v| g.position(v).distance(p))
        .fold(0.0f64, f64::max);
    hi = hi.min(far);
    best_radius = best_radius.min(far);

    let mut iterations = 0usize;
    while hi - lo > alpha_prime && iterations < 128 {
        iterations += 1;
        let r = 0.5 * (lo + hi);
        match ctx.probe(r) {
            Some(members) => {
                let far = members
                    .iter()
                    .map(|&v| g.position(v).distance(p))
                    .fold(0.0f64, f64::max);
                best = members;
                best_radius = far;
                hi = far;
            }
            None => {
                largest_infeasible = Some(largest_infeasible.map_or(r, |x: f64| x.max(r)));
                lo = r;
            }
        }
    }
    (best, best_radius, largest_infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact;
    use crate::fixtures::{figure3, figure3_graph, figure3_optimal_members};

    #[test]
    fn approximation_bound_holds_for_various_eps() {
        let g = figure3_graph();
        let optimal = exact(&g, figure3::Q, 2).unwrap().unwrap();
        for eps in [0.01, 0.05, 0.1, 0.5, 0.9] {
            let out = app_acc(&g, figure3::Q, 2, eps).unwrap().unwrap();
            let ratio = out.radius() / optimal.radius();
            assert!(
                ratio <= 1.0 + eps + 1e-6,
                "eps={eps}: ratio {ratio} exceeds {}",
                1.0 + eps
            );
            assert!(ratio >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn small_eps_recovers_the_optimal_members() {
        let g = figure3_graph();
        let out = app_acc(&g, figure3::Q, 2, 0.01).unwrap().unwrap();
        assert_eq!(out.members(), figure3_optimal_members().as_slice());
    }

    #[test]
    fn app_acc_is_at_least_as_good_as_app_fast_zero() {
        // AppAcc starts from the AppFast(0) community and only improves on it.
        let g = figure3_graph();
        for q in [figure3::Q, figure3::A, figure3::C, figure3::F] {
            let fast = crate::app_fast(&g, q, 2, 0.0).unwrap().unwrap();
            let acc = app_acc(&g, q, 2, 0.5).unwrap().unwrap();
            assert!(acc.radius() <= fast.gamma + 1e-9);
        }
    }

    #[test]
    fn detailed_output_is_consistent() {
        let g = figure3_graph();
        let d = app_acc_detailed(&g, figure3::Q, 2, 0.2).unwrap().unwrap();
        assert!((d.radius - d.community.radius()).abs() < 1e-12);
        assert!(d.gamma <= d.delta * 2.0 + 1e-9);
        assert!(!d.candidate_vertices.is_empty());
        assert!(d.cells_examined > 0);
        assert!(d.final_cell_width > 0.0);
        // The candidate set contains the optimal community (Corollary 2).
        for v in figure3_optimal_members() {
            assert!(d.candidate_vertices.contains(&v));
        }
    }

    #[test]
    fn invalid_and_infeasible_inputs() {
        let g = figure3_graph();
        assert!(app_acc(&g, figure3::Q, 2, 0.0).is_err());
        assert!(app_acc(&g, figure3::Q, 2, 1.0).is_err());
        assert!(app_acc(&g, figure3::Q, 2, -0.3).is_err());
        assert!(app_acc(&g, 50, 2, 0.5).is_err());
        assert!(app_acc(&g, figure3::I, 2, 0.5).unwrap().is_none());
        assert!(app_acc(&g, figure3::Q, 8, 0.5).unwrap().is_none());
    }

    #[test]
    fn trivial_k_values() {
        let g = figure3_graph();
        assert_eq!(
            app_acc(&g, figure3::Q, 0, 0.5).unwrap().unwrap().members(),
            &[figure3::Q]
        );
        assert_eq!(app_acc(&g, figure3::Q, 1, 0.5).unwrap().unwrap().len(), 2);
    }

    #[test]
    fn result_is_a_valid_community() {
        let g = figure3_graph();
        for q in [figure3::Q, figure3::B, figure3::D, figure3::G] {
            let out = app_acc(&g, q, 2, 0.5).unwrap().unwrap();
            let members = out.members();
            assert!(members.contains(&q));
            assert!(sac_graph::is_connected_subset(g.graph(), members));
            assert!(sac_graph::min_degree_in_subset(g.graph(), members).unwrap() >= 2);
        }
    }
}
