//! Property-based equivalence suite for the incremental radius-sweep solver.
//!
//! The `RadiusSweepSolver` behind `SearchContext::begin_sweep`/`probe` answers
//! probes from a lazily partitioned candidate prefix with an incremental peel
//! (in-place shrinks, checkpoint restores, pre-peel re-seeds).  These tests
//! pin the contract the migrated algorithms rely on: every probe — over
//! random graphs, random query vertices, random member lists (passed in id
//! order and shuffled) and random **monotone and non-monotone** radius
//! schedules — is bit-identical to an independent from-scratch oracle (a
//! brute-force `Circle::contains` scan of every position, filtered by the
//! members, plus a full subset peel), and the collected-sweep path is
//! bit-identical to the subset solver.
//! Lattice-coordinate graphs add exact distance ties and duplicate points,
//! so a prefix must hold every tie at its bound whatever order the
//! partitions left the candidates in.

use proptest::prelude::*;
use sac_core::SearchContext;
use sac_geom::{Circle, Point};
use sac_graph::{GraphBuilder, KCoreSolver, SpatialGraph, VertexId};

/// A random small spatial graph: `n` vertices in the unit square, random edges.
fn arb_spatial_graph() -> impl Strategy<Value = SpatialGraph> {
    (5usize..18)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), n..(n * 4));
            let coords = proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), n);
            (Just(n), edges, coords)
        })
        .prop_map(|(n, edges, coords)| {
            let mut b = GraphBuilder::new();
            b.ensure_vertex(n as u32 - 1);
            b.add_edges(edges);
            let positions: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            SpatialGraph::new(b.build(), positions).expect("valid random graph")
        })
}

/// A random small spatial graph with coordinates on the 5×5 lattice of
/// spacing 0.25 in the unit square: exact distance ties and duplicate points
/// are common.
fn arb_lattice_graph() -> impl Strategy<Value = SpatialGraph> {
    (5usize..18)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), n..(n * 4));
            let cells = proptest::collection::vec((0u32..5, 0u32..5), n);
            (Just(n), edges, cells)
        })
        .prop_map(|(n, edges, cells)| {
            let mut b = GraphBuilder::new();
            b.ensure_vertex(n as u32 - 1);
            b.add_edges(edges);
            let positions: Vec<Point> = cells.iter().map(|&(x, y)| lattice_point(x, y)).collect();
            SpatialGraph::new(b.build(), positions).expect("valid random graph")
        })
}

fn lattice_point(x: u32, y: u32) -> Point {
    Point::new(0.25 * x as f64, 0.25 * y as f64)
}

/// A radius in `[0, 1.6)`: half the time a lattice distance `0.25·√a`
/// exactly (so probes land on distance ties), otherwise continuous.
fn arb_radius() -> impl Strategy<Value = f64> {
    (0u32..2, 0u32..41, 0.0f64..1.6).prop_map(|(pick, a, r)| {
        if pick == 0 {
            0.25 * (a as f64).sqrt()
        } else {
            r
        }
    })
}

/// Every vertex, in id order.
fn all_vertices(g: &SpatialGraph) -> Vec<VertexId> {
    (0..g.num_vertices() as VertexId).collect()
}

/// A member list keeping ~70% of the vertices, in id order; `q` itself may
/// be excluded (every probe is then infeasible on both paths).
fn universe_of(g: &SpatialGraph, mask_bits: &[u32]) -> Vec<VertexId> {
    (0..g.num_vertices() as VertexId)
        .filter(|&v| mask_bits[v as usize] >= 3)
        .collect()
}

/// The same members twice: in id order, then reordered by `keys` (ties by
/// id), as `Exact` passes its distance-sorted k-ĉore.
fn both_orders(members: Vec<VertexId>, keys: &[u32]) -> [Vec<VertexId>; 2] {
    let mut shuffled = members.clone();
    shuffled.sort_by_key(|&v| (keys[v as usize], v));
    [members, shuffled]
}

/// The from-scratch oracle restricted to `members` (id-sorted): a
/// brute-force scan of every position inside `circle`, filtered by them,
/// then one full subset peel.
fn restricted_scratch(
    g: &SpatialGraph,
    solver: &mut KCoreSolver,
    circle: &Circle,
    q: VertexId,
    k: u32,
    members: &[VertexId],
) -> Option<Vec<VertexId>> {
    let subset: Vec<VertexId> = all_vertices(g)
        .into_iter()
        .filter(|&v| circle.contains(g.position(v)) && members.binary_search(&v).is_ok())
        .collect();
    solver.kcore_containing(g.graph(), &subset, q, k)
}

/// Sweep probes over every vertex equal from-scratch circle queries on
/// arbitrary radius schedules: raw (non-monotone, exercising the re-seed
/// fallback), descending (the incremental-shrink fast path) and ascending.
fn check_sweep_probes(
    g: &SpatialGraph,
    q_raw: u32,
    k: u32,
    mut radii: Vec<f64>,
    schedule: usize,
    keys: &[u32],
) -> Result<(), TestCaseError> {
    let q = q_raw % g.num_vertices() as u32;
    match schedule {
        1 => radii.sort_by(|a, b| b.partial_cmp(a).unwrap()), // monotone shrink
        2 => radii.sort_by(|a, b| a.partial_cmp(b).unwrap()), // monotone grow
        _ => {}                                               // non-monotone
    }
    let center = g.position(q);
    let all = all_vertices(g);
    let mut solver = KCoreSolver::new(g.num_vertices());
    for members in both_orders(all.clone(), keys) {
        let mut ctx = SearchContext::new(g, q, k).unwrap();
        ctx.begin_sweep(center, 1.6, &members);
        for &r in &radii {
            let via_sweep = ctx.probe(r);
            let circle = Circle::new(center, r);
            let scratch = restricted_scratch(g, &mut solver, &circle, q, k, &all);
            prop_assert_eq!(via_sweep, scratch, "q={} k={} r={}", q, k, r);
        }
    }
    Ok(())
}

/// Same equivalence with a restricting member list and a sweep centre that
/// is not the query vertex (the `AppAcc` anchor pattern).
fn check_off_centre_sweep(
    g: &SpatialGraph,
    q_raw: u32,
    k: u32,
    center: Point,
    mask_bits: &[u32],
    radii: &[f64],
    keys: &[u32],
) -> Result<(), TestCaseError> {
    let q = q_raw % g.num_vertices() as u32;
    let universe = universe_of(g, mask_bits);
    let mut solver = KCoreSolver::new(g.num_vertices());
    for members in both_orders(universe.clone(), keys) {
        let mut ctx = SearchContext::new(g, q, k).unwrap();
        let mut reference = SearchContext::new(g, q, k).unwrap();
        ctx.begin_sweep(center, 2.0, &members);
        for &r in radii {
            let via_sweep = ctx.probe(r);
            let circle = Circle::new(center, r);
            let scratch = restricted_scratch(g, &mut solver, &circle, q, k, &universe);
            // The single-probe path over the same members agrees too.
            let filtered = reference.feasible_in_circle(&circle, &members);
            prop_assert_eq!(&filtered, &scratch, "filter q={} k={} r={}", q, k, r);
            prop_assert_eq!(via_sweep, scratch, "q={} k={} r={}", q, k, r);
        }
    }
    Ok(())
}

/// One sweep over a member list serving radius probes, next-distance
/// advances and arbitrary circles in random order — the interleaving
/// `AppFast` and `Exact`/`Exact+` rely on.  `op` picks the call:
/// 0 = `probe(r)`, 1 = `next_candidate_distance_above(r)`, 2 = `probe_circle`.
fn check_interleaved_calls(
    g: &SpatialGraph,
    q_raw: u32,
    k: u32,
    mask_bits: &[u32],
    ops: &[(u32, f64, (f64, f64))],
    keys: &[u32],
) -> Result<(), TestCaseError> {
    let q = q_raw % g.num_vertices() as u32;
    let universe = universe_of(g, mask_bits);
    let center = g.position(q);
    let mut solver = KCoreSolver::new(g.num_vertices());
    // Unit-square data, radii below 1.6: r_max = 4 covers every probe circle
    // and every arbitrary circle's members as seen from q.
    let r_max = 4.0;
    for members in both_orders(universe.clone(), keys) {
        let mut ctx = SearchContext::new(g, q, k).unwrap();
        ctx.begin_sweep(center, r_max, &members);
        for &(op, r, (cx, cy)) in ops {
            match op {
                0 => {
                    let circle = Circle::new(center, r);
                    let scratch = restricted_scratch(g, &mut solver, &circle, q, k, &universe);
                    prop_assert_eq!(ctx.probe(r), scratch, "probe q={} k={} r={}", q, k, r);
                }
                1 => {
                    let cover = Circle::new(center, r_max);
                    let expected = universe
                        .iter()
                        .filter(|&&v| cover.contains(g.position(v)))
                        .map(|&v| g.position(v).distance(center))
                        .filter(|&d| d > r)
                        .fold(f64::INFINITY, f64::min);
                    prop_assert_eq!(
                        ctx.next_candidate_distance_above(r).to_bits(),
                        expected.to_bits(),
                        "next distance q={} r={}",
                        q,
                        r
                    );
                }
                _ => {
                    let circle = Circle::new(Point::new(cx, cy), r);
                    let scratch = restricted_scratch(g, &mut solver, &circle, q, k, &universe);
                    prop_assert_eq!(
                        ctx.probe_circle(&circle),
                        scratch,
                        "circle q={} k={} ({}, {}) r={}",
                        q,
                        k,
                        cx,
                        cy,
                        r
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sweep_probes_match_from_scratch(
        g in arb_spatial_graph(),
        q_raw in 0u32..18,
        k in 0u32..5,
        radii in proptest::collection::vec(0.0f64..1.6, 1..32),
        schedule in 0usize..3,
        keys in proptest::collection::vec(0u32..1000, 18),
    ) {
        check_sweep_probes(&g, q_raw, k, radii, schedule, &keys)?;
    }

    #[test]
    fn lattice_sweep_probes_match_from_scratch(
        g in arb_lattice_graph(),
        q_raw in 0u32..18,
        k in 0u32..5,
        radii in proptest::collection::vec(arb_radius(), 1..32),
        schedule in 0usize..3,
        keys in proptest::collection::vec(0u32..1000, 18),
    ) {
        check_sweep_probes(&g, q_raw, k, radii, schedule, &keys)?;
    }

    #[test]
    fn off_centre_sweeps_with_universe_match(
        g in arb_spatial_graph(),
        q_raw in 0u32..18,
        k in 1u32..4,
        (cx, cy) in (0.0f64..1.0, 0.0f64..1.0),
        mask_bits in proptest::collection::vec(0u32..10, 18),
        radii in proptest::collection::vec(0.0f64..2.0, 1..24),
        keys in proptest::collection::vec(0u32..1000, 18),
    ) {
        check_off_centre_sweep(&g, q_raw, k, Point::new(cx, cy), &mask_bits, &radii, &keys)?;
    }

    /// Off-centre sweeps on the lattice, centred on a lattice point.
    #[test]
    fn lattice_off_centre_sweeps_with_universe_match(
        g in arb_lattice_graph(),
        q_raw in 0u32..18,
        k in 1u32..4,
        (cx, cy) in (0u32..5, 0u32..5),
        mask_bits in proptest::collection::vec(0u32..10, 18),
        radii in proptest::collection::vec(arb_radius(), 1..24),
        keys in proptest::collection::vec(0u32..1000, 18),
    ) {
        check_off_centre_sweep(&g, q_raw, k, lattice_point(cx, cy), &mask_bits, &radii, &keys)?;
    }

    #[test]
    fn interleaved_probes_distances_and_circles_match(
        g in arb_spatial_graph(),
        q_raw in 0u32..18,
        k in 0u32..4,
        mask_bits in proptest::collection::vec(0u32..10, 18),
        ops in proptest::collection::vec((0u32..3, 0.0f64..1.6, (0.0f64..1.0, 0.0f64..1.0)), 1..32),
        keys in proptest::collection::vec(0u32..1000, 18),
    ) {
        check_interleaved_calls(&g, q_raw, k, &mask_bits, &ops, &keys)?;
    }

    /// The same interleaving on the lattice, where radii and circle centres
    /// land exactly on distance ties.
    #[test]
    fn lattice_interleaved_probes_distances_and_circles_match(
        g in arb_lattice_graph(),
        q_raw in 0u32..18,
        k in 0u32..4,
        mask_bits in proptest::collection::vec(0u32..10, 18),
        ops in proptest::collection::vec((0u32..3, arb_radius(), (0u32..5, 0u32..5)), 1..32),
        keys in proptest::collection::vec(0u32..1000, 18),
    ) {
        let ops: Vec<(u32, f64, (f64, f64))> = ops
            .iter()
            .map(|&(op, r, (x, y))| {
                let c = lattice_point(x, y);
                (op, r, (c.x, c.y))
            })
            .collect();
        check_interleaved_calls(&g, q_raw, k, &mask_bits, &ops, &keys)?;
    }

    /// Arbitrary (non-concentric) circles through the candidate view — the
    /// `Exact`/`Exact+` triple-enumeration pattern — equal the from-scratch
    /// path, including circles that do not contain `q` at all.
    #[test]
    fn arbitrary_circle_probes_match(
        g in arb_spatial_graph(),
        q_raw in 0u32..18,
        k in 1u32..4,
        circles in proptest::collection::vec(((0.0f64..1.0, 0.0f64..1.0), 0.0f64..1.0), 1..24),
    ) {
        let q = q_raw % g.num_vertices() as u32;
        let mut ctx = SearchContext::new(&g, q, k).unwrap();
        let mut solver = KCoreSolver::new(g.num_vertices());
        let all = all_vertices(&g);
        // Unit-square data, circle radii ≤ 1: r_max = 4 covers every circle's
        // members as seen from q (|v, q| ≤ |v, c| + |c, q| ≤ (1 + tol) + √2).
        ctx.begin_sweep(g.position(q), 4.0, &all);
        for &((cx, cy), r) in &circles {
            let circle = Circle::new(Point::new(cx, cy), r);
            let via_sweep = ctx.probe_circle(&circle);
            let scratch = restricted_scratch(&g, &mut solver, &circle, q, k, &all);
            prop_assert_eq!(via_sweep, scratch, "q={} k={} circle=({}, {}) r={}", q, k, cx, cy, r);
        }
    }

    /// Collected sweeps (the `AppInc` expansion pattern) equal the plain
    /// subset solver after every push.
    #[test]
    fn collected_probes_match_subset_solver(
        g in arb_spatial_graph(),
        q_raw in 0u32..18,
        k in 0u32..4,
        order_seed in proptest::collection::vec(0u32..18, 1..18),
    ) {
        let q = q_raw % g.num_vertices() as u32;
        let mut ctx = SearchContext::new(&g, q, k).unwrap();
        let mut solver = KCoreSolver::new(g.num_vertices());
        ctx.begin_collect();
        let mut pushed = vec![q];
        ctx.collect(q);
        prop_assert_eq!(
            ctx.probe_collected(),
            solver.kcore_containing(g.graph(), &pushed, q, k)
        );
        for &raw in &order_seed {
            let v = raw % g.num_vertices() as u32;
            if pushed.contains(&v) {
                continue;
            }
            ctx.collect(v);
            pushed.push(v);
            prop_assert_eq!(
                ctx.probe_collected(),
                solver.kcore_containing(g.graph(), &pushed, q, k),
                "after pushing {}", v
            );
        }
    }

    /// Back-to-back sweeps on one context never leak state: a second sweep
    /// (different centre and radii) still matches from-scratch.
    #[test]
    fn sweep_reuse_across_begins_is_clean(
        g in arb_spatial_graph(),
        q_raw in 0u32..18,
        k in 1u32..4,
        radii_a in proptest::collection::vec(0.0f64..1.6, 1..8),
        radii_b in proptest::collection::vec(0.0f64..1.6, 1..8),
        (cx, cy) in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let q = q_raw % g.num_vertices() as u32;
        let mut ctx = SearchContext::new(&g, q, k).unwrap();
        let mut solver = KCoreSolver::new(g.num_vertices());
        let all = all_vertices(&g);
        ctx.begin_sweep(g.position(q), 1.6, &all);
        for &r in &radii_a {
            ctx.probe(r);
        }
        let center = Point::new(cx, cy);
        ctx.begin_sweep(center, 1.6, &all);
        for &r in &radii_b {
            prop_assert_eq!(
                ctx.probe(r),
                restricted_scratch(&g, &mut solver, &Circle::new(center, r), q, k, &all),
                "second sweep r={}", r
            );
        }
    }
}
