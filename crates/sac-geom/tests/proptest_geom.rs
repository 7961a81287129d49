//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use sac_geom::{
    minimum_enclosing_circle, minimum_enclosing_circle_naive, Circle, GridIndex, Point,
    PointQuadtree, Rect,
};

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(arb_point(), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The MCC returned by Welzl covers every input point.
    #[test]
    fn mec_covers_all_points(pts in arb_points(64)) {
        let c = minimum_enclosing_circle(&pts).unwrap();
        prop_assert!(c.contains_all(&pts));
    }

    /// The MCC returned by Welzl is no larger than the brute-force optimum.
    #[test]
    fn mec_matches_naive_radius(pts in arb_points(24)) {
        let fast = minimum_enclosing_circle(&pts).unwrap();
        let slow = minimum_enclosing_circle_naive(&pts).unwrap();
        prop_assert!((fast.radius - slow.radius).abs() < 1e-7,
            "fast={} slow={}", fast.radius, slow.radius);
    }

    /// The MCC radius never exceeds half of the bounding-box diagonal and is at
    /// least half of the maximum pairwise distance.
    #[test]
    fn mec_radius_bounds(pts in arb_points(48)) {
        let c = minimum_enclosing_circle(&pts).unwrap();
        let bbox = Rect::bounding(&pts).unwrap();
        let diag = bbox.min.distance(bbox.max);
        prop_assert!(c.radius <= diag / 2.0 * (1.0 + 1e-9) + 1e-12);
        let max_pair = pts
            .iter()
            .flat_map(|a| pts.iter().map(move |b| a.distance(*b)))
            .fold(0.0f64, f64::max);
        prop_assert!(c.radius + 1e-9 >= max_pair / 2.0);
    }

    /// The MCC of three points always covers the three points and is minimal.
    #[test]
    fn mcc_of_three_is_minimal(a in arb_point(), b in arb_point(), c in arb_point()) {
        let mcc = Circle::mcc_of_three(a, b, c);
        prop_assert!(mcc.contains(a) && mcc.contains(b) && mcc.contains(c));
        let reference = minimum_enclosing_circle_naive(&[a, b, c]).unwrap();
        prop_assert!((mcc.radius - reference.radius).abs() < 1e-9);
    }

    /// Circle–circle intersection area is symmetric, bounded by the smaller disk,
    /// and the induced Jaccard value is in [0, 1].
    #[test]
    fn intersection_area_properties(
        c1 in arb_point(), r1 in 0.0f64..0.5,
        c2 in arb_point(), r2 in 0.0f64..0.5,
    ) {
        let a = Circle::new(c1, r1);
        let b = Circle::new(c2, r2);
        let i1 = a.intersection_area(&b);
        let i2 = b.intersection_area(&a);
        prop_assert!((i1 - i2).abs() < 1e-9);
        prop_assert!(i1 >= -1e-12);
        prop_assert!(i1 <= a.area().min(b.area()) + 1e-9);
        let j = a.area_jaccard(&b);
        prop_assert!((0.0..=1.0).contains(&j));
    }

    /// Grid index circular range queries agree with a linear scan.
    #[test]
    fn grid_circle_query_is_exact(pts in arb_points(200), center in arb_point(), r in 0.0f64..0.7) {
        let grid = GridIndex::build(pts.clone(), 8).unwrap();
        let circle = Circle::new(center, r);
        let mut got = grid.query_circle(&circle);
        got.sort_unstable();
        let mut expected: Vec<u32> = pts.iter().enumerate()
            .filter(|(_, p)| circle.contains(**p))
            .map(|(i, _)| i as u32)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Grid k-nearest-neighbour distances agree with a sorted linear scan.
    #[test]
    fn grid_knn_is_exact(pts in arb_points(150), q in arb_point(), k in 1usize..12) {
        let grid = GridIndex::build(pts.clone(), 6).unwrap();
        let got = grid.k_nearest(q, k);
        let mut expected: Vec<f64> = pts.iter().map(|p| p.distance(q)).collect();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let want = k.min(pts.len());
        prop_assert_eq!(got.len(), want);
        for i in 0..want {
            prop_assert!((got[i].1 - expected[i]).abs() < 1e-9,
                "rank {} mismatch: {} vs {}", i, got[i].1, expected[i]);
        }
    }

    /// Quadtree circular range queries agree with a linear scan.
    #[test]
    fn quadtree_circle_query_is_exact(pts in arb_points(200), center in arb_point(), r in 0.0f64..0.7) {
        let tree = PointQuadtree::build(&pts).unwrap();
        let circle = Circle::new(center, r);
        let mut got = tree.query_circle(&circle);
        got.sort_unstable();
        let mut expected: Vec<u32> = pts.iter().enumerate()
            .filter(|(_, p)| circle.contains(**p))
            .map(|(i, _)| i as u32)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Quadtree nearest neighbour agrees with a linear scan.
    #[test]
    fn quadtree_nearest_is_exact(pts in arb_points(150), q in arb_point()) {
        let tree = PointQuadtree::build(&pts).unwrap();
        let (_, d) = tree.nearest(q);
        let expected = pts.iter().map(|p| p.distance(q)).fold(f64::INFINITY, f64::min);
        prop_assert!((d - expected).abs() < 1e-12);
    }
}
