//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use sac_geom::{minimum_enclosing_circle, minimum_enclosing_circle_naive, Circle, Point};

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
        let min = pts.iter().fold(pts[0], |m, p| Point::new(m.x.min(p.x), m.y.min(p.y)));
        let max = pts.iter().fold(pts[0], |m, p| Point::new(m.x.max(p.x), m.y.max(p.y)));
        let diag = min.distance(max);
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
}
