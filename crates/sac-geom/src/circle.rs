//! Circles, circles through two/three points, and circle–circle intersection area.

use crate::{Point, EPS};
use std::fmt;

/// A circle in the plane, written `O(center, radius)` in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Centre of the circle.
    pub center: Point,
    /// Radius of the circle (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle from its centre and radius.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `radius` is negative or not finite.
    #[inline]
    pub fn new(center: Point, radius: f64) -> Self {
        debug_assert!(
            radius >= 0.0 && radius.is_finite(),
            "invalid radius {radius}"
        );
        Circle { center, radius }
    }

    /// The degenerate circle of radius zero around a single point.
    #[inline]
    pub fn point(center: Point) -> Self {
        Circle {
            center,
            radius: 0.0,
        }
    }

    /// The smallest circle through two points: the segment `a`–`b` is a diameter.
    #[inline]
    pub fn from_diameter(a: Point, b: Point) -> Self {
        Circle {
            center: a.midpoint(b),
            radius: a.distance(b) * 0.5,
        }
    }

    /// The unique circle through three non-collinear points (circumcircle).
    ///
    /// Returns `None` when the points are (nearly) collinear, in which case no
    /// finite circumcircle exists.
    pub fn circumscribing(a: Point, b: Point, c: Point) -> Option<Self> {
        let ab = b - a;
        let ac = c - a;
        let d = 2.0 * ab.cross(ac);
        if d.abs() < EPS {
            return None;
        }
        let ab_sq = ab.dot(ab);
        let ac_sq = ac.dot(ac);
        let ux = (ac.y * ab_sq - ab.y * ac_sq) / d;
        let uy = (ab.x * ac_sq - ac.x * ab_sq) / d;
        let center = Point::new(a.x + ux, a.y + uy);
        Some(Circle {
            radius: center.distance(a),
            center,
        })
    }

    /// The minimum covering circle of exactly three points.
    ///
    /// Per Lemma 1 of the paper: if the triangle is obtuse (or degenerate), the MCC
    /// is the diametral circle of its longest side; otherwise it is the circumcircle.
    pub fn mcc_of_three(a: Point, b: Point, c: Point) -> Self {
        // Try the three diametral circles first: the smallest circle determined by
        // two of the points that also contains the third one is the MCC.
        let mut best: Option<Circle> = None;
        for (u, v, w) in [(a, b, c), (a, c, b), (b, c, a)] {
            let circ = Circle::from_diameter(u, v);
            if circ.contains(w) {
                best = match best {
                    Some(prev) if prev.radius <= circ.radius => Some(prev),
                    _ => Some(circ),
                };
            }
        }
        if let Some(circ) = best {
            return circ;
        }
        // Acute triangle: the circumcircle is the MCC.  Collinear points always hit
        // one of the diametral cases above, so the circumcircle exists here.
        Circle::circumscribing(a, b, c).unwrap_or_else(|| Circle::from_diameter(a, b))
    }

    /// The squared inclusion threshold of [`Circle::contains`]: a point `p` is
    /// inside the circle exactly when `center.distance_sq(p)` is at most this
    /// value, the square of the radius plus a small tolerance proportional
    /// to it.
    ///
    /// Every inclusion test in the workspace (point containment, the circle
    /// filter over a k-ĉore's members, the radius-sweep candidate view in
    /// `sac-graph`) compares against this one bound, so the different query
    /// paths agree bit-for-bit on boundary vertices.  The bound is monotone
    /// in the radius, which is what lets a distance-sorted candidate array
    /// answer any smaller-radius query as a prefix.
    #[inline]
    pub fn contains_bound_sq(&self) -> f64 {
        let t = self.radius + EPS * (1.0 + self.radius);
        t * t
    }

    /// Returns `true` when `p` lies inside the circle (boundary inclusive, with a
    /// small tolerance proportional to the radius).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.contains_bound_sq()
    }

    /// Returns `true` when every point of `points` lies inside the circle.
    pub fn contains_all(&self, points: &[Point]) -> bool {
        points.iter().all(|&p| self.contains(p))
    }

    /// Area of the circle (`π r²`).
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Area of the intersection of two circular disks.
    ///
    /// Used by the *community area overlap* (CAO) metric of the paper's dynamic
    /// experiment (Eq. 10).  Handles the disjoint and fully-contained cases.
    pub fn intersection_area(&self, other: &Circle) -> f64 {
        let d = self.center.distance(other.center);
        let (r1, r2) = (self.radius, other.radius);
        if d >= r1 + r2 {
            return 0.0;
        }
        if d + r1.min(r2) <= r1.max(r2) + EPS {
            // One disk is contained in the other.
            let r = r1.min(r2);
            return std::f64::consts::PI * r * r;
        }
        // Standard lens-area formula.
        let d2 = d * d;
        let alpha = ((d2 + r1 * r1 - r2 * r2) / (2.0 * d * r1)).clamp(-1.0, 1.0);
        let beta = ((d2 + r2 * r2 - r1 * r1) / (2.0 * d * r2)).clamp(-1.0, 1.0);
        let a1 = r1 * r1 * alpha.acos();
        let a2 = r2 * r2 * beta.acos();
        let kite = 0.5
            * ((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
                .max(0.0)
                .sqrt();
        (a1 + a2 - kite).max(0.0)
    }

    /// Area of the union of two circular disks.
    pub fn union_area(&self, other: &Circle) -> f64 {
        self.area() + other.area() - self.intersection_area(other)
    }

    /// Jaccard-style overlap of two disks: intersection area over union area.
    ///
    /// Returns 1.0 for two identical degenerate (zero-radius) circles and 0.0 when
    /// the union has zero area but the circles differ.
    pub fn area_jaccard(&self, other: &Circle) -> f64 {
        let union = self.union_area(other);
        if union <= EPS {
            return if self.center.distance(other.center) <= EPS {
                1.0
            } else {
                0.0
            };
        }
        (self.intersection_area(other) / union).clamp(0.0, 1.0)
    }
}

impl fmt::Display for Circle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O({}, r={:.6})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn diameter_circle_contains_endpoints() {
        let c = Circle::from_diameter(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        assert_eq!(c.center, Point::new(1.0, 0.0));
        assert!(close(c.radius, 1.0));
        assert!(c.contains(Point::new(0.0, 0.0)));
        assert!(c.contains(Point::new(2.0, 0.0)));
        assert!(!c.contains(Point::new(2.5, 0.0)));
    }

    #[test]
    fn circumcircle_of_right_triangle() {
        // Right triangle: hypotenuse is the diameter.
        let c = Circle::circumscribing(
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
        )
        .unwrap();
        assert!(close(c.radius, 2.5));
        assert!(close(c.center.x, 2.0));
        assert!(close(c.center.y, 1.5));
    }

    #[test]
    fn circumcircle_rejects_collinear_points() {
        assert!(Circle::circumscribing(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        )
        .is_none());
    }

    #[test]
    fn mcc_of_three_obtuse_uses_longest_side() {
        // Obtuse triangle: MCC is the diametral circle of the longest side.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        let c = Point::new(2.0, 0.5);
        let mcc = Circle::mcc_of_three(a, b, c);
        assert!(close(mcc.radius, 2.0));
        assert!(mcc.contains(a) && mcc.contains(b) && mcc.contains(c));
    }

    #[test]
    fn mcc_of_three_acute_uses_circumcircle() {
        // Equilateral-ish triangle: circumcircle is the MCC.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 0.0);
        let c = Point::new(1.0, 1.8);
        let mcc = Circle::mcc_of_three(a, b, c);
        let circ = Circle::circumscribing(a, b, c).unwrap();
        assert!(close(mcc.radius, circ.radius));
        assert!(mcc.contains(a) && mcc.contains(b) && mcc.contains(c));
    }

    #[test]
    fn mcc_of_three_collinear_points() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(3.0, 0.0);
        let mcc = Circle::mcc_of_three(a, b, c);
        assert!(close(mcc.radius, 1.5));
        assert!(mcc.contains_all(&[a, b, c]));
    }

    #[test]
    fn intersection_area_disjoint_and_nested() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        let far = Circle::new(Point::new(5.0, 0.0), 1.0);
        assert_eq!(a.intersection_area(&far), 0.0);

        let inner = Circle::new(Point::new(0.1, 0.0), 0.2);
        assert!(close(a.intersection_area(&inner), inner.area()));
    }

    #[test]
    fn intersection_area_half_overlap_is_symmetric() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        let b = Circle::new(Point::new(1.0, 0.0), 1.0);
        let i1 = a.intersection_area(&b);
        let i2 = b.intersection_area(&a);
        assert!(close(i1, i2));
        // Known closed form for two unit circles at distance 1.
        let expected = 2.0 * (std::f64::consts::PI / 3.0) - (3.0f64).sqrt() / 2.0;
        assert!(close(i1, expected));
    }

    #[test]
    fn identical_circles_have_jaccard_one() {
        let a = Circle::new(Point::new(0.3, 0.7), 0.25);
        assert!(close(a.area_jaccard(&a), 1.0));
        let zero = Circle::point(Point::new(0.0, 0.0));
        assert!(close(zero.area_jaccard(&zero), 1.0));
    }

    #[test]
    fn jaccard_between_zero_and_one() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        let b = Circle::new(Point::new(0.5, 0.0), 0.8);
        let j = a.area_jaccard(&b);
        assert!(j > 0.0 && j < 1.0);
    }
}
