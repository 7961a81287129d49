//! Two-dimensional points and basic vector arithmetic.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A point (or vector) in the two-dimensional Euclidean plane.
///
/// Vertex locations in a spatial graph, circle centres and quadtree anchor points
/// are all represented by `Point`.  The type is `Copy` and all operations are
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Position along the x-axis.
    pub x: f64,
    /// Position along the y-axis.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` (the paper's `|u, v|`).
    #[inline]
    pub fn distance(&self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this over [`Point::distance`] when only comparing distances; it avoids
    /// the square root.
    #[inline]
    pub fn distance_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The midpoint of the segment from `self` to `other`.
    #[inline]
    pub fn midpoint(&self, other: Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Dot product, treating both points as vectors from the origin.
    #[inline]
    pub fn dot(&self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product, treating both points as vectors.
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(&self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Returns `true` when both coordinates are finite (not NaN or infinite).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Clamps both coordinates into `[lo, hi]`.
    ///
    /// Dataset generators use this to keep synthetic locations inside the unit
    /// square the paper normalises to.
    #[inline]
    pub fn clamp(&self, lo: f64, hi: f64) -> Point {
        Point::new(self.x.clamp(lo, hi), self.y.clamp(lo, hi))
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-1.5, 2.25);
        let b = Point::new(4.0, -3.0);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn midpoint_halves_the_segment() {
        let a = Point::new(2.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.midpoint(b), Point::new(3.0, 4.0));
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(b - a, Point::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
    }

    #[test]
    fn clamp_keeps_points_in_unit_square() {
        let p = Point::new(-0.25, 1.75);
        assert_eq!(p.clamp(0.0, 1.0), Point::new(0.0, 1.0));
    }

    #[test]
    fn conversions_roundtrip() {
        let p = Point::new(0.125, 0.875);
        let t: (f64, f64) = p.into();
        assert_eq!(Point::from(t), p);
    }

    #[test]
    fn finite_detection() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
