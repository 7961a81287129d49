//! Axis-aligned rectangles.

use crate::Point;
use std::fmt;

/// An axis-aligned rectangle described by its minimum and maximum corners.
///
/// Rectangles are used as bounding boxes for spatial indexes and as the square
/// cells of the region quadtree traversed by the `AppAcc` algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points, normalising the corner order.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates the square of side `width` centred at `center`.
    ///
    /// This is the shape of the region-quadtree root used by `AppAcc`: a square of
    /// width `2γ` centred at the query vertex.
    pub fn square(center: Point, width: f64) -> Self {
        let h = width * 0.5;
        Rect {
            min: Point::new(center.x - h, center.y - h),
            max: Point::new(center.x + h, center.y + h),
        }
    }

    /// The smallest rectangle containing every point of `points`.
    ///
    /// Returns `None` for an empty slice.
    pub fn bounding(points: &[Point]) -> Option<Self> {
        let first = *points.first()?;
        let mut r = Rect {
            min: first,
            max: first,
        };
        for p in &points[1..] {
            r.min.x = r.min.x.min(p.x);
            r.min.y = r.min.y.min(p.y);
            r.max.x = r.max.x.max(p.x);
            r.max.y = r.max.y.max(p.y);
        }
        Some(r)
    }

    /// Width along the x-axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along the y-axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Returns `true` when `p` lies inside the rectangle (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Expands the rectangle by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises_corners() {
        let r = Rect::new(Point::new(2.0, 3.0), Point::new(0.0, 1.0));
        assert_eq!(r.min, Point::new(0.0, 1.0));
        assert_eq!(r.max, Point::new(2.0, 3.0));
        assert_eq!(r.width(), 2.0);
        assert_eq!(r.height(), 2.0);
        assert_eq!(r.area(), 4.0);
    }

    #[test]
    fn square_is_centred() {
        let r = Rect::square(Point::new(1.0, 1.0), 4.0);
        assert_eq!(r.min, Point::new(-1.0, -1.0));
        assert_eq!(r.max, Point::new(3.0, 3.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 4.0);
    }

    #[test]
    fn bounding_box_of_points() {
        let pts = [
            Point::new(0.5, 0.5),
            Point::new(-1.0, 2.0),
            Point::new(3.0, 0.0),
        ];
        let r = Rect::bounding(&pts).unwrap();
        assert_eq!(r.min, Point::new(-1.0, 0.0));
        assert_eq!(r.max, Point::new(3.0, 2.0));
        assert!(Rect::bounding(&[]).is_none());
    }

    #[test]
    fn containment() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(0.0, 2.0)));
        assert!(!r.contains(Point::new(2.1, 1.0)));
    }

    #[test]
    fn expanded_grows_every_side() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).expanded(0.5);
        assert_eq!(r.min, Point::new(-0.5, -0.5));
        assert_eq!(r.max, Point::new(1.5, 1.5));
    }
}
