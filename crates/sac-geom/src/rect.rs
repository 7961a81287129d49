//! Axis-aligned rectangles.

use crate::Point;

/// An axis-aligned rectangle described by its minimum and maximum corners.
///
/// Rectangles are used as bounding boxes of point sets and as the square
/// cells of the region quadtree traversed by the `AppAcc` algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
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

    /// Returns `true` when `p` lies inside the rectangle (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_is_centred() {
        let r = Rect::square(Point::new(1.0, 1.0), 4.0);
        assert_eq!(r.min, Point::new(-1.0, -1.0));
        assert_eq!(r.max, Point::new(3.0, 3.0));
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
        let r = Rect::square(Point::new(1.0, 1.0), 2.0);
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(0.0, 2.0)));
        assert!(!r.contains(Point::new(2.1, 1.0)));
    }
}
