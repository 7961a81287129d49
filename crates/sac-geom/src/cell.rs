//! Region-quadtree cells ("anchor cells") used by the `AppAcc` algorithm.
//!
//! `AppAcc` (Section 4.4 of the paper) covers the circle `O(q, γ)` with a square of
//! width `2γ` and recursively splits it into equal-sized cells.  The centre of each
//! cell is an *anchor point*; the algorithm approximates the unknown optimal MCC
//! centre by the nearest anchor point.  This module provides the cell abstraction:
//! a square identified by its centre and width, with child enumeration and the
//! geometric predicates the pruning rules need.

use crate::Point;

/// A square cell of the region quadtree, identified by its centre and width.
///
/// The centre of the cell is the *anchor point* examined by `AppAcc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorCell {
    /// Centre of the square (the anchor point).
    pub center: Point,
    /// Side length of the square.
    pub width: f64,
    /// Depth in the quadtree (the root has depth 0).
    pub depth: u32,
}

impl AnchorCell {
    /// Creates the root cell: a square of width `width` centred at `center`.
    pub fn root(center: Point, width: f64) -> Self {
        AnchorCell {
            center,
            width,
            depth: 0,
        }
    }

    /// The four child cells obtained by splitting this cell into quadrants.
    ///
    /// The children have half the width and their centres are offset by a quarter
    /// of the parent's width in each diagonal direction.
    pub fn children(&self) -> [AnchorCell; 4] {
        let q = self.width * 0.25;
        let w = self.width * 0.5;
        let d = self.depth + 1;
        [
            AnchorCell {
                center: Point::new(self.center.x - q, self.center.y - q),
                width: w,
                depth: d,
            },
            AnchorCell {
                center: Point::new(self.center.x + q, self.center.y - q),
                width: w,
                depth: d,
            },
            AnchorCell {
                center: Point::new(self.center.x - q, self.center.y + q),
                width: w,
                depth: d,
            },
            AnchorCell {
                center: Point::new(self.center.x + q, self.center.y + q),
                width: w,
                depth: d,
            },
        ]
    }

    /// Half of the cell diagonal: the maximum distance from the anchor point to any
    /// location inside the cell, `√2/2 · width`.
    ///
    /// This is the `√2/2 · β` term that appears in Lemma 6 and both pruning rules.
    #[inline]
    pub fn half_diagonal(&self) -> f64 {
        std::f64::consts::FRAC_1_SQRT_2 * self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `p` lies in the square `cell` covers (boundary inclusive),
    /// from its centre and width.
    fn covers(cell: &AnchorCell, p: Point) -> bool {
        let h = cell.width * 0.5;
        (p.x - cell.center.x).abs() <= h && (p.y - cell.center.y).abs() <= h
    }

    #[test]
    fn children_tile_the_parent() {
        let root = AnchorCell::root(Point::new(1.0, 1.0), 2.0);
        let kids = root.children();
        assert_eq!(kids.len(), 4);
        for k in &kids {
            assert!((k.width - 1.0).abs() < 1e-12);
            assert_eq!(k.depth, 1);
            // The child's corners must lie inside the parent.
            let h = k.width * 0.5;
            for (dx, dy) in [(-h, -h), (h, -h), (-h, h), (h, h)] {
                let corner = Point::new(k.center.x + dx, k.center.y + dy);
                assert!(covers(&root, corner), "corner {corner} outside the parent");
            }
        }
        // The four children cover the same total area as the parent.
        let total: f64 = kids.iter().map(|k| k.width * k.width).sum();
        assert!((total - root.width * root.width).abs() < 1e-12);
    }

    #[test]
    fn half_diagonal_bounds_distance_to_anchor() {
        let cell = AnchorCell::root(Point::new(0.0, 0.0), 2.0);
        let corner = Point::new(1.0, 1.0);
        assert!(covers(&cell, corner));
        assert!(cell.center.distance(corner) <= cell.half_diagonal() + 1e-12);
    }

    #[test]
    fn every_point_of_root_is_in_some_leaf() {
        let root = AnchorCell::root(Point::new(0.0, 0.0), 4.0);
        let leaves: Vec<AnchorCell> = root.children().iter().flat_map(|c| c.children()).collect();
        for &p in &[
            Point::new(-1.9, -1.9),
            Point::new(0.0, 0.0),
            Point::new(1.3, -0.7),
            Point::new(1.99, 1.99),
        ] {
            assert!(leaves.iter().any(|c| covers(c, p)), "point {p} not covered");
        }
    }
}
