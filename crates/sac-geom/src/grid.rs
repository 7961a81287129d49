//! Uniform-grid spatial index for circular range queries over a fixed point
//! set.
//!
//! SAC search issues a large number of "which vertices lie inside circle `O(c, r)`"
//! queries (`AppFast` binary search, `AppAcc` anchor search, `θ-SAC`).  A uniform
//! grid over the data's bounding box answers these in time proportional to the
//! number of grid cells overlapped plus the number of reported points, which is far
//! cheaper than a linear scan on the paper's million-vertex graphs.

use crate::{Circle, GeomError, Point, Rect};

/// A uniform grid over a fixed set of points, supporting circular range
/// queries.
///
/// Point identities are the indices into the point vector the grid was built from
/// (and owns), which in `sac-graph` coincide with vertex ids.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bounds: Rect,
    cell_size: f64,
    cols: usize,
    rows: usize,
    /// CSR-style cell layout: `cell_offsets[c]..cell_offsets[c + 1]` indexes into
    /// `entries` for the points of cell `c` (row-major cell order).
    cell_offsets: Vec<u32>,
    entries: Vec<u32>,
    points: Vec<Point>,
}

impl GridIndex {
    /// Builds a grid index over `points`, taking ownership of them.
    ///
    /// `target_per_cell` controls the grid resolution: the number of cells is chosen
    /// so that an average cell holds roughly this many points.  Values around 4–16
    /// work well; the constructor clamps degenerate inputs.
    pub fn build(points: Vec<Point>, target_per_cell: usize) -> Result<Self, GeomError> {
        if points.is_empty() {
            return Err(GeomError::EmptyPointSet);
        }
        if target_per_cell == 0 {
            return Err(GeomError::InvalidParameter(
                "target_per_cell must be positive",
            ));
        }
        let bounds = Rect::bounding(&points)
            .expect("non-empty point set always has a bounding box")
            // A tiny margin keeps points on the max edge strictly inside the grid.
            .expanded(1e-12);
        let n = points.len();
        let cells_wanted = (n / target_per_cell).max(1);
        let aspect = if bounds.height() > 0.0 {
            (bounds.width() / bounds.height()).max(1e-6)
        } else {
            1.0
        };
        let rows = (((cells_wanted as f64) / aspect).sqrt().ceil() as usize).max(1);
        let cols = cells_wanted.div_ceil(rows).max(1);
        let cell_w = (bounds.width() / cols as f64).max(f64::MIN_POSITIVE);
        let cell_h = (bounds.height() / rows as f64).max(f64::MIN_POSITIVE);
        let cell_size = cell_w.max(cell_h);
        // Recompute the grid dimensions with the square cell size.
        let cols = ((bounds.width() / cell_size).ceil() as usize).max(1);
        let rows = ((bounds.height() / cell_size).ceil() as usize).max(1);

        let n_cells = cols * rows;
        let mut counts = vec![0u32; n_cells + 1];
        let cell_of = |p: Point| -> usize {
            let cx = (((p.x - bounds.min.x) / cell_size) as usize).min(cols - 1);
            let cy = (((p.y - bounds.min.y) / cell_size) as usize).min(rows - 1);
            cy * cols + cx
        };
        for p in &points {
            counts[cell_of(*p) + 1] += 1;
        }
        for i in 0..n_cells {
            counts[i + 1] += counts[i];
        }
        let mut entries = vec![0u32; n];
        let mut cursor = counts.clone();
        for (idx, p) in points.iter().enumerate() {
            let c = cell_of(*p);
            entries[cursor[c] as usize] = idx as u32;
            cursor[c] += 1;
        }
        Ok(GridIndex {
            bounds,
            cell_size,
            cols,
            rows,
            cell_offsets: counts,
            entries,
            points,
        })
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the index holds no points (never the case after `build`).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The position of an indexed point.
    pub fn point(&self, idx: u32) -> Point {
        self.points[idx as usize]
    }

    /// All indexed points, in index order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    fn cell_range(&self, cx: usize, cy: usize) -> std::ops::Range<usize> {
        let c = cy * self.cols + cx;
        self.cell_offsets[c] as usize..self.cell_offsets[c + 1] as usize
    }

    fn col_span(&self, x_lo: f64, x_hi: f64) -> (usize, usize) {
        let lo = (((x_lo - self.bounds.min.x) / self.cell_size).floor() as isize)
            .clamp(0, self.cols as isize - 1) as usize;
        let hi = (((x_hi - self.bounds.min.x) / self.cell_size).floor() as isize)
            .clamp(0, self.cols as isize - 1) as usize;
        (lo, hi)
    }

    fn row_span(&self, y_lo: f64, y_hi: f64) -> (usize, usize) {
        let lo = (((y_lo - self.bounds.min.y) / self.cell_size).floor() as isize)
            .clamp(0, self.rows as isize - 1) as usize;
        let hi = (((y_hi - self.bounds.min.y) / self.cell_size).floor() as isize)
            .clamp(0, self.rows as isize - 1) as usize;
        (lo, hi)
    }

    /// Returns the indices of all points inside circle `circle`, in arbitrary order.
    pub fn query_circle(&self, circle: &Circle) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_circle_into(circle, &mut out);
        out
    }

    /// Appends the indices of all points inside `circle` to `out` (cleared first).
    ///
    /// Reusing the output buffer avoids per-query allocation in the binary-search
    /// loops of `AppFast`/`AppAcc`.
    pub fn query_circle_into(&self, circle: &Circle, out: &mut Vec<u32>) {
        out.clear();
        let c = circle.center;
        // Span the cells by the inclusion reach, not the bare radius: a point
        // in the tolerance band just past a cell boundary is still inside.
        let reach = circle.contains_bound();
        let r_tol_sq = circle.contains_bound_sq();
        let (cx_lo, cx_hi) = self.col_span(c.x - reach, c.x + reach);
        let (cy_lo, cy_hi) = self.row_span(c.y - reach, c.y + reach);
        for cy in cy_lo..=cy_hi {
            for cx in cx_lo..=cx_hi {
                for e in self.cell_range(cx, cy).clone() {
                    let idx = self.entries[e];
                    if self.points[idx as usize].distance_sq(c) <= r_tol_sq {
                        out.push(idx);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                pts.push(Point::new(i as f64 * 0.05, j as f64 * 0.05));
            }
        }
        pts
    }

    #[test]
    fn build_rejects_bad_input() {
        assert!(GridIndex::build(vec![], 8).is_err());
        assert!(GridIndex::build(vec![Point::ORIGIN], 0).is_err());
    }

    #[test]
    fn circle_query_matches_linear_scan() {
        let pts = sample_points();
        let grid = GridIndex::build(pts.clone(), 8).unwrap();
        let circle = Circle::new(Point::new(0.5, 0.5), 0.21);
        let mut got = grid.query_circle(&circle);
        got.sort_unstable();
        let mut expected: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| circle.contains(**p))
            .map(|(i, _)| i as u32)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn circle_query_keeps_the_tolerance_band_past_cell_boundaries() {
        // An 11×11 integer lattice, padded with repeats to 200 points, gets
        // 10×10 cells of width ≈1, so lattice points sit on cell boundaries.
        // Each radius stops just short of a lattice point, inside the EPS
        // band `contains` still accepts.
        let lattice: Vec<Point> = (0..121)
            .map(|i| Point::new((i % 11) as f64, (i / 11) as f64))
            .collect();
        let pts: Vec<Point> = (0..200).map(|i| lattice[i % 121]).collect();
        let grid = GridIndex::build(pts.clone(), 2).unwrap();
        let mut got = Vec::new();
        for &c in &lattice {
            for &p in &lattice {
                let d = c.distance(p);
                if d == 0.0 {
                    continue;
                }
                let circle = Circle::new(c, d - 0.5 * crate::EPS * (1.0 + d));
                assert!(circle.contains(p));
                grid.query_circle_into(&circle, &mut got);
                got.sort_unstable();
                let expected: Vec<u32> = (0..pts.len() as u32)
                    .filter(|&i| circle.contains(pts[i as usize]))
                    .collect();
                assert_eq!(got, expected, "circle at {c:?} r = {}", circle.radius);
            }
        }
    }

    #[test]
    fn query_outside_bounds_returns_empty() {
        let pts = sample_points();
        let grid = GridIndex::build(pts, 8).unwrap();
        let circle = Circle::new(Point::new(10.0, 10.0), 0.3);
        assert!(grid.query_circle(&circle).is_empty());
    }

    #[test]
    fn identical_points_all_reported() {
        let pts = vec![Point::new(0.5, 0.5); 9];
        let grid = GridIndex::build(pts, 2).unwrap();
        let got = grid.query_circle(&Circle::new(Point::new(0.5, 0.5), 0.01));
        assert_eq!(got.len(), 9);
    }
}
