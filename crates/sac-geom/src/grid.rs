//! Uniform-grid spatial index for circular range queries and k-nearest-neighbour
//! queries over a fixed point set.
//!
//! SAC search issues a large number of "which vertices lie inside circle `O(c, r)`"
//! queries (`AppFast` binary search, `AppAcc` anchor search, `θ-SAC`).  A uniform
//! grid over the data's bounding box answers these in time proportional to the
//! number of grid cells overlapped plus the number of reported points, which is far
//! cheaper than a linear scan on the paper's million-vertex graphs.

use crate::{Circle, GeomError, Point, Rect};

/// A uniform grid over a fixed set of points, supporting circular range queries and
/// k-nearest-neighbour search.
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

    /// The grid resolution as `(columns, rows)`.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.cols, self.rows)
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
        let r = circle.radius;
        let (cx_lo, cx_hi) = self.col_span(c.x - r, c.x + r);
        let (cy_lo, cy_hi) = self.row_span(c.y - r, c.y + r);
        let r_tol_sq = circle.contains_bound_sq();
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

    /// Counts the points inside `circle` without materialising them.
    pub fn count_in_circle(&self, circle: &Circle) -> usize {
        let c = circle.center;
        let r = circle.radius;
        let (cx_lo, cx_hi) = self.col_span(c.x - r, c.x + r);
        let (cy_lo, cy_hi) = self.row_span(c.y - r, c.y + r);
        let r_sq = r * r;
        let mut count = 0usize;
        for cy in cy_lo..=cy_hi {
            for cx in cx_lo..=cx_hi {
                for e in self.cell_range(cx, cy).clone() {
                    let idx = self.entries[e];
                    if self.points[idx as usize].distance_sq(c) <= r_sq {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Returns the indices of all points inside the rectangle `rect`.
    pub fn query_rect(&self, rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        let (cx_lo, cx_hi) = self.col_span(rect.min.x, rect.max.x);
        let (cy_lo, cy_hi) = self.row_span(rect.min.y, rect.max.y);
        for cy in cy_lo..=cy_hi {
            for cx in cx_lo..=cx_hi {
                for e in self.cell_range(cx, cy).clone() {
                    let idx = self.entries[e];
                    if rect.contains(self.points[idx as usize]) {
                        out.push(idx);
                    }
                }
            }
        }
        out
    }

    /// Returns the `k` points nearest to `query` as `(index, distance)` pairs sorted
    /// by ascending distance.  Returns fewer than `k` entries when the index holds
    /// fewer points.
    ///
    /// Implemented as an expanding ring search over grid cells; each ring widens the
    /// search radius by one cell until the k-th best distance is guaranteed correct.
    pub fn k_nearest(&self, query: Point, k: usize) -> Vec<(u32, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let k = k.min(self.points.len());
        let qcx = (((query.x - self.bounds.min.x) / self.cell_size).floor() as isize)
            .clamp(0, self.cols as isize - 1) as usize;
        let qcy = (((query.y - self.bounds.min.y) / self.cell_size).floor() as isize)
            .clamp(0, self.rows as isize - 1) as usize;

        let mut best: Vec<(u32, f64)> = Vec::with_capacity(k + 1);
        let push = |idx: u32, d: f64, best: &mut Vec<(u32, f64)>| {
            let pos = best.partition_point(|&(_, bd)| bd <= d);
            best.insert(pos, (idx, d));
            if best.len() > k {
                best.pop();
            }
        };

        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            // Scan cells whose Chebyshev distance from the query cell equals `ring`.
            let x_lo = qcx.saturating_sub(ring);
            let x_hi = (qcx + ring).min(self.cols - 1);
            let y_lo = qcy.saturating_sub(ring);
            let y_hi = (qcy + ring).min(self.rows - 1);
            for cy in y_lo..=y_hi {
                for cx in x_lo..=x_hi {
                    let cheb = (cx as isize - qcx as isize)
                        .unsigned_abs()
                        .max((cy as isize - qcy as isize).unsigned_abs());
                    if cheb != ring {
                        continue;
                    }
                    for e in self.cell_range(cx, cy).clone() {
                        let idx = self.entries[e];
                        let d = self.points[idx as usize].distance(query);
                        if best.len() < k || d < best[best.len() - 1].1 {
                            push(idx, d, &mut best);
                        }
                    }
                }
            }
            // Stop once the k-th best distance cannot be beaten by points in cells
            // further than the current ring: every unscanned point is at least
            // `ring * cell_size` away from the query.
            if best.len() == k {
                let guaranteed = ring as f64 * self.cell_size;
                if best[k - 1].1 <= guaranteed {
                    break;
                }
            }
        }
        best
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
        assert_eq!(grid.count_in_circle(&circle), expected.len());
    }

    #[test]
    fn rect_query_matches_linear_scan() {
        let pts = sample_points();
        let grid = GridIndex::build(pts.clone(), 4).unwrap();
        let rect = Rect::new(Point::new(0.12, 0.33), Point::new(0.61, 0.74));
        let mut got = grid.query_rect(&rect);
        got.sort_unstable();
        let mut expected: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| rect.contains(**p))
            .map(|(i, _)| i as u32)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn knn_matches_linear_scan() {
        let pts = sample_points();
        let grid = GridIndex::build(pts.clone(), 8).unwrap();
        let query = Point::new(0.52, 0.48);
        let k = 7;
        let got = grid.k_nearest(query, k);
        assert_eq!(got.len(), k);
        let mut expected: Vec<(u32, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.distance(query)))
            .collect();
        expected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for i in 0..k {
            assert!(
                (got[i].1 - expected[i].1).abs() < 1e-12,
                "rank {i} distance mismatch"
            );
        }
        // Distances must be non-decreasing.
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn knn_with_k_larger_than_point_count() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let grid = GridIndex::build(pts, 4).unwrap();
        let got = grid.k_nearest(Point::new(0.1, 0.1), 10);
        assert_eq!(got.len(), 2);
        assert_eq!(grid.k_nearest(Point::new(0.1, 0.1), 0).len(), 0);
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
