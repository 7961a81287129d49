//! # sac-geom
//!
//! Computational-geometry substrate for spatial-aware community (SAC) search.
//!
//! The SAC search problem (Fang et al., *Effective Community Search over Large
//! Spatial Graphs*, VLDB 2017) measures the spatial cohesiveness of a community by
//! the radius of its **minimum covering circle** (MCC).  Every SAC algorithm in the
//! companion `sac-core` crate therefore needs fast and robust primitives for:
//!
//! * points and Euclidean distances ([`Point`]),
//! * circles, circles through two/three points, and the MCC of a point triple
//!   ([`Circle`]),
//! * the minimum enclosing circle of an arbitrary point set in expected linear time
//!   (Welzl's algorithm, [`minimum_enclosing_circle`]),
//! * axis-aligned rectangles and the region-quadtree cells used by the `AppAcc`
//!   anchor-point search ([`Rect`], [`AnchorCell`]),
//! * the circle–circle intersection area used by the *community area overlap* (CAO)
//!   metric ([`Circle::intersection_area`]).
//!
//! The crate has no external dependencies; all algorithms are implemented from
//! scratch and validated by unit and property-based tests.
//!
//! ## Example
//!
//! ```
//! use sac_geom::{Point, minimum_enclosing_circle};
//!
//! let pts = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(2.0, 0.0),
//!     Point::new(1.0, 1.0),
//! ];
//! let mcc = minimum_enclosing_circle(&pts).unwrap();
//! assert!((mcc.radius - 1.0).abs() < 1e-9);
//! assert!(pts.iter().all(|p| mcc.contains(*p)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod circle;
mod error;
mod mec;
mod point;
mod rect;

pub use cell::AnchorCell;
pub use circle::Circle;
pub use error::GeomError;
pub use mec::{minimum_enclosing_circle, minimum_enclosing_circle_naive};
pub use point::Point;
pub use rect::Rect;

/// Absolute tolerance used by geometric predicates throughout the crate.
///
/// Coordinates in SAC search workloads are normalised to the unit square, so a
/// fixed absolute epsilon is adequate; the tolerance is also applied relative to
/// circle radii in [`Circle::contains`] to stay robust on larger extents.
pub const EPS: f64 = 1e-9;
