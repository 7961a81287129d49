//! Community result type and errors shared by all SAC search algorithms.

use sac_geom::{minimum_enclosing_circle, Circle};
use sac_graph::{SpatialGraph, VertexId};
use std::error::Error;
use std::fmt;

/// A community returned by a SAC search algorithm or a baseline.
///
/// Holds the member vertices (sorted by id) together with the minimum covering
/// circle (MCC) of their locations.  The MCC radius is the paper's spatial
/// cohesiveness objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Community {
    /// Member vertices, sorted by id.
    pub vertices: Vec<VertexId>,
    /// Minimum covering circle of the members' locations.
    pub mcc: Circle,
}

impl Community {
    /// Builds a community from a member list, computing the MCC of their locations.
    ///
    /// # Panics
    ///
    /// Panics when `vertices` is empty — algorithms signal "no community" with
    /// `Option::None` instead of an empty member list.
    pub fn new(graph: &SpatialGraph, mut vertices: Vec<VertexId>) -> Self {
        assert!(!vertices.is_empty(), "a community has at least one member");
        vertices.sort_unstable();
        vertices.dedup();
        let positions = graph.positions_of(&vertices);
        let mcc =
            minimum_enclosing_circle(&positions).expect("non-empty community always has an MCC");
        Community { vertices, mcc }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` when the community has no members (never produced by the
    /// algorithms; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Radius of the community's MCC.
    pub fn radius(&self) -> f64 {
        self.mcc.radius
    }

    /// Membership test (binary search over the sorted member list).
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// The members as a sorted slice.
    pub fn members(&self) -> &[VertexId] {
        &self.vertices
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Community({} members, mcc radius {:.6})",
            self.vertices.len(),
            self.mcc.radius
        )
    }
}

/// Errors reported by SAC search algorithms and the query-serving layers.
#[derive(Debug, Clone, PartialEq)]
pub enum SacError {
    /// The query vertex id is not a vertex of the graph.
    QueryVertexOutOfRange(VertexId),
    /// An algorithm parameter is outside its documented range
    /// (e.g. `εA` outside `(0, 1)` for `AppAcc`).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        message: String,
    },
    /// The requested worst-case approximation ratio is not a finite number
    /// `>= 1` (a ratio below 1 would demand a community smaller than the
    /// optimum).
    InvalidRatio(f64),
    /// The requested θ radius constraint is not a finite number `> 0`.
    InvalidTheta(f64),
    /// A latency/accuracy budget could not be understood (e.g. an unknown
    /// latency-tier name on the wire).
    InvalidBudget(String),
    /// No [`Algorithm`](crate::Algorithm) has the requested name.
    UnknownAlgorithm(String),
}

impl fmt::Display for SacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SacError::QueryVertexOutOfRange(v) => {
                write!(f, "query vertex {v} is out of range")
            }
            SacError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            SacError::InvalidRatio(r) => {
                write!(
                    f,
                    "invalid budget: max_ratio must be a finite number >= 1, got {r}"
                )
            }
            SacError::InvalidTheta(t) => {
                write!(
                    f,
                    "invalid budget: theta must be a finite number > 0, got {t}"
                )
            }
            SacError::InvalidBudget(message) => write!(f, "invalid budget: {message}"),
            SacError::UnknownAlgorithm(name) => {
                write!(f, "algorithm '{name}' is not registered")
            }
        }
    }
}

impl Error for SacError {}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_geom::Point;
    use sac_graph::GraphBuilder;

    fn tiny_graph() -> SpatialGraph {
        let g = GraphBuilder::from_edges([(0, 1), (1, 2), (0, 2)]);
        SpatialGraph::new(
            g,
            vec![
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(1.0, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn community_computes_mcc_and_sorts_members() {
        let sg = tiny_graph();
        let c = Community::new(&sg, vec![2, 0, 1, 1]);
        assert_eq!(c.members(), &[0, 1, 2]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!((c.radius() - 1.0).abs() < 1e-9);
        assert!(c.contains(1));
        assert!(!c.contains(5));
        assert!(c.to_string().contains("3 members"));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_community_panics() {
        let sg = tiny_graph();
        let _ = Community::new(&sg, vec![]);
    }

    #[test]
    fn error_display() {
        assert!(SacError::QueryVertexOutOfRange(9).to_string().contains('9'));
        let e = SacError::InvalidParameter {
            name: "eps_a",
            message: "must be in (0,1)".into(),
        };
        assert!(e.to_string().contains("eps_a"));
    }
}
