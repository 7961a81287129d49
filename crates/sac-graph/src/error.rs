//! Error types for the graph substrate.

use crate::VertexId;
use std::error::Error;
use std::fmt;
use std::io;

/// Errors produced when constructing or loading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// The number of vertex positions does not match the number of vertices.
    PositionCountMismatch {
        /// Number of vertices in the graph.
        vertices: usize,
        /// Number of positions supplied.
        positions: usize,
    },
    /// A vertex position is NaN or infinite.
    InvalidPosition(VertexId),
    /// A vertex id is outside the graph's vertex range.
    VertexOutOfRange(VertexId),
    /// The graph has no vertices where at least one is required.
    EmptyGraph,
    /// A line of an input file could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An underlying I/O failure.
    Io(io::Error),
    /// Externally supplied CSR arrays violate a structural invariant
    /// (see [`crate::Graph::try_from_csr`]).
    InvalidCsr(&'static str),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::PositionCountMismatch {
                vertices,
                positions,
            } => write!(
                f,
                "graph has {vertices} vertices but {positions} positions were supplied"
            ),
            GraphError::InvalidPosition(v) => {
                write!(f, "vertex {v} has a non-finite position")
            }
            GraphError::VertexOutOfRange(v) => write!(f, "vertex {v} is out of range"),
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "I/O error: {e}"),
            GraphError::InvalidCsr(detail) => write!(f, "invalid CSR arrays: {detail}"),
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::PositionCountMismatch {
            vertices: 3,
            positions: 2,
        };
        assert!(e.to_string().contains("3 vertices"));
        assert!(GraphError::InvalidPosition(7).to_string().contains('7'));
        assert!(GraphError::VertexOutOfRange(9).to_string().contains('9'));
        assert!(GraphError::EmptyGraph.to_string().contains("non-empty"));
        let p = GraphError::Parse {
            line: 12,
            message: "bad token".into(),
        };
        assert!(p.to_string().contains("line 12"));
        let io_err = GraphError::from(io::Error::new(io::ErrorKind::NotFound, "missing"));
        assert!(io_err.to_string().contains("missing"));
    }

    #[test]
    fn io_error_has_source() {
        let io_err = GraphError::from(io::Error::other("boom"));
        assert!(io_err.source().is_some());
        assert!(GraphError::EmptyGraph.source().is_none());
    }
}
