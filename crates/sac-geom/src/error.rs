//! Error types for geometric computations.

use std::error::Error;
use std::fmt;

/// Errors produced by the geometry substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeomError {
    /// An operation that requires at least one point received an empty set.
    EmptyPointSet,
    /// The input was numerically degenerate (e.g. collinear points where a proper
    /// circumcircle was required).
    Degenerate,
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::EmptyPointSet => write!(f, "operation requires a non-empty point set"),
            GeomError::Degenerate => write!(f, "degenerate geometric configuration"),
        }
    }
}

impl Error for GeomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(GeomError::EmptyPointSet.to_string().contains("non-empty"));
        assert!(GeomError::Degenerate.to_string().contains("degenerate"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: Error>(_: E) {}
        assert_error(GeomError::Degenerate);
    }
}
