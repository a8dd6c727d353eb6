//! Error type for placement construction.

use std::fmt;

/// Errors produced by the placement algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// `processors` was zero.
    ZeroProcessors,
    /// More processors than threads: every thread-balanced placement
    /// would leave a processor empty.
    TooManyProcessors {
        /// Threads available.
        threads: usize,
        /// Processors requested.
        processors: usize,
    },
    /// The coherence-traffic algorithm was run without a traffic matrix.
    MissingTraffic,
    /// A supplied input had the wrong dimension.
    DimensionMismatch {
        /// What was mismatched.
        what: &'static str,
        /// Expected dimension (the thread count).
        expected: usize,
        /// Dimension found.
        found: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::ZeroProcessors => {
                write!(f, "placement requires at least one processor")
            }
            PlacementError::TooManyProcessors {
                threads,
                processors,
            } => write!(
                f,
                "cannot thread-balance {threads} threads over {processors} processors"
            ),
            PlacementError::MissingTraffic => {
                write!(
                    f,
                    "coherence-traffic placement requires a measured traffic matrix"
                )
            }
            PlacementError::DimensionMismatch {
                what,
                expected,
                found,
            } => {
                write!(f, "{what} has dimension {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(PlacementError::ZeroProcessors
            .to_string()
            .contains("one processor"));
        let e = PlacementError::TooManyProcessors {
            threads: 2,
            processors: 4,
        };
        assert!(e.to_string().contains("2 threads"));
        let e = PlacementError::DimensionMismatch {
            what: "lengths",
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains("lengths"));
    }
}
