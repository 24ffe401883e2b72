//! Error type shared by all `qbp-core` constructors and validators.

use crate::{ComponentId, PartitionId, Size};
use std::fmt;

/// Errors returned by problem-construction and validation APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A component id referenced a component that does not exist.
    ComponentOutOfRange {
        /// The offending id.
        id: ComponentId,
        /// Number of components in the circuit.
        len: usize,
    },
    /// A partition id referenced a partition that does not exist.
    PartitionOutOfRange {
        /// The offending id.
        id: PartitionId,
        /// Number of partitions in the topology.
        len: usize,
    },
    /// A connection or timing constraint from a component to itself.
    SelfLoop(ComponentId),
    /// Two parts of the problem disagree on dimensions
    /// (e.g. a `P` matrix that is not `M × N`).
    DimensionMismatch {
        /// What was being validated.
        what: &'static str,
        /// Expected dimension.
        expected: (usize, usize),
        /// Found dimension.
        found: (usize, usize),
    },
    /// The partition topology is malformed (non-square matrices, negative
    /// costs, zero partitions, ...).
    InvalidTopology(String),
    /// The problem cannot have any feasible solution: total component size
    /// exceeds total capacity.
    CapacityImpossible {
        /// Sum of all component sizes.
        total_size: Size,
        /// Sum of all partition capacities.
        total_capacity: Size,
    },
    /// An assignment vector had the wrong length for the circuit.
    AssignmentLengthMismatch {
        /// Expected number of components.
        expected: usize,
        /// Found vector length.
        found: usize,
    },
    /// A weight, delay or scale factor was negative where a non-negative
    /// value is required (the QBP linearization assumes `Q̂ ≥ 0`).
    NegativeValue {
        /// What was being validated.
        what: &'static str,
        /// The offending value.
        value: i64,
    },
    /// A circuit with zero components was used where at least one is needed.
    EmptyCircuit,
    /// A component name did not resolve to any component (fluent
    /// [`ProblemBuilder`](crate::ProblemBuilder) construction, ECO edit
    /// scripts).
    UnknownComponentName(String),
    /// A solver that requires a feasible starting assignment (GFM, GKL) was
    /// given one that violates constraints.
    InfeasibleStart {
        /// Number of capacity violations in the start.
        capacity_violations: usize,
        /// Number of timing violations in the start.
        timing_violations: usize,
    },
    /// The flattened adjacency has more merged pair records than the compact
    /// u32-indexed CSR layout can address. Raised by the checked
    /// [`QBody`](crate::QBody) build path instead of silently truncating
    /// offsets past the ceiling.
    IndexOverflow {
        /// What ran out of index space.
        what: &'static str,
        /// Records required.
        records: u64,
        /// Largest record count the layout can address.
        cap: u64,
    },
    /// A solver run (a multistart run or an ECO refresh solve) panicked and
    /// was caught at an isolation boundary
    /// ([`exec::catch_panic`](crate::exec::catch_panic)). The message is the
    /// panic payload; sibling runs' results survive.
    Internal {
        /// The captured panic message.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ComponentOutOfRange { id, len } => {
                write!(f, "component {id} out of range for circuit with {len} components")
            }
            Error::PartitionOutOfRange { id, len } => {
                write!(f, "partition {id} out of range for topology with {len} partitions")
            }
            Error::SelfLoop(id) => {
                write!(f, "self-connection on component {id} is not allowed")
            }
            Error::DimensionMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "{what} has dimensions {}x{}, expected {}x{}",
                found.0, found.1, expected.0, expected.1
            ),
            Error::InvalidTopology(msg) => write!(f, "invalid partition topology: {msg}"),
            Error::CapacityImpossible {
                total_size,
                total_capacity,
            } => write!(
                f,
                "total component size {total_size} exceeds total capacity {total_capacity}"
            ),
            Error::AssignmentLengthMismatch { expected, found } => write!(
                f,
                "assignment has {found} entries, expected {expected}"
            ),
            Error::NegativeValue { what, value } => {
                write!(f, "{what} must be non-negative, got {value}")
            }
            Error::EmptyCircuit => write!(f, "circuit has no components"),
            Error::UnknownComponentName(name) => {
                write!(f, "unknown component name `{name}`")
            }
            Error::InfeasibleStart {
                capacity_violations,
                timing_violations,
            } => write!(
                f,
                "initial assignment is infeasible ({capacity_violations} capacity, {timing_violations} timing violations)"
            ),
            Error::IndexOverflow { what, records, cap } => write!(
                f,
                "{what} needs {records} records, exceeding the compact index ceiling of {cap}"
            ),
            Error::Internal { message } => {
                write!(f, "internal error: worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// The unified error of the `qbp` crates: everything that can go wrong
/// between reading a problem description and validating a model, as one
/// typed enum so callers (notably the CLI) can branch on the failure *kind*
/// instead of string-matching messages.
///
/// Construction sites stay precise — model validation keeps returning
/// [`Error`], the text parser [`crate::io::ParseError`] — and the `From`
/// impls lift both into `QbpError` at API boundaries, along with I/O
/// failures (captured as path + message so the error stays `Clone` and
/// comparable).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QbpError {
    /// Semantic model validation failed (invalid circuit, capacity
    /// overflow, unknown component/partition, ...).
    Model(Error),
    /// A `.qbp` text description failed to parse.
    Parse(crate::io::ParseError),
    /// Reading or writing a file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// The invocation itself was malformed (bad flag, missing argument,
    /// unknown method or script directive).
    Usage(String),
    /// A defect inside the solver itself: a worker panic caught at an
    /// isolation boundary. Maps to exit code 70 (`EX_SOFTWARE`) in the CLI.
    Internal(String),
}

impl QbpError {
    /// Wraps an [`std::io::Error`] with the path it occurred on.
    pub fn io(path: impl Into<String>, err: &std::io::Error) -> Self {
        QbpError::Io {
            path: path.into(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for QbpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QbpError::Model(e) => write!(f, "{e}"),
            QbpError::Parse(e) => write!(f, "{e}"),
            QbpError::Io { path, message } => write!(f, "{path}: {message}"),
            QbpError::Usage(msg) => write!(f, "{msg}"),
            QbpError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for QbpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QbpError::Model(e) => Some(e),
            QbpError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Error> for QbpError {
    fn from(e: Error) -> Self {
        match e {
            Error::Internal { message } => QbpError::Internal(message),
            other => QbpError::Model(other),
        }
    }
}

impl From<crate::io::ParseError> for QbpError {
    fn from(e: crate::io::ParseError) -> Self {
        QbpError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors = vec![
            Error::ComponentOutOfRange {
                id: ComponentId::new(5),
                len: 3,
            },
            Error::PartitionOutOfRange {
                id: PartitionId::new(9),
                len: 4,
            },
            Error::SelfLoop(ComponentId::new(1)),
            Error::DimensionMismatch {
                what: "linear cost matrix P",
                expected: (4, 3),
                found: (3, 4),
            },
            Error::InvalidTopology("empty".into()),
            Error::CapacityImpossible {
                total_size: 10,
                total_capacity: 5,
            },
            Error::AssignmentLengthMismatch {
                expected: 3,
                found: 2,
            },
            Error::NegativeValue {
                what: "alpha",
                value: -1,
            },
            Error::EmptyCircuit,
            Error::UnknownComponentName("ghost".into()),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with(|c: char| c.is_ascii_digit()));
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<Error>();
        assert_bounds::<QbpError>();
    }

    #[test]
    fn qbp_error_lifts_and_displays() {
        let model: QbpError = Error::EmptyCircuit.into();
        assert!(matches!(model, QbpError::Model(Error::EmptyCircuit)));
        assert_eq!(model.to_string(), Error::EmptyCircuit.to_string());
        let parse: QbpError = crate::io::ParseError::BadHeader { line: 1 }.into();
        assert!(matches!(parse, QbpError::Parse(_)));
        let io = QbpError::io(
            "missing.qbp",
            &std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"),
        );
        assert!(io.to_string().starts_with("missing.qbp: "));
        let usage = QbpError::Usage("unknown method `frobnicate`".into());
        assert!(usage.to_string().contains("frobnicate"));
        use std::error::Error as _;
        assert!(model.source().is_some());
        assert!(io.source().is_none());
    }
}
