//! Common error type used across the TCUDB workspace.

use std::fmt;

/// Convenience alias for `Result<T, TcuError>`.
pub type TcuResult<T> = Result<T, TcuError>;

/// Errors that can be produced by any layer of the TCUDB stack.
#[derive(Debug, Clone, PartialEq)]
pub enum TcuError {
    /// A SQL string could not be tokenized or parsed.
    Parse(String),
    /// A query referenced a table or column that does not exist, or used
    /// types in an unsupported way.
    Analysis(String),
    /// The query planner / optimizer could not produce a plan.
    Plan(String),
    /// A runtime failure while executing a physical plan.
    Execution(String),
    /// The requested precision cannot represent the input data without
    /// overflow (feasibility test failure, §4.2.1 of the paper).
    PrecisionOverflow(String),
    /// A matrix / tensor operation was invoked with incompatible shapes.
    ShapeMismatch {
        /// The shape the operation required, rendered as text.
        expected: String,
        /// The shape it was given.
        got: String,
    },
    /// The simulated device ran out of device memory and no blocked plan
    /// was available.
    DeviceMemoryExceeded {
        /// Bytes the plan needed resident on the device.
        required: usize,
        /// Bytes the device actually has.
        available: usize,
    },
    /// A permanent I/O failure, on a storage file or a socket, that the
    /// caller should not retry (corruption, a missing file, a closed
    /// connection).
    Io(String),
    /// A storage-layer I/O failure the caller may retry: the medium is
    /// expected to recover (interrupted syscall, transient backend
    /// outage).  Permanent damage — corruption, missing files — stays
    /// [`TcuError::Io`].
    IoTransient(String),
    /// The query was cancelled by its session or the server before it
    /// finished.  Execution unwound cleanly at a cancellation checkpoint;
    /// no partial result escaped.
    Cancelled(String),
    /// The query ran past its deadline and was abandoned at a
    /// cancellation checkpoint.
    DeadlineExceeded(String),
    /// The server refused to enqueue the query: the queue was at its
    /// depth bound or the head had waited past the shed threshold.
    /// Back off and retry; nothing was executed.
    Overloaded(String),
    /// Catch-all for invalid arguments to public APIs.
    InvalidArgument(String),
}

impl TcuError {
    /// True for failures worth retrying with backoff: transient storage
    /// faults and server overload rejections.  Cancellation, deadlines,
    /// corruption and semantic errors are permanent for the attempt.
    pub fn is_transient(&self) -> bool {
        matches!(self, TcuError::IoTransient(_) | TcuError::Overloaded(_))
    }
}

impl fmt::Display for TcuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcuError::Parse(msg) => write!(f, "parse error: {msg}"),
            TcuError::Analysis(msg) => write!(f, "analysis error: {msg}"),
            TcuError::Plan(msg) => write!(f, "planning error: {msg}"),
            TcuError::Execution(msg) => write!(f, "execution error: {msg}"),
            TcuError::PrecisionOverflow(msg) => write!(f, "precision overflow: {msg}"),
            TcuError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            TcuError::DeviceMemoryExceeded {
                required,
                available,
            } => write!(
                f,
                "device memory exceeded: required {required} bytes, available {available} bytes"
            ),
            TcuError::Io(msg) => write!(f, "io error: {msg}"),
            TcuError::IoTransient(msg) => write!(f, "transient io error: {msg}"),
            TcuError::Cancelled(msg) => write!(f, "cancelled: {msg}"),
            TcuError::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
            TcuError::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            TcuError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TcuError {}

impl From<std::io::Error> for TcuError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            // The kinds the OS hands back for "try again", not damage.
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                TcuError::IoTransient(e.to_string())
            }
            _ => TcuError::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_each_variant() {
        let cases: Vec<(TcuError, &str)> = vec![
            (TcuError::Parse("bad token".into()), "parse error"),
            (TcuError::Analysis("no table".into()), "analysis error"),
            (TcuError::Plan("no plan".into()), "planning error"),
            (TcuError::Execution("boom".into()), "execution error"),
            (
                TcuError::PrecisionOverflow("too big".into()),
                "precision overflow",
            ),
            (
                TcuError::ShapeMismatch {
                    expected: "2x2".into(),
                    got: "3x3".into(),
                },
                "shape mismatch",
            ),
            (
                TcuError::DeviceMemoryExceeded {
                    required: 10,
                    available: 5,
                },
                "device memory exceeded",
            ),
            (TcuError::Io("disk".into()), "io error"),
            (TcuError::IoTransient("blip".into()), "transient io error"),
            (TcuError::Cancelled("by session".into()), "cancelled"),
            (
                TcuError::DeadlineExceeded("10ms".into()),
                "deadline exceeded",
            ),
            (TcuError::Overloaded("queue full".into()), "overloaded"),
            (TcuError::InvalidArgument("nope".into()), "invalid argument"),
        ];
        for (err, prefix) in cases {
            assert!(
                err.to_string().starts_with(prefix),
                "{err} should start with {prefix}"
            );
        }
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: TcuError = io.into();
        assert!(matches!(err, TcuError::Io(_)));
        assert!(!err.is_transient());
    }

    #[test]
    fn retryable_io_kinds_convert_to_transient() {
        for kind in [
            std::io::ErrorKind::Interrupted,
            std::io::ErrorKind::WouldBlock,
            std::io::ErrorKind::TimedOut,
        ] {
            let err: TcuError = std::io::Error::new(kind, "blip").into();
            assert!(matches!(err, TcuError::IoTransient(_)), "{kind:?}");
            assert!(err.is_transient());
        }
    }

    #[test]
    fn transient_taxonomy_is_exactly_io_and_overload() {
        assert!(TcuError::IoTransient("x".into()).is_transient());
        assert!(TcuError::Overloaded("x".into()).is_transient());
        assert!(!TcuError::Cancelled("x".into()).is_transient());
        assert!(!TcuError::DeadlineExceeded("x".into()).is_transient());
        assert!(!TcuError::Io("x".into()).is_transient());
        assert!(!TcuError::Execution("x".into()).is_transient());
    }
}
