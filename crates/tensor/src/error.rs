//! Error types for tensor operations.

use std::error::Error;
use std::fmt;

/// Error produced by fallible tensor operations.
///
/// Most tensor kernels in this crate panic on shape mismatch (they are hot
/// inner loops and a mismatch is a programming error), but the public
/// conversion and construction entry points validate their inputs and return
/// this type so callers can recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by a shape does not match the data
    /// length supplied by the caller.
    LengthMismatch {
        /// Number of elements implied by the requested shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two shapes that were required to be compatible are not.
    ShapeMismatch {
        /// Human-readable description of the left operand's shape.
        left: String,
        /// Human-readable description of the right operand's shape.
        right: String,
        /// The operation that failed.
        op: &'static str,
    },
    /// An axis argument was out of range for the tensor's rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
    /// A shape with a zero-sized dimension was supplied where a non-empty
    /// tensor is required.
    EmptyShape,
    /// An operand had the wrong rank for the requested operation.
    RankMismatch {
        /// The operation that failed.
        op: &'static str,
        /// The rank the operation requires.
        expected: usize,
        /// The rank the operand actually had.
        got: usize,
    },
    /// The product of a shape's dimensions overflows `usize`.
    VolumeOverflow {
        /// The offending dimensions.
        dims: Vec<usize>,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape volume {expected}"
                )
            }
            TensorError::ShapeMismatch { left, right, op } => {
                write!(f, "incompatible shapes {left} and {right} for {op}")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::EmptyShape => write!(f, "shape must have a positive volume"),
            TensorError::RankMismatch { op, expected, got } => {
                write!(f, "{op} requires a rank-{expected} operand, got rank {got}")
            }
            TensorError::VolumeOverflow { dims } => {
                write!(f, "shape {dims:?} has a volume that overflows usize")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3,
            },
            TensorError::ShapeMismatch {
                left: "[2, 3]".into(),
                right: "[4]".into(),
                op: "add",
            },
            TensorError::AxisOutOfRange { axis: 5, rank: 2 },
            TensorError::EmptyShape,
            TensorError::RankMismatch {
                op: "matmul()",
                expected: 2,
                got: 3,
            },
            TensorError::VolumeOverflow {
                dims: vec![1 << 31; 3],
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
