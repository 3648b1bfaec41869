use std::fmt;

/// Error type for all fallible tensor operations.
///
/// Variants carry the offending shapes/indices so that failures deep inside a
/// training loop remain diagnosable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by a shape does not match the data length.
    ShapeDataMismatch {
        /// Requested shape.
        shape: Vec<usize>,
        /// Actual number of elements provided.
        len: usize,
    },
    /// Two tensors that must agree in shape do not.
    ShapeMismatch {
        /// Shape of the left operand.
        left: Vec<usize>,
        /// Shape of the right operand.
        right: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// An axis argument is out of range for the tensor's rank.
    AxisOutOfRange {
        /// Requested axis.
        axis: usize,
        /// Rank of the tensor.
        rank: usize,
    },
    /// The tensor does not have the rank required by the operation.
    RankMismatch {
        /// Expected rank.
        expected: usize,
        /// Actual shape.
        shape: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// Inner dimensions of a matrix product disagree.
    MatmulDimMismatch {
        /// Left operand shape.
        left: Vec<usize>,
        /// Right operand shape.
        right: Vec<usize>,
    },
    /// An index is out of bounds.
    IndexOutOfBounds {
        /// Offending multi-index.
        index: Vec<usize>,
        /// Tensor shape.
        shape: Vec<usize>,
    },
    /// Operation requires a non-empty tensor.
    EmptyTensor {
        /// Name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { shape, len } => write!(
                f,
                "shape {shape:?} implies {} elements but {len} were provided",
                shape.iter().product::<usize>()
            ),
            TensorError::ShapeMismatch { left, right, op } => {
                write!(f, "shape mismatch in `{op}`: {left:?} vs {right:?}")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank-{rank} tensor")
            }
            TensorError::RankMismatch {
                expected,
                shape,
                op,
            } => {
                write!(
                    f,
                    "`{op}` expects a rank-{expected} tensor, got shape {shape:?}"
                )
            }
            TensorError::MatmulDimMismatch { left, right } => {
                write!(f, "matmul inner dimensions disagree: {left:?} x {right:?}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::EmptyTensor { op } => write!(f, "`{op}` requires a non-empty tensor"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TensorError::ShapeMismatch {
            left: vec![2, 3],
            right: vec![3, 2],
            op: "add",
        };
        let msg = err.to_string();
        assert!(msg.contains("add"));
        assert!(msg.contains("[2, 3]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
