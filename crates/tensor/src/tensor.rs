use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Elements per tile of the lane-major stack and unstack loops.
const LANE_TILE: usize = 64;

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// `Tensor` is the common currency of the workspace: images are `[C, H, W]`
/// tensors, batches are `[N, C, H, W]`, feature matrices produced by XAI
/// techniques are `[H, W]`, and fully-connected activations are `[N, D]`.
///
/// # Example
///
/// ```
/// use remix_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        if data.len() != shape.iter().product::<usize>() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                len: data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the flat offset of a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `index` has the wrong rank
    /// or any coordinate exceeds its axis length.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() || index.iter().zip(&self.shape).any(|(i, s)| i >= s) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            });
        }
        let mut off = 0;
        for (i, s) in index.iter().zip(&self.shape) {
            off = off * s + i;
        }
        Ok(off)
    }

    /// Reads the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds; use [`Tensor::offset`] for a
    /// checked variant.
    pub fn at(&self, index: &[usize]) -> f32 {
        let off = self.offset(index).expect("index in bounds");
        self.data[off]
    }

    /// Writes the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index).expect("index in bounds");
        self.data[off] = value;
    }

    /// Reinterprets the tensor with a new shape holding the same data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        if self.data.len() != shape.iter().product::<usize>() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                len: self.data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Flattens to a rank-1 tensor.
    pub fn flatten(&self) -> Self {
        Self {
            shape: vec![self.data.len()],
            data: self.data.clone(),
        }
    }

    /// Extracts the `i`-th slice along axis 0 (e.g. one image out of a batch).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `i` exceeds the first axis,
    /// or [`TensorError::EmptyTensor`] for rank-0 tensors.
    pub fn index_axis0(&self, i: usize) -> Result<Self> {
        if self.shape.is_empty() {
            return Err(TensorError::EmptyTensor { op: "index_axis0" });
        }
        if i >= self.shape[0] {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: self.shape.clone(),
            });
        }
        let inner: usize = self.shape[1..].iter().product();
        let data = self.data[i * inner..(i + 1) * inner].to_vec();
        Ok(Self {
            shape: self.shape[1..].to_vec(),
            data,
        })
    }

    /// Stacks rank-`k` tensors of identical shape into a rank-`k+1` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] when `items` is empty and
    /// [`TensorError::ShapeMismatch`] when the shapes disagree.
    pub fn stack(items: &[Tensor]) -> Result<Self> {
        let first = items
            .first()
            .ok_or(TensorError::EmptyTensor { op: "stack" })?;
        let mut data = Vec::with_capacity(items.len() * first.len());
        for item in items {
            if item.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    left: first.shape.clone(),
                    right: item.shape.clone(),
                    op: "stack",
                });
            }
            data.extend_from_slice(&item.data);
        }
        let mut shape = vec![items.len()];
        shape.extend_from_slice(&first.shape);
        Ok(Self { shape, data })
    }

    /// Reinterprets the tensor with a new shape, taking its data without a
    /// copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts differ.
    pub fn into_shape(self, shape: &[usize]) -> Result<Self> {
        Tensor::from_vec(self.data, shape)
    }

    /// Stacks same-shape tensors along a new *last* axis: `B` tensors of
    /// shape `s` become one lane-major `s ++ [B]` tensor whose element
    /// `(i, b)` is element `i` of `items[b]`, so the `B` copies of every
    /// element sit next to each other. This is the batch layout of the
    /// inference passes in `remix-nn`; [`Tensor::unstack_lanes`] inverts it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] when `items` is empty and
    /// [`TensorError::ShapeMismatch`] when the shapes disagree.
    pub fn stack_lanes(items: &[Tensor]) -> Result<Self> {
        let first = items
            .first()
            .ok_or(TensorError::EmptyTensor { op: "stack_lanes" })?;
        if let Some(item) = items.iter().find(|t| t.shape != first.shape) {
            return Err(TensorError::ShapeMismatch {
                left: first.shape.clone(),
                right: item.shape.clone(),
                op: "stack_lanes",
            });
        }
        let lanes = items.len();
        let mut data = vec![0.0; first.len() * lanes];
        // Tiles of LANE_TILE elements keep every sample's stride-`B` pass
        // within a few cache lines.
        for i0 in (0..first.len()).step_by(LANE_TILE) {
            let i1 = (i0 + LANE_TILE).min(first.len());
            for (b, item) in items.iter().enumerate() {
                for (i, &v) in (i0..i1).zip(&item.data[i0..i1]) {
                    data[i * lanes + b] = v;
                }
            }
        }
        let mut shape = first.shape.clone();
        shape.push(lanes);
        Ok(Self { shape, data })
    }

    /// Splits a lane-major tensor along its last axis: shape `s ++ [B]`
    /// becomes `B` tensors of shape `s`, the inverse of
    /// [`Tensor::stack_lanes`].
    ///
    /// # Panics
    ///
    /// Panics on a rank-0 tensor.
    pub fn unstack_lanes(&self) -> Vec<Tensor> {
        let (&lanes, sample) = self.shape.split_last().expect("a lane axis");
        let len = sample.iter().product::<usize>();
        let mut out: Vec<Vec<f32>> = (0..lanes).map(|_| vec![0.0; len]).collect();
        for i0 in (0..len).step_by(LANE_TILE) {
            let i1 = (i0 + LANE_TILE).min(len);
            for (b, o) in out.iter_mut().enumerate() {
                for (i, v) in (i0..i1).zip(&mut o[i0..i1]) {
                    *v = self.data[i * lanes + b];
                }
            }
        }
        out.into_iter()
            .map(|data| Self {
                shape: sample.to_vec(),
                data,
            })
            .collect()
    }

    /// A copy of the tensor as a one-lane batch: its shape plus a lane axis
    /// of 1. The data keeps its layout — this is what
    /// [`Tensor::stack_lanes`] makes of a single item.
    pub fn one_lane(&self) -> Self {
        let mut shape = self.shape.clone();
        shape.push(1);
        Self {
            shape,
            data: self.data.clone(),
        }
    }

    /// The item of a one-lane batch, its shape without the lane axis,
    /// taking the data without a copy; the inverse of [`Tensor::one_lane`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless the last axis has
    /// length 1.
    pub fn only_lane(mut self) -> Result<Self> {
        if self.shape.last() != Some(&1) {
            return Err(TensorError::ShapeMismatch {
                left: self.shape,
                right: vec![1],
                op: "only_lane",
            });
        }
        self.shape.pop();
        Ok(self)
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor(shape={:?}, data=[", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", … {} more", self.data.len() - PREVIEW)?;
        }
        write!(f, "])")
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeDataMismatch { .. }));
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 0.0);
        assert_eq!(t.data().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn multi_index_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.at(&[1, 2, 3]), 7.5);
        assert_eq!(t.offset(&[1, 2, 3]).unwrap(), 23);
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.offset(&[2, 0]).is_err());
        assert!(t.offset(&[0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn index_axis0_extracts_rows() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let row = t.index_axis0(1).unwrap();
        assert_eq!(row.shape(), &[3]);
        assert_eq!(row.data(), &[3.0, 4.0, 5.0]);
        assert!(t.index_axis0(2).is_err());
    }

    #[test]
    fn stack_builds_batch() {
        let a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.index_axis0(1).unwrap().data(), &[2.0; 4]);
    }

    #[test]
    fn stack_rejects_mismatched_shapes() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[3]);
        assert!(Tensor::stack(&[a, b]).is_err());
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn stack_lanes_interleaves_and_unstacks() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let lanes = Tensor::stack_lanes(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(lanes.shape(), &[2, 2, 2]);
        assert_eq!(lanes.data(), &[1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 4.0, 8.0]);
        assert_eq!(lanes.unstack_lanes(), vec![a.clone(), b]);
        assert!(Tensor::stack_lanes(&[a, Tensor::zeros(&[4])]).is_err());
        assert!(Tensor::stack_lanes(&[]).is_err());
        let item = Tensor::from_slice(&[1.0, 2.0]);
        let single = Tensor::stack_lanes(std::slice::from_ref(&item)).unwrap();
        assert_eq!(single.shape(), &[2, 1]);
        assert_eq!(item.one_lane(), single);
        assert_eq!(single.only_lane().unwrap(), item);
        assert!(lanes.only_lane().is_err());
    }

    #[test]
    fn has_non_finite_detects_nan() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn debug_is_nonempty_and_truncated() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("more"));
        assert!(!s.is_empty());
    }
}
