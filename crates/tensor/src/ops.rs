//! Elementwise and scalar arithmetic on tensors.

use crate::{simd_kernel, Result, Tensor, TensorError};

simd_kernel! {
    /// `a += b`, element by element: the residual sum of the lane-major
    /// sweeps.
    fn add_into(a: &mut [f32], b: &[f32]) {
        for (a, &b) in a.iter_mut().zip(b) {
            *a += b;
        }
    }
}

impl Tensor {
    fn zip_with(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op,
            });
        }
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.shape())
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Elementwise difference (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// Elementwise division.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "div", |a, b| a / b)
    }

    /// In-place elementwise accumulation (`self += other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op: "add_assign",
            });
        }
        add_into(self.data_mut(), other.data());
        Ok(())
    }

    /// In-place fused multiply-add (`self += alpha * other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op: "axpy",
            });
        }
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|&v| f(v)).collect();
        Tensor::from_vec(data, self.shape()).expect("same shape")
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Dot product of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless the shapes match
    /// exactly. The old behavior — accepting any shapes of equal length —
    /// silently dotted a `[2, 3]` against a `[3, 2]` elementwise, which is
    /// almost never the intended product; callers that deliberately flatten
    /// (the paper's "flatten A and B" cosine-distance recipe) should use
    /// [`Tensor::dot_flat`].
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op: "dot",
            });
        }
        Ok(self.dot_flat_unchecked(other))
    }

    /// Dot product of two tensors viewed as flat vectors: shapes may differ
    /// as long as element counts agree (the paper's "flatten A and B"
    /// cosine-distance recipe).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn dot_flat(&self, other: &Tensor) -> Result<f32> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op: "dot_flat",
            });
        }
        Ok(self.dot_flat_unchecked(other))
    }

    fn dot_flat_unchecked(&self, other: &Tensor) -> f32 {
        self.data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::testing::{assert_levels_agree, edge_values, TEST_LANES};

    #[test]
    fn add_kernel_agrees_bitwise_at_every_simd_level() {
        for lanes in TEST_LANES {
            let (a, b) = (edge_values(9 * lanes, 1), edge_values(9 * lanes, 2));
            let run = |level| {
                let mut a = a.clone();
                add_into::at(level, &mut a, &b);
                a
            };
            assert_levels_agree(&format!("add_into x{lanes}"), run);
        }
    }

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn add_sub_mul_div() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().data(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0]);
        a.axpy(2.0, &t(&[3.0, 4.0])).unwrap();
        assert_eq!(a.data(), &[7.0, 9.0]);
    }

    #[test]
    fn map_and_scalar_ops() {
        let a = t(&[-1.0, 2.0]);
        assert_eq!(a.abs().data(), &[1.0, 2.0]);
        assert_eq!(a.scale(3.0).data(), &[-3.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[0.0, 3.0]);
        assert_eq!(a.clamp(0.0, 1.0).data(), &[0.0, 1.0]);
    }

    #[test]
    fn dot_and_norm() {
        let a = t(&[3.0, 4.0]);
        assert_eq!(a.dot(&a).unwrap(), 25.0);
        assert_eq!(a.norm(), 5.0);
        // dot now requires matching shapes; dot_flat keeps the old
        // equal-length flattening semantics.
        let m = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]).unwrap();
        assert!(a.dot(&m).is_err());
        assert_eq!(a.dot_flat(&m).unwrap(), 25.0);
        assert!(a.dot_flat(&Tensor::zeros(&[3])).is_err());
    }
}
