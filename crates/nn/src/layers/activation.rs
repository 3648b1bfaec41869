//! Activations. ReLU's lane loops are the kernels [`relu_forward`] and
//! [`relu_backward`], compiled at every SIMD level and run at the widest
//! this CPU reports (`remix_tensor::simd_kernel!`).

use crate::{Layer, Mode, Wants};
use remix_tensor::{simd_kernel, Result, Tensor, TensorError};

/// Checks that a backward call matches the cached state of the preceding
/// forward (elements of a lane-major batch).
fn check_batch(got: usize, cached: usize, op: &'static str) -> Result<()> {
    if got == cached {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch {
            left: vec![got],
            right: vec![cached],
            op,
        })
    }
}

/// Rectified linear unit.
#[derive(Debug, Default, Clone)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_lanes(&mut self, mut input: Tensor, _mode: Mode) -> Result<Tensor> {
        // Every slot of the mask is written below.
        self.mask.resize(input.len(), false);
        relu_forward(input.data_mut(), &mut self.mask);
        Ok(input)
    }

    fn backward_lanes(&mut self, mut grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        if !wants.input() {
            return Ok(Tensor::default());
        }
        check_batch(grad_out.len(), self.mask.len(), "relu backward_lanes")?;
        relu_backward(grad_out.data_mut(), &self.mask);
        Ok(grad_out)
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

simd_kernel! {
    /// ReLU forward in place, recording which inputs were positive. `-0.0`
    /// and NaN inputs come out `+0.0` at every level (`f32::max` may pick
    /// either zero per target; the unit tests pin this one).
    fn relu_forward(x: &mut [f32], mask: &mut [bool]) {
        for (v, m) in x.iter_mut().zip(mask) {
            *m = *v > 0.0;
            *v = v.max(0.0);
        }
    }
}

simd_kernel! {
    /// ReLU backward in place: the gradient where the input was positive,
    /// `+0.0` elsewhere. A select, not a conditional store: it stays
    /// branch-free.
    fn relu_backward(grad: &mut [f32], mask: &[bool]) {
        for (g, &m) in grad.iter_mut().zip(mask) {
            *g = if m { *g } else { 0.0 };
        }
    }
}

/// Logistic sigmoid.
#[derive(Debug, Default, Clone)]
pub struct Sigmoid {
    cached_out: Tensor,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_lanes(&mut self, mut input: Tensor, _mode: Mode) -> Result<Tensor> {
        input.map_inplace(|v| 1.0 / (1.0 + (-v).exp()));
        self.cached_out = input.clone();
        Ok(input)
    }

    fn backward_lanes(&mut self, mut grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        if !wants.input() {
            return Ok(Tensor::default());
        }
        check_batch(
            grad_out.len(),
            self.cached_out.len(),
            "sigmoid backward_lanes",
        )?;
        for (g, &y) in grad_out.data_mut().iter_mut().zip(self.cached_out.data()) {
            *g = *g * y * (1.0 - y);
        }
        Ok(grad_out)
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

/// Hyperbolic tangent.
#[derive(Debug, Default, Clone)]
pub struct TanhLayer {
    cached_out: Tensor,
}

impl TanhLayer {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for TanhLayer {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_lanes(&mut self, mut input: Tensor, _mode: Mode) -> Result<Tensor> {
        input.map_inplace(f32::tanh);
        self.cached_out = input.clone();
        Ok(input)
    }

    fn backward_lanes(&mut self, mut grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        if !wants.input() {
            return Ok(Tensor::default());
        }
        check_batch(grad_out.len(), self.cached_out.len(), "tanh backward_lanes")?;
        for (g, &y) in grad_out.data_mut().iter_mut().zip(self.cached_out.data()) {
            *g *= 1.0 - y * y;
        }
        Ok(grad_out)
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{assert_levels_agree, backward_one, edge_values, forward_one, TEST_LANES};
    use remix_tensor::SimdLevel;

    #[test]
    fn relu_kernels_agree_bitwise_at_every_simd_level() {
        for lanes in TEST_LANES {
            let len = 13 * lanes;
            let x = edge_values(len, 1);
            let forward = |level| {
                let (mut x, mut mask) = (x.clone(), vec![false; len]);
                relu_forward::at(level, &mut x, &mut mask);
                x.extend(mask.iter().map(|&m| f32::from(u8::from(m))));
                x
            };
            assert_levels_agree(&format!("relu_forward x{lanes}"), forward);
            let mask: Vec<bool> = x.iter().map(|&v| v > 0.0).collect();
            let backward = |level| {
                let mut g = edge_values(len, 2);
                relu_backward::at(level, &mut g, &mask);
                g
            };
            assert_levels_agree(&format!("relu_backward x{lanes}"), backward);
        }
    }

    #[test]
    fn relu_maps_negative_zero_and_nan_to_positive_zero_at_every_level() {
        // `f32::max` may return either zero for ±0.0 operands; whichever
        // LLVM picks, every level must pick +0.0, the portable result.
        for level in SimdLevel::ALL
            .into_iter()
            .filter(|&l| l <= remix_tensor::simd_level())
        {
            for len in [1, 7, 16, 17, 40] {
                let mut x: Vec<f32> = (0..len)
                    .map(|i| [-0.0, f32::NAN, 0.0, -f32::NAN][i % 4])
                    .collect();
                let mut mask = vec![true; len];
                relu_forward::at(level, &mut x, &mut mask);
                assert!(
                    x.iter().all(|v| v.to_bits() == 0),
                    "{level:?} x{len}: {x:?}"
                );
                assert!(mask.iter().all(|&m| !m), "{level:?} x{len}");
            }
        }
    }

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let y = forward_one(&mut r, &Tensor::from_slice(&[-1.0, 2.0]), Mode::Eval);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let dx = backward_one(&mut r, &Tensor::from_slice(&[5.0, 5.0]), Wants::Both);
        assert_eq!(dx.data(), &[0.0, 5.0]);
    }

    #[test]
    fn sigmoid_centre_and_gradient() {
        let mut s = Sigmoid::new();
        let y = forward_one(&mut s, &Tensor::from_slice(&[0.0]), Mode::Eval);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        let dx = backward_one(&mut s, &Tensor::from_slice(&[1.0]), Wants::Input);
        assert!((dx.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_matches_identity() {
        let mut t = TanhLayer::new();
        let x = Tensor::from_slice(&[0.3]);
        let y = forward_one(&mut t, &x, Mode::Eval);
        let dx = backward_one(&mut t, &Tensor::from_slice(&[1.0]), Wants::Input);
        let expected = 1.0 - y.data()[0] * y.data()[0];
        assert!((dx.data()[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn lane_sigmoid_and_tanh_match_one_lane() {
        let xs = [
            Tensor::from_slice(&[-1.5, 0.25, 3.0]),
            Tensor::from_slice(&[0.0, -0.0, 0.75]),
        ];
        let gs = [
            Tensor::from_slice(&[1.0, -2.0, 0.5]),
            Tensor::from_slice(&[0.3, 0.0, -1.0]),
        ];
        crate::layers::assert_lanes_match_one_lane(&mut Sigmoid::new(), &xs, &gs);
        crate::layers::assert_lanes_match_one_lane(&mut TanhLayer::new(), &xs, &gs);
    }

    #[test]
    fn lane_relu_keeps_per_lane_masks() {
        let mut r = Relu::new();
        // Lane-major: element 0 of both samples, then element 1.
        let xs = Tensor::from_vec(vec![-1.0, 3.0, 2.0, -4.0], &[2, 2]).unwrap();
        let ys = r.forward_lanes(xs, Mode::Inference).unwrap();
        assert_eq!(ys.data(), &[0.0, 3.0, 2.0, 0.0]);
        let dxs = r
            .backward_lanes(Tensor::ones(&[2, 2]), Wants::Input)
            .unwrap();
        assert_eq!(dxs.data(), &[0.0, 1.0, 1.0, 0.0]);
        // A mismatched batch is rejected rather than silently zipped.
        assert!(r
            .backward_lanes(Tensor::ones(&[2, 1]), Wants::Input)
            .is_err());
        // A root layer with no parameters has nothing to do.
        assert!(r
            .backward_lanes(Tensor::ones(&[2, 2]), Wants::Params)
            .unwrap()
            .is_empty());
    }
}
