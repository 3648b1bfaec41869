use crate::{Layer, Mode, Wants};
use remix_tensor::{Result, Tensor, TensorError};

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
        self.mask.clear();
        self.mask.extend(input.data().iter().map(|&v| v > 0.0));
        input.map_inplace(|v| v.max(0.0));
        Ok(input)
    }

    fn backward_lanes(&mut self, mut grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        if !wants.input() {
            return Ok(Tensor::default());
        }
        check_batch(grad_out.len(), self.mask.len(), "relu backward_lanes")?;
        // A select, not a conditional store: it stays branch-free.
        for (g, &m) in grad_out.data_mut().iter_mut().zip(&self.mask) {
            *g = if m { *g } else { 0.0 };
        }
        Ok(grad_out)
    }

    fn name(&self) -> &'static str {
        "ReLU"
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
    use crate::layers::{backward_one, forward_one};

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
