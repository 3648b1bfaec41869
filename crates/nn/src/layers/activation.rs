use crate::{Layer, Mode};
use remix_tensor::{Result, Tensor, TensorError};

/// Checks that a batched backward call matches the cached state of the
/// preceding batched forward (samples, or elements of a lane-major batch).
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
    batch_masks: Vec<Vec<bool>>,
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

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.mask = input.data().iter().map(|&v| v > 0.0).collect();
        input.map(|v| v.max(0.0))
    }

    fn forward_batch(&mut self, inputs: &[Tensor], _mode: Mode) -> Result<Vec<Tensor>> {
        // Refill the retained per-sample mask vectors in place: at batch 32 a
        // fresh Vec<bool> per sample per step is pure allocator churn.
        self.batch_masks.resize(inputs.len(), Vec::new());
        for (mask, x) in self.batch_masks.iter_mut().zip(inputs) {
            mask.clear();
            mask.extend(x.data().iter().map(|&v| v > 0.0));
        }
        Ok(inputs.iter().map(|x| x.map(|v| v.max(0.0))).collect())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let data = grad_out
            .data()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_out.shape()).expect("same shape")
    }

    fn forward_lanes(&mut self, mut input: Tensor) -> Result<Tensor> {
        self.mask.clear();
        self.mask.extend(input.data().iter().map(|&v| v > 0.0));
        input.map_inplace(|v| v.max(0.0));
        Ok(input)
    }

    fn backward_input_lanes(&mut self, mut grad_out: Tensor) -> Result<Tensor> {
        check_batch(grad_out.len(), self.mask.len(), "relu backward_input_lanes")?;
        // A select, not a conditional store: it stays branch-free.
        for (g, &m) in grad_out.data_mut().iter_mut().zip(&self.mask) {
            *g = if m { *g } else { 0.0 };
        }
        Ok(grad_out)
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        // No parameters: the training backward is the input backward.
        check_batch(
            grads_out.len(),
            self.batch_masks.len(),
            "relu backward_batch",
        )?;
        grads_out
            .iter()
            .zip(&self.batch_masks)
            .map(|(g, mask)| {
                let data = g
                    .data()
                    .iter()
                    .zip(mask)
                    .map(|(&g, &m)| if m { g } else { 0.0 })
                    .collect();
                Tensor::from_vec(data, g.shape())
            })
            .collect()
    }

    fn supports_batched_train(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

/// Logistic sigmoid.
#[derive(Debug, Default, Clone)]
pub struct Sigmoid {
    cached_out: Tensor,
    batch_outs: Vec<Tensor>,
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

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let out = input.map(|v| 1.0 / (1.0 + (-v).exp()));
        self.cached_out = out.clone();
        out
    }

    fn forward_batch(&mut self, inputs: &[Tensor], _mode: Mode) -> Result<Vec<Tensor>> {
        let outs: Vec<Tensor> = inputs
            .iter()
            .map(|x| x.map(|v| 1.0 / (1.0 + (-v).exp())))
            .collect();
        self.batch_outs = outs.clone();
        Ok(outs)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let data = grad_out
            .data()
            .iter()
            .zip(self.cached_out.data())
            .map(|(&g, &y)| g * y * (1.0 - y))
            .collect();
        Tensor::from_vec(data, grad_out.shape()).expect("same shape")
    }

    fn forward_lanes(&mut self, mut input: Tensor) -> Result<Tensor> {
        input.map_inplace(|v| 1.0 / (1.0 + (-v).exp()));
        self.cached_out = input.clone();
        Ok(input)
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        check_batch(
            grad_out.len(),
            self.cached_out.len(),
            "sigmoid backward_input_lanes",
        )?;
        Ok(self.backward(&grad_out))
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        // No parameters: the training backward is the input backward.
        check_batch(
            grads_out.len(),
            self.batch_outs.len(),
            "sigmoid backward_batch",
        )?;
        grads_out
            .iter()
            .zip(&self.batch_outs)
            .map(|(g, y)| {
                let data = g
                    .data()
                    .iter()
                    .zip(y.data())
                    .map(|(&g, &y)| g * y * (1.0 - y))
                    .collect();
                Tensor::from_vec(data, g.shape())
            })
            .collect()
    }

    fn supports_batched_train(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

/// Hyperbolic tangent.
#[derive(Debug, Default, Clone)]
pub struct TanhLayer {
    cached_out: Tensor,
    batch_outs: Vec<Tensor>,
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

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let out = input.map(f32::tanh);
        self.cached_out = out.clone();
        out
    }

    fn forward_batch(&mut self, inputs: &[Tensor], _mode: Mode) -> Result<Vec<Tensor>> {
        let outs: Vec<Tensor> = inputs.iter().map(|x| x.map(f32::tanh)).collect();
        self.batch_outs = outs.clone();
        Ok(outs)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let data = grad_out
            .data()
            .iter()
            .zip(self.cached_out.data())
            .map(|(&g, &y)| g * (1.0 - y * y))
            .collect();
        Tensor::from_vec(data, grad_out.shape()).expect("same shape")
    }

    fn forward_lanes(&mut self, mut input: Tensor) -> Result<Tensor> {
        input.map_inplace(f32::tanh);
        self.cached_out = input.clone();
        Ok(input)
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        check_batch(
            grad_out.len(),
            self.cached_out.len(),
            "tanh backward_input_lanes",
        )?;
        Ok(self.backward(&grad_out))
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        // No parameters: the training backward is the input backward.
        check_batch(
            grads_out.len(),
            self.batch_outs.len(),
            "tanh backward_batch",
        )?;
        grads_out
            .iter()
            .zip(&self.batch_outs)
            .map(|(g, y)| {
                let data = g
                    .data()
                    .iter()
                    .zip(y.data())
                    .map(|(&g, &y)| g * (1.0 - y * y))
                    .collect();
                Tensor::from_vec(data, g.shape())
            })
            .collect()
    }

    fn supports_batched_train(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_slice(&[-1.0, 2.0]), Mode::Eval);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let dx = r.backward(&Tensor::from_slice(&[5.0, 5.0]));
        assert_eq!(dx.data(), &[0.0, 5.0]);
    }

    #[test]
    fn sigmoid_centre_and_gradient() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::from_slice(&[0.0]), Mode::Eval);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        let dx = s.backward(&Tensor::from_slice(&[1.0]));
        assert!((dx.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_matches_identity() {
        let mut t = TanhLayer::new();
        let x = Tensor::from_slice(&[0.3]);
        let y = t.forward(&x, Mode::Eval);
        let dx = t.backward(&Tensor::from_slice(&[1.0]));
        let expected = 1.0 - y.data()[0] * y.data()[0];
        assert!((dx.data()[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn lane_sigmoid_and_tanh_match_per_sample() {
        let xs = [
            Tensor::from_slice(&[-1.5, 0.25, 3.0]),
            Tensor::from_slice(&[0.0, -0.0, 0.75]),
        ];
        let gs = [
            Tensor::from_slice(&[1.0, -2.0, 0.5]),
            Tensor::from_slice(&[0.3, 0.0, -1.0]),
        ];
        let layers: [Box<dyn Layer>; 2] = [Box::new(Sigmoid::new()), Box::new(TanhLayer::new())];
        for mut layer in layers {
            let (mut ys, mut dxs) = (Vec::new(), Vec::new());
            for (x, g) in xs.iter().zip(&gs) {
                ys.push(layer.forward(x, Mode::Inference));
                dxs.push(layer.backward_input(g));
            }
            let y = layer
                .forward_lanes(Tensor::stack_lanes(&xs).unwrap())
                .unwrap();
            let dx = layer
                .backward_input_lanes(Tensor::stack_lanes(&gs).unwrap())
                .unwrap();
            assert_eq!(y.unstack_lanes(), ys, "{}", layer.name());
            assert_eq!(dx.unstack_lanes(), dxs, "{}", layer.name());
        }
    }

    #[test]
    fn lane_relu_keeps_per_lane_masks() {
        let mut r = Relu::new();
        // Lane-major: element 0 of both samples, then element 1.
        let xs = Tensor::from_vec(vec![-1.0, 3.0, 2.0, -4.0], &[2, 2]).unwrap();
        let ys = r.forward_lanes(xs).unwrap();
        assert_eq!(ys.data(), &[0.0, 3.0, 2.0, 0.0]);
        let dxs = r.backward_input_lanes(Tensor::ones(&[2, 2])).unwrap();
        assert_eq!(dxs.data(), &[0.0, 1.0, 1.0, 0.0]);
        // A mismatched batch is rejected rather than silently zipped.
        assert!(r.backward_input_lanes(Tensor::ones(&[2, 1])).is_err());
    }
}
