use crate::{Layer, Mode};
use remix_tensor::{Result, Tensor};

/// Ordered composition of layers; itself a [`Layer`], so residual blocks can
/// nest `Sequential` bodies.
///
/// # Example
///
/// ```
/// use remix_nn::{layers::Relu, Layer, Mode, Sequential};
/// use remix_tensor::Tensor;
///
/// let mut net = Sequential::new();
/// net.push(Relu::new());
/// let y = net.forward(&Tensor::from_slice(&[-1.0, 1.0]), Mode::Eval);
/// assert_eq!(y.data(), &[0.0, 1.0]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Names of all layers in order (architecture summary).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Training backward: chains [`Layer::backward`] through the layers in
    /// reverse, but asks the first (input-side) layer for parameter gradients
    /// only — its input gradient is the image gradient, which a training step
    /// discards, and for a first convolution that gradient costs a full GEMM
    /// plus an overlap fold. Parameter gradients are accumulated through the
    /// exact chains of [`Layer::backward`], so the trained weights are
    /// bit-identical.
    ///
    /// Only `Trainer::fit` should use this: XAI paths need the image gradient
    /// (they call [`Layer::backward_input`]), and `Sequential` bodies nested
    /// inside residual blocks must keep returning their input gradient to
    /// feed the skip-connection sum (they are reached through the
    /// [`Layer::backward`] of the enclosing block, which this method never
    /// short-circuits).
    pub fn backward_train(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_out.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params_only(&g);
    }

    /// Batched [`Sequential::backward_train`]: chains
    /// [`Layer::backward_batch`] in reverse and finishes with the first
    /// layer's [`Layer::backward_batch_params_only`]. Same root-only
    /// contract, same bit-identical weights.
    ///
    /// # Errors
    ///
    /// Propagates the first layer-level batched-backward error.
    pub fn backward_batch_train(&mut self, grads_out: &[Tensor]) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut gs = grads_out.to_vec();
        for layer in rest.iter_mut().rev() {
            gs = layer.backward_batch(&gs)?;
        }
        first.backward_batch_params_only(&gs)
    }
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Self {
            layers: self.layers.iter().map(|l| l.clone_boxed()).collect(),
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({:?})", self.layer_names())
    }
}

impl Layer for Sequential {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    fn try_forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.try_forward(&x, mode)?;
        }
        Ok(x)
    }

    fn forward_batch(&mut self, inputs: &[Tensor], mode: Mode) -> Result<Vec<Tensor>> {
        let _fwd = remix_trace::span("forward_batch");
        let mut xs = inputs.to_vec();
        for layer in &mut self.layers {
            let _layer = remix_trace::span(layer.name());
            xs = layer.forward_batch(&xs, mode)?;
        }
        Ok(xs)
    }

    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor> {
        let _fwd = remix_trace::span("forward_lanes");
        let mut x = input;
        for layer in &mut self.layers {
            let _layer = remix_trace::span(layer.name());
            x = layer.forward_lanes(x)?;
        }
        Ok(x)
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let _bwd = remix_trace::span("backward_input_lanes");
        let mut g = grad_out;
        for layer in self.layers.iter_mut().rev() {
            let _layer = remix_trace::span(layer.name());
            g = layer.backward_input_lanes(g)?;
        }
        Ok(g)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn backward_params_only(&mut self, grad_out: &Tensor) {
        // A Sequential used as a root layer can skip its own first layer's
        // input gradient too.
        self.backward_train(grad_out);
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_input(&g);
        }
        g
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        let mut gs = grads_out.to_vec();
        for layer in self.layers.iter_mut().rev() {
            gs = layer.backward_batch(&gs)?;
        }
        Ok(gs)
    }

    fn backward_batch_params_only(&mut self, grads_out: &[Tensor]) -> Result<()> {
        self.backward_batch_train(grads_out)
    }

    fn supports_batched_train(&self) -> bool {
        self.layers.iter().all(|l| l.supports_batched_train())
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(visit);
        }
    }

    fn prepare_inference(&mut self) {
        for layer in &mut self.layers {
            layer.prepare_inference();
        }
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, Relu};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn composes_layers_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 3, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(3, 2, &mut rng));
        assert_eq!(net.len(), 3);
        let y = net.forward(&Tensor::from_slice(&[1.0, -1.0]), Mode::Eval);
        assert_eq!(y.len(), 2);
        assert_eq!(net.layer_names(), vec!["Dense", "ReLU", "Dense"]);
    }

    #[test]
    fn backward_chains_through_all_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 4, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(4, 2, &mut rng));
        let x = Tensor::from_slice(&[0.5, -0.3, 0.8]);
        let y = net.forward(&x, Mode::Train);
        let dx = net.backward(&Tensor::ones(&[2]));
        assert_eq!(dx.len(), 3);
        // finite-difference check on the whole network
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = net.forward(&xp, Mode::Train);
            let num = (yp.sum() - y.sum()) / eps;
            assert!((num - dx.data()[i]).abs() < 1e-2, "grad at {i}");
        }
    }

    fn conv_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Conv2d::new((1, 6, 6), 2, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(Dense::new(72, 3, &mut rng));
        net
    }

    fn grad_bits(net: &mut Sequential) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_params(&mut |_, g| bits.extend(g.data().iter().map(|v| v.to_bits())));
        bits
    }

    #[test]
    fn backward_train_accumulates_the_same_param_grads_as_backward() {
        let mut rng = StdRng::seed_from_u64(21);
        let x = Tensor::randn(&[1, 6, 6], 1.0, &mut rng);
        let g = Tensor::randn(&[3], 1.0, &mut rng);
        let mut full = conv_net(20);
        let mut skip = conv_net(20);
        full.forward(&x, Mode::Train);
        skip.forward(&x, Mode::Train);
        full.backward(&g);
        skip.backward_train(&g);
        assert_eq!(grad_bits(&mut full), grad_bits(&mut skip));
    }

    #[test]
    fn backward_batch_train_accumulates_the_same_param_grads_as_backward_batch() {
        let mut rng = StdRng::seed_from_u64(23);
        let xs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::randn(&[1, 6, 6], 1.0, &mut rng))
            .collect();
        let gs: Vec<Tensor> = (0..4).map(|_| Tensor::randn(&[3], 1.0, &mut rng)).collect();
        let mut full = conv_net(22);
        let mut skip = conv_net(22);
        full.forward_batch(&xs, Mode::Train).unwrap();
        skip.forward_batch(&xs, Mode::Train).unwrap();
        full.backward_batch(&gs).unwrap();
        skip.backward_batch_train(&gs).unwrap();
        assert_eq!(grad_bits(&mut full), grad_bits(&mut skip));
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, &mut rng)); // 6 params
        net.push(Dense::new(2, 1, &mut rng)); // 3 params
        assert_eq!(net.param_count(), 9);
    }
}
