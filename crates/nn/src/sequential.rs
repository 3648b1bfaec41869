use crate::{Layer, Mode, Wants};
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
/// // One sample of two features is a `[2, 1]` one-lane batch.
/// let x = Tensor::from_vec(vec![-1.0, 1.0], &[2, 1]).unwrap();
/// let y = net.forward_lanes(x, Mode::Eval).unwrap();
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

    fn forward_lanes(&mut self, input: Tensor, mode: Mode) -> Result<Tensor> {
        let _fwd = remix_trace::span("forward_lanes");
        let mut x = input;
        for layer in &mut self.layers {
            let _layer = remix_trace::span(layer.name());
            x = layer.forward_lanes(x, mode)?;
        }
        Ok(x)
    }

    /// Chains the layers' backward passes in reverse. With
    /// [`Wants::Params`] — the root of a training step — every layer but
    /// the first runs [`Wants::Both`], since the next one down needs its
    /// input gradient, and the first one [`Wants::Params`]: its input
    /// gradient is the image gradient, which costs a first convolution a
    /// full GEMM plus an overlap fold and feeds nothing. A `Sequential`
    /// nested in a residual block is reached with [`Wants::Both`] and keeps
    /// returning its input gradient for the skip-connection sum.
    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        let _bwd = remix_trace::span("backward_lanes");
        let mut g = grad_out;
        let inner = if wants == Wants::Params {
            Wants::Both
        } else {
            wants
        };
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let _layer = remix_trace::span(layer.name());
            g = layer.backward_lanes(g, if i == 0 { wants } else { inner })?;
        }
        Ok(g)
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
    use crate::layers::{backward_one, forward_one, Conv2d, Dense, Flatten, Relu};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn composes_layers_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 3, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(3, 2, &mut rng));
        assert_eq!(net.len(), 3);
        let y = forward_one(&mut net, &Tensor::from_slice(&[1.0, -1.0]), Mode::Eval);
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
        let y = forward_one(&mut net, &x, Mode::Train);
        let dx = backward_one(&mut net, &Tensor::ones(&[2]), Wants::Both);
        assert_eq!(dx.len(), 3);
        // finite-difference check on the whole network
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = forward_one(&mut net, &xp, Mode::Train);
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
    fn params_only_accumulates_the_same_param_grads_as_both() {
        let mut rng = StdRng::seed_from_u64(21);
        let xs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::randn(&[1, 6, 6], 1.0, &mut rng))
            .collect();
        let gs: Vec<Tensor> = (0..4).map(|_| Tensor::randn(&[3], 1.0, &mut rng)).collect();
        let mut both = conv_net(20);
        let mut root = conv_net(20);
        for net in [&mut both, &mut root] {
            net.forward_lanes(Tensor::stack_lanes(&xs).unwrap(), Mode::Train)
                .unwrap();
        }
        let g = Tensor::stack_lanes(&gs).unwrap();
        assert_eq!(
            both.backward_lanes(g.clone(), Wants::Both).unwrap().shape(),
            &[1, 6, 6, 4]
        );
        assert!(root.backward_lanes(g, Wants::Params).unwrap().is_empty());
        assert_eq!(grad_bits(&mut both), grad_bits(&mut root));
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
