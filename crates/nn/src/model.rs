use crate::{zoo::InputSpec, Layer, Mode, Sequential, Wants};
use remix_tensor::{Result, Tensor, TensorError};

/// A trained (or trainable) classifier: a [`Sequential`] network plus its
/// input/output contract.
///
/// `Model` is what ensembles, baselines, and XAI techniques consume. Methods
/// take `&mut self` because the forward pass caches backward state inside the
/// layers.
#[derive(Clone)]
pub struct Model {
    net: Sequential,
    spec: InputSpec,
    /// Human-readable architecture label (e.g. `"VGG11"`).
    pub name: String,
}

impl Model {
    /// Wraps a network with its input specification.
    pub fn new(net: Sequential, spec: InputSpec) -> Self {
        Self {
            net,
            spec,
            name: String::from("model"),
        }
    }

    /// Wraps a network with a descriptive name.
    pub fn named(net: Sequential, spec: InputSpec, name: impl Into<String>) -> Self {
        Self {
            net,
            spec,
            name: name.into(),
        }
    }

    /// The input specification this model was built for.
    pub fn spec(&self) -> InputSpec {
        self.spec
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.spec.num_classes
    }

    /// Number of trainable parameters.
    pub fn param_count(&mut self) -> usize {
        self.net.param_count()
    }

    /// Raw logits for one `[C, H, W]` image: a one-lane batch (see
    /// [`Model::logits_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if the image does not match the network's input shape; use
    /// [`Model::try_logits`] to get the error instead.
    pub fn logits(&mut self, image: &Tensor) -> Tensor {
        self.try_logits(image)
            .expect("image matches the model's input shape")
    }

    /// Fallible [`Model::logits`]: surfaces geometry errors (wrong input
    /// shape) instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first layer validation error.
    pub fn try_logits(&mut self, image: &Tensor) -> Result<Tensor> {
        self.net
            .forward_lanes(image.one_lane(), Mode::Inference)?
            .only_lane()
    }

    /// Softmax class probabilities for one image.
    pub fn predict_proba(&mut self, image: &Tensor) -> Tensor {
        self.logits(image).softmax()
    }

    /// Fallible [`Model::predict_proba`].
    ///
    /// # Errors
    ///
    /// Returns the first layer validation error.
    pub fn try_predict_proba(&mut self, image: &Tensor) -> Result<Tensor> {
        Ok(self.try_logits(image)?.softmax())
    }

    /// Raw logits for a batch of same-shape images.
    ///
    /// The batch runs through the network once, lane-major, in
    /// [`Mode::Inference`]: convolutions evaluate it as one matrix product,
    /// every other layer as loops over the samples' lanes. The results are
    /// bit-identical to calling [`Model::logits`] per image.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the images' shapes differ, or the first
    /// layer validation error.
    pub fn logits_batch(&mut self, images: &[Tensor]) -> Result<Vec<Tensor>> {
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let logits = self
            .net
            .forward_lanes(Tensor::stack_lanes(images)?, Mode::Inference)?;
        Ok(logits.unstack_lanes())
    }

    /// Softmax class probabilities for a batch of images (see
    /// [`Model::logits_batch`]).
    ///
    /// # Errors
    ///
    /// Returns the first layer validation error.
    pub fn predict_proba_batch(&mut self, images: &[Tensor]) -> Result<Vec<Tensor>> {
        Ok(self
            .logits_batch(images)?
            .iter()
            .map(Tensor::softmax)
            .collect())
    }

    /// Predicted class and its confidence (softmax probability).
    pub fn predict(&mut self, image: &Tensor) -> (usize, f32) {
        let probs = self.predict_proba(image);
        let class = probs.argmax().expect("non-empty probabilities");
        (class, probs.data()[class])
    }

    /// Gradient of the `class` logit with respect to the input image
    /// (`[C, H, W]`, same shape as the input): a one-lane
    /// [`Model::input_gradient_lanes`].
    ///
    /// This is the primitive behind the gradient-based XAI techniques:
    /// SmoothGrad averages it over noisy inputs, Integrated Gradients
    /// accumulates it along a baseline path. It runs an inference-mode
    /// forward followed by an input-only backward ([`Wants::Input`]), so no
    /// parameter gradients are accumulated.
    ///
    /// # Panics
    ///
    /// Panics if the image does not match the network's input shape or
    /// `class` is out of range.
    pub fn input_gradient(&mut self, image: &Tensor, class: usize) -> Tensor {
        self.input_gradient_lanes(image.one_lane(), &[class])
            .and_then(Tensor::only_lane)
            .expect("image matches the model's input shape")
    }

    /// Per-image input gradients for a batch: `classes[i]` selects the logit
    /// differentiated for `images[i]`. The images are stacked into lanes
    /// ([`Tensor::stack_lanes`]) for one [`Model::input_gradient_lanes`]
    /// sweep, and the gradients unstacked, bit-identical to per-image
    /// [`Model::input_gradient`] calls.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `images` and `classes` lengths differ or
    /// the images' shapes differ, or the first layer validation error.
    pub fn input_gradient_batch(
        &mut self,
        images: &[Tensor],
        classes: &[usize],
    ) -> Result<Vec<Tensor>> {
        if images.len() != classes.len() {
            return Err(TensorError::ShapeMismatch {
                left: vec![images.len()],
                right: vec![classes.len()],
                op: "input_gradient_batch",
            });
        }
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let grads = self.input_gradient_lanes(Tensor::stack_lanes(images)?, classes)?;
        Ok(grads.unstack_lanes())
    }

    /// Input gradients of a lane-major batch: `lanes` is `[C, H, W, B]`,
    /// `classes[b]` selects the logit differentiated for lane `b`, and the
    /// result is the `[C, H, W, B]` gradient, lane for lane.
    ///
    /// The batch runs through one lane-major forward/backward sweep
    /// ([`Layer::forward_lanes`], [`Layer::backward_lanes`] with
    /// [`Wants::Input`]; convolutions as single large matmuls). Each lane's
    /// gradient is bit-identical to [`Model::input_gradient`] on that lane
    /// alone. A caller that builds its batch in lanes and reads the gradient
    /// there skips [`Model::input_gradient_batch`]'s stack and unstack.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the lane count is not `classes.len()`, or
    /// the first layer validation error.
    pub fn input_gradient_lanes(&mut self, lanes: Tensor, classes: &[usize]) -> Result<Tensor> {
        if lanes.shape().last() != Some(&classes.len()) {
            return Err(TensorError::ShapeMismatch {
                left: lanes.shape().to_vec(),
                right: vec![classes.len()],
                op: "input_gradient_lanes",
            });
        }
        let logits = self.net.forward_lanes(lanes, Mode::Inference)?;
        let mut seed = Tensor::zeros(logits.shape());
        let width = classes.len();
        for (b, &c) in classes.iter().enumerate() {
            seed.data_mut()[c * width + b] = 1.0;
        }
        self.net.backward_lanes(seed, Wants::Input)
    }

    /// Freezes the network for steady-state serving: every layer prepacks its
    /// weight-static GEMM operands ([`Layer::prepare_inference`]), so repeated
    /// predict / XAI-gradient sweeps skip the per-call weight pack. Outputs
    /// and input gradients stay bit-identical to the unfrozen model, and any
    /// later parameter mutation (training, state load) drops the packs
    /// automatically — refreeze after mutating to get the fast path back.
    pub fn freeze_for_inference(&mut self) {
        self.net.prepare_inference();
    }

    /// Mutable access to the underlying network (training, optimizers).
    pub fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// Layer names of the underlying network.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.net.layer_names()
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Model({}, spec={:?})", self.name, self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten};
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_model() -> Model {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Flatten::new());
        net.push(Dense::new(4, 3, &mut rng));
        Model::named(
            net,
            InputSpec {
                channels: 1,
                size: 2,
                num_classes: 3,
            },
            "tiny",
        )
    }

    #[test]
    fn predict_proba_is_simplex() {
        let mut m = tiny_model();
        let p = m.predict_proba(&Tensor::ones(&[1, 2, 2]));
        assert_eq!(p.len(), 3);
        assert!((p.sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn predict_returns_argmax_and_confidence() {
        let mut m = tiny_model();
        let (class, conf) = m.predict(&Tensor::ones(&[1, 2, 2]));
        let p = m.predict_proba(&Tensor::ones(&[1, 2, 2]));
        assert_eq!(class, p.argmax().unwrap());
        assert!((conf - p.max().unwrap()).abs() < 1e-6);
    }

    #[test]
    fn input_gradient_has_input_shape_and_signal() {
        let mut m = tiny_model();
        let g = m.input_gradient(&Tensor::ones(&[1, 2, 2]), 0);
        assert_eq!(g.shape(), &[1, 2, 2]);
        assert!(g.abs().sum() > 0.0);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut m = tiny_model();
        let x = Tensor::from_vec(vec![0.1, -0.4, 0.7, 0.2], &[1, 2, 2]).unwrap();
        let g = m.input_gradient(&x, 1);
        let base = m.logits(&x).data()[1];
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let num = (m.logits(&xp).data()[1] - base) / eps;
            assert!((num - g.data()[i]).abs() < 1e-2);
        }
    }
}
