use remix_tensor::{Result, Tensor, TensorError};

/// Which caches a forward pass must retain.
///
/// Dropout and batch-norm behave differently between training and inference;
/// beyond that, the mode controls how much backward state the layers keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: dropout active, normalization statistics updated, every
    /// cache needed to accumulate *parameter* gradients is stored.
    Train,
    /// Deterministic forward pass with full backward caches, so a subsequent
    /// [`Layer::backward`] can accumulate parameter gradients (used by
    /// finite-difference tests and diagnostic tooling).
    Eval,
    /// Deterministic forward pass that keeps only what
    /// [`Layer::backward_input`] needs (activation masks, pooling argmaxes,
    /// normalization statistics) and skips the parameter-gradient caches —
    /// cached layer inputs, and the patch rows a convolution unfolds only
    /// for its weight gradient (an inference-mode convolution never unfolds
    /// its input). This is the mode of the XAI hot path: `predict_proba`
    /// never calls backward at all, and `input_gradient` only needs the
    /// input gradient, so neither should pay training-only memory traffic
    /// on every perturbation pass.
    ///
    /// It is also the only mode of the lane-major batch passes
    /// ([`Layer::forward_lanes`] / [`Layer::backward_input_lanes`]), which
    /// keep the same caches for all `B` samples in one lane-major tensor
    /// each.
    Inference,
}

/// A differentiable network layer.
///
/// Layers cache whatever the backward pass needs during [`Layer::forward`];
/// callers must pair every `backward` with the immediately preceding
/// `forward`. `backward` accumulates weight gradients internally and returns
/// the gradient with respect to the layer *input*, so chaining `backward`
/// through a network yields the input-image gradient required by
/// gradient-based XAI.
///
/// # Batched execution
///
/// Inference batches travel *lane-major*: one tensor whose shape is the
/// per-sample shape plus a last sample axis (`[C, H, W, B]`, `[features,
/// B]`), so the `B` copies of every element sit next to each other as
/// lanes. [`Layer::forward_lanes`] runs such a batch in [`Mode::Inference`]
/// and [`Layer::backward_input_lanes`] propagates its input gradients,
/// touching no parameter gradient. Convolutions turn the batch into one
/// GEMM whose columns are (output position, lane), so the product is
/// already lane-major; every other layer loops over runs of `B` contiguous
/// lanes in which each lane runs exactly its sample's per-sample chain —
/// the same operations on the same operands in the same order, starting
/// from the same value — so the lanes are bit-identical to `B` calls of
/// [`Layer::forward`] / [`Layer::backward_input`].
///
/// Training batches stay sample-major: [`Layer::forward_batch`] in
/// [`Mode::Train`] / [`Mode::Eval`] and [`Layer::backward_batch`] take one
/// tensor per sample, because parameter gradients must accumulate sample
/// by sample in batch order.
pub trait Layer: Send {
    /// Computes the layer output for `input`, caching backward state
    /// according to `mode`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Fallible [`Layer::forward`]: layers that validate their input geometry
    /// override this to surface a [`TensorError`] instead of panicking
    /// mid-evaluation. The default wraps `forward` (which may still panic for
    /// layers without an overridden validation path).
    ///
    /// # Errors
    ///
    /// Returns the layer's shape-validation error for mismatched inputs.
    fn try_forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        Ok(self.forward(input, mode))
    }

    /// Computes outputs for a sample-major batch of same-shape inputs — the
    /// training batch path.
    ///
    /// The default loops [`Layer::try_forward`] over the samples, leaving the
    /// single-sample caches holding the *last* sample's state — which is why
    /// per-sample `backward` after a default `forward_batch` is invalid and
    /// batched backward is gated on [`Layer::supports_batched_train`].
    /// Layers overriding this with a genuinely batched implementation must
    /// keep bit-identical outputs and maintain per-sample caches for
    /// [`Layer::backward_batch`]. Inference batches use
    /// [`Layer::forward_lanes`] instead.
    ///
    /// # Errors
    ///
    /// Returns the first per-sample validation error.
    fn forward_batch(&mut self, inputs: &[Tensor], mode: Mode) -> Result<Vec<Tensor>> {
        inputs.iter().map(|x| self.try_forward(x, mode)).collect()
    }

    /// Lane-major [`Mode::Inference`] forward: `input` is `B` samples as
    /// one tensor of the per-sample shape plus a last axis of `B` lanes, and
    /// so is the result. Lane `b` of the output is bit-identical to
    /// [`Layer::forward`] of sample `b`. The layer keeps the input-gradient
    /// caches of all `B` samples for [`Layer::backward_input_lanes`].
    ///
    /// # Errors
    ///
    /// Returns the layer's shape-validation error for a mismatched batch.
    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor>;

    /// Lane-major [`Layer::backward_input`]: the input gradients of the
    /// batch of the immediately preceding [`Layer::forward_lanes`], from its
    /// lane-major output gradients, without touching parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `grad_out` does not match the preceding
    /// forward's output.
    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor>;

    /// Propagates `grad_out` (gradient w.r.t. the last forward output) and
    /// returns the gradient w.r.t. the last forward input. Accumulates
    /// parameter gradients as a side effect.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Parameter-gradient-only backward: like [`Layer::backward`] but skips
    /// computing the gradient w.r.t. the layer input, which the caller is
    /// about to discard. Only the *root* layer of a training step qualifies —
    /// its input gradient is the image gradient, consumed by nothing — so
    /// `Sequential::backward_train` calls this on its first layer and the
    /// full `backward` everywhere else. Parameter gradients must accumulate
    /// through the exact chains of `backward`, so skipping the input product
    /// never changes the trained weights. The default runs the full
    /// `backward` and drops the result.
    fn backward_params_only(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Batched [`Layer::backward_params_only`]: accumulates parameter
    /// gradients for the batch of the immediately preceding
    /// [`Layer::forward_batch`] without producing input gradients. Same
    /// root-layer-only contract; the default runs the full
    /// [`Layer::backward_batch`] and drops the gradients.
    ///
    /// # Errors
    ///
    /// Returns whatever the layer's `backward_batch` contract returns.
    fn backward_batch_params_only(&mut self, grads_out: &[Tensor]) -> Result<()> {
        self.backward_batch(grads_out).map(|_| ())
    }

    /// Input-gradient-only backward: like [`Layer::backward`] but skips the
    /// parameter-gradient accumulation, which XAI input gradients never
    /// consume. Layers with expensive weight-gradient products (convolutions,
    /// dense layers) override this; the default falls back to the full
    /// `backward`.
    ///
    /// Valid after a [`Layer::forward`] in any mode, including
    /// [`Mode::Inference`].
    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward(grad_out)
    }

    /// Batched [`Layer::backward`]: per-sample input gradients for the batch
    /// of the immediately preceding [`Layer::forward_batch`] in
    /// [`Mode::Train`] / [`Mode::Eval`], *with* parameter-gradient
    /// accumulation.
    ///
    /// The bit-identity contract is strict: parameter gradients must
    /// accumulate per sample, in batch order, through the same per-element
    /// accumulation chains as `batch_size` calls of [`Layer::backward`] —
    /// layers may batch the input-gradient product (each output element's
    /// chain stays within one sample) but must *not* fuse the per-sample
    /// parameter-gradient sums into one long chain.
    ///
    /// Only valid on layers reporting [`Layer::supports_batched_train`]; the
    /// default returns [`TensorError::Unsupported`] so a mis-wired caller
    /// fails loudly instead of silently using stale caches.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Unsupported`] unless overridden.
    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        let _ = grads_out;
        Err(TensorError::Unsupported {
            op: "backward_batch",
            by: self.name(),
        })
    }

    /// Whether this layer implements the batched *training* contract
    /// ([`Layer::forward_batch`] in [`Mode::Train`] keeping the
    /// parameter-gradient caches + [`Layer::backward_batch`]). Defaults to
    /// `false`; `Trainer::fit` falls back to the per-sample loop for networks
    /// containing layers that opt out.
    fn supports_batched_train(&self) -> bool {
        false
    }

    /// Visits every `(parameter, gradient)` pair for optimizers.
    ///
    /// This is the single chokepoint through which parameters are mutated
    /// (optimizer steps, state loads), so layers holding prepacked weight
    /// operands drop them at the top of their override — a freeze can never
    /// go stale unnoticed (see [`Layer::prepare_inference`]).
    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        let _ = visit;
    }

    /// Freezes the layer for steady-state inference: prepacks weight-static
    /// GEMM operands (the `Tensor::prepack_*` family) so the serving and XAI
    /// sweeps skip the per-call weight pack. The contract is strict
    /// bit-identity — a frozen layer must produce byte-identical outputs and
    /// input gradients to an unfrozen one — and packs are invalidated by any
    /// parameter mutation (every mutation flows through
    /// [`Layer::visit_params`]), so training after a freeze silently falls
    /// back to fresh packing instead of consuming a stale pack. Freezing is
    /// idempotent; the default is a no-op for layers with no weight-static
    /// products.
    fn prepare_inference(&mut self) {}

    /// Short human-readable layer name (for architecture summaries).
    fn name(&self) -> &'static str;

    /// Deep copy as a boxed trait object.
    ///
    /// This is what makes [`Sequential`](crate::Sequential) (and therefore
    /// models and ensembles) cloneable, so parallel evaluation can hand each
    /// worker thread its own copy of the mutable forward/backward caches.
    fn clone_boxed(&self) -> Box<dyn Layer>;

    /// Number of trainable scalars in this layer.
    fn param_count(&self) -> usize {
        0
    }

    /// Zeroes all accumulated parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |_, g| {
            for v in g.data_mut() {
                *v = 0.0;
            }
        });
    }
}
