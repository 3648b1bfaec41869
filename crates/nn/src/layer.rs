use remix_tensor::{Result, Tensor};

/// Which caches a forward pass must retain.
///
/// Dropout and batch-norm behave differently between training and inference;
/// beyond that, the mode controls how much backward state the layers keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: dropout active, every cache needed to accumulate
    /// *parameter* gradients is stored.
    Train,
    /// Deterministic forward pass with full backward caches, so a subsequent
    /// [`Layer::backward_lanes`] can accumulate parameter gradients (used by
    /// finite-difference tests and diagnostic tooling).
    Eval,
    /// Deterministic forward pass that keeps only what an input-gradient
    /// backward ([`Wants::Input`]) needs — activation masks, pooling
    /// argmaxes, normalization statistics — and skips the parameter-gradient
    /// caches (the inputs of the weighted layers). This is the mode of the
    /// XAI hot path: `predict_proba` never calls backward at all, and
    /// `input_gradient` only needs the input gradient, so neither should pay
    /// training-only memory traffic on every perturbation pass.
    Inference,
}

/// Which gradients a [`Layer::backward_lanes`] call produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wants {
    /// Input gradients only; parameter gradients are left untouched. The
    /// XAI path, valid after a forward in any mode.
    Input,
    /// Parameter gradients only; the result is an empty tensor. The root
    /// layer of a training step, whose input gradient is the image
    /// gradient that nothing consumes.
    Params,
    /// Both: every other layer of a training step.
    Both,
}

impl Wants {
    /// Whether the call returns input gradients.
    pub fn input(self) -> bool {
        self != Wants::Params
    }

    /// Whether the call accumulates parameter gradients.
    pub fn params(self) -> bool {
        self != Wants::Input
    }
}

/// A differentiable network layer.
///
/// Every pass runs a *lane-major* batch: one tensor whose shape is the
/// per-sample shape plus a last sample axis (`[C, H, W, B]`, `[features,
/// B]`), so the `B` copies of every element sit next to each other as
/// lanes. A single sample is a one-lane batch: its shape plus a lane axis
/// of 1, the same memory layout.
///
/// Layers cache whatever the backward pass needs during
/// [`Layer::forward_lanes`]; callers must pair every
/// [`Layer::backward_lanes`] with the immediately preceding forward.
/// Backward returns the gradient with respect to the layer *input*, so
/// chaining it through a network yields the input-image gradient required
/// by gradient-based XAI, and accumulates parameter gradients as `wants`
/// asks.
///
/// Every lane is bit-identical to the same sample run as a one-lane batch:
/// convolutions turn the batch into one GEMM whose columns are (output
/// position, lane), so each output element keeps its own chain; every other
/// layer loops over runs of `B` contiguous lanes in which each lane runs
/// exactly its sample's chain — the same operations on the same operands in
/// the same order, starting from the same value. Parameter gradients keep
/// the training contract: each lane's contribution runs its own per-sample
/// chain and the lanes are added in lane order, never fused into one chain
/// across samples, so `Trainer::fit` over a `B`-lane mini-batch equals `B`
/// one-lane steps bit for bit.
pub trait Layer: Send {
    /// Computes the outputs of the lane-major batch `input` in `mode`,
    /// caching backward state according to `mode`.
    ///
    /// # Errors
    ///
    /// Returns the layer's shape-validation error for a mismatched batch.
    fn forward_lanes(&mut self, input: Tensor, mode: Mode) -> Result<Tensor>;

    /// Propagates the lane-major `grad_out` (gradient w.r.t. the last
    /// forward's output) and returns the gradient w.r.t. that forward's
    /// input, or an empty tensor for [`Wants::Params`]. With
    /// [`Wants::Params`] or [`Wants::Both`] it accumulates parameter
    /// gradients, which needs a preceding [`Mode::Train`] or [`Mode::Eval`]
    /// forward, and consumes that forward's parameter-gradient caches (the
    /// weighted layers' inputs), so a trained model holds no copy of its
    /// last batch.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `grad_out` does not match the preceding
    /// forward's output, or if parameter gradients are wanted after a
    /// [`Mode::Inference`] forward.
    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor>;

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
