//! Shared batched-evaluation helpers for the XAI techniques.
//!
//! The techniques follow the same two-phase shape: **materialize** all
//! perturbed inputs up front (consuming the RNG in exactly the order the
//! per-sample implementation would), then **evaluate** them through the
//! model in batches of `XaiBudget::batch_size`. The model's batched paths
//! are bit-identical to its per-sample paths, so the feature matrices do not
//! depend on the batch size. SmoothGrad draws its noise the same way but
//! builds and folds its sweeps lane-major itself (see `smoothgrad`).

use remix_nn::Model;
use remix_tensor::Tensor;

/// Predicted-`class` probability for every input, evaluated `batch_size` at
/// a time.
pub(crate) fn class_probs(
    model: &mut Model,
    inputs: &[Tensor],
    class: usize,
    batch_size: usize,
) -> Vec<f32> {
    remix_trace::add(remix_trace::Counter::XaiPerturbations, inputs.len() as u64);
    let mut out = Vec::with_capacity(inputs.len());
    for chunk in inputs.chunks(batch_size.max(1)) {
        remix_trace::incr(remix_trace::Counter::XaiBatches);
        let probs = model
            .predict_proba_batch(chunk)
            .expect("perturbed inputs match the model spec");
        out.extend(probs.iter().map(|p| p.data()[class]));
    }
    out
}

/// Input gradient of the `class` logit for every input, evaluated
/// `batch_size` at a time. Each lane backpropagates independently, so the
/// chunking cannot change any result bit.
pub(crate) fn class_gradients(
    model: &mut Model,
    inputs: &[Tensor],
    class: usize,
    batch_size: usize,
) -> Vec<Tensor> {
    remix_trace::add(remix_trace::Counter::XaiPerturbations, inputs.len() as u64);
    let mut out = Vec::with_capacity(inputs.len());
    for chunk in inputs.chunks(batch_size.max(1)) {
        remix_trace::incr(remix_trace::Counter::XaiBatches);
        out.extend(
            model
                .input_gradient_batch(chunk, &vec![class; chunk.len()])
                .expect("perturbed inputs match the model spec"),
        );
    }
    out
}
