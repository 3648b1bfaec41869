//! The layer set used by the model zoo.

/// Runs `$body` once per group of lanes covering `0..$lanes`, with `$b0`
/// the group's first lane and `$g` its width as a constant (16, 8, 4, 2 or
/// 1 — the widest that fits). Per-lane loops written against `$g` have a
/// fixed trip count, so their accumulators stay in registers and they
/// vectorise at every batch width, including the 2-lane prediction
/// batches; the lanes of a group are independent, so grouping never
/// reorders one lane's chain.
macro_rules! for_lane_groups {
    ($lanes:expr, $b0:ident, $g:ident, $body:block) => {{
        let lanes: usize = $lanes;
        let mut $b0 = 0usize;
        while $b0 < lanes {
            let rest = lanes - $b0;
            if rest >= 16 {
                const $g: usize = 16;
                $body
                $b0 += $g;
            } else if rest >= 8 {
                const $g: usize = 8;
                $body
                $b0 += $g;
            } else if rest >= 4 {
                const $g: usize = 4;
                $body
                $b0 += $g;
            } else if rest >= 2 {
                const $g: usize = 2;
                $body
                $b0 += $g;
            } else {
                const $g: usize = 1;
                $body
                $b0 += $g;
            }
        }
    }};
}

/// The `$g` lanes of group `$b0` in one lane-major row, as an array.
macro_rules! lane_group {
    ($row:expr, $b0:expr, $g:ident) => {
        <&[f32; $g]>::try_from(&$row[$b0..$b0 + $g]).expect("lane group")
    };
    (mut $row:expr, $b0:expr, $g:ident) => {
        <&mut [f32; $g]>::try_from(&mut $row[$b0..$b0 + $g]).expect("lane group")
    };
}

mod activation;
mod batchnorm;
mod conv;
mod dense;
mod depthwise;
mod dropout;
mod flatten;
mod pool;
mod residual;
mod squeeze_excite;

pub use activation::{Relu, Sigmoid, TanhLayer};
pub use batchnorm::InstanceNorm2d;
pub use conv::Conv2d;
pub use dense::Dense;
pub use depthwise::DepthwiseConv2d;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use residual::Residual;
pub use squeeze_excite::SqueezeExcite;

use remix_tensor::{Result, Tensor, TensorError};

/// Validates a lane-major batch against the per-sample shape `sample`
/// (`sample ++ [B]`, `B > 0`) and returns its lane count `B`.
pub(crate) fn lanes_of(batch: &Tensor, sample: &[usize], op: &'static str) -> Result<usize> {
    match batch.shape().split_last() {
        Some((&lanes, dims)) if dims == sample && lanes > 0 => Ok(lanes),
        _ => Err(TensorError::ShapeMismatch {
            left: batch.shape().to_vec(),
            right: sample.to_vec(),
            op,
        }),
    }
}

/// [`lanes_of`] for the layers that know only their channel count and
/// plane size: a lane-major `[C, .., B]` batch of `channels · spatial`
/// floats per lane.
pub(crate) fn plane_lanes_of(
    batch: &Tensor,
    channels: usize,
    spatial: usize,
    op: &'static str,
) -> Result<usize> {
    match batch.shape() {
        [c, .., lanes] if *c == channels && *lanes > 0 && batch.len() == c * spatial * lanes => {
            Ok(*lanes)
        }
        _ => Err(TensorError::ShapeMismatch {
            left: batch.shape().to_vec(),
            right: vec![channels, spatial],
            op,
        }),
    }
}

/// Runs `B` samples through `layer` one by one and as one lane-major batch
/// (forward in [`crate::Mode::Inference`], then the input gradient) and
/// asserts the bits agree.
#[cfg(test)]
pub(crate) fn assert_lanes_match_per_sample(
    layer: &mut dyn crate::Layer,
    inputs: &[Tensor],
    grads: &[Tensor],
) {
    let bits = |ts: &[Tensor]| -> Vec<Vec<u32>> {
        ts.iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    let (mut ys, mut dxs) = (Vec::new(), Vec::new());
    for (x, g) in inputs.iter().zip(grads) {
        ys.push(layer.forward(x, crate::Mode::Inference));
        dxs.push(layer.backward_input(g));
    }
    let y = layer
        .forward_lanes(Tensor::stack_lanes(inputs).expect("same-shape inputs"))
        .expect("valid batch");
    let dx = layer
        .backward_input_lanes(Tensor::stack_lanes(grads).expect("same-shape gradients"))
        .expect("valid gradients");
    assert_eq!(
        bits(&y.unstack_lanes()),
        bits(&ys),
        "{} forward",
        layer.name()
    );
    assert_eq!(
        bits(&dx.unstack_lanes()),
        bits(&dxs),
        "{} input gradient",
        layer.name()
    );
}
