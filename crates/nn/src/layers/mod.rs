//! The layer set used by the model zoo.

/// Runs `$body` with the caller's `$lanes` shadowed by the constant 1 for
/// a one-lane batch — a single sample — so the body's lane strides and
/// offsets fold away and it compiles to a plain per-sample loop; other
/// batches run it as written. Either way the body is the same code.
macro_rules! one_lane_const {
    ($lanes:ident, $body:block) => {
        if $lanes == 1 {
            #[allow(unused_variables)]
            let $lanes: usize = 1;
            $body
        } else {
            $body
        }
    };
}

/// Runs `$body` once per group of lanes covering `0..$lanes`, with `$b0`
/// the group's first lane and `$g` its width as a constant (16, 8, 4, 2 or
/// 1 — the widest that fits). Per-lane loops written against `$g` have a
/// fixed trip count, so their accumulators stay in registers and they
/// vectorise at every batch width, including the 2-lane prediction
/// batches; the lanes of a group are independent, so grouping never
/// reorders one lane's chain. A one-lane batch — a single sample — runs
/// `$body` with the caller's `$lanes` shadowed by the constant 1, so its
/// lane strides and offsets fold away and it runs as a plain per-sample
/// loop.
macro_rules! for_lane_groups {
    ($lanes:ident, $b0:ident, $g:ident, $body:block) => {{
        if $lanes == 1 {
            #[allow(unused_variables)]
            let $lanes: usize = 1;
            let $b0 = 0usize;
            const $g: usize = 1;
            $body
        } else {
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

/// Checks that the parameter-gradient cache `cached` — a layer input kept
/// by a [`Mode::Train`](crate::Mode::Train) or [`Mode::Eval`](crate::Mode::Eval)
/// forward — holds the `lanes` lanes of the gradient being propagated.
pub(crate) fn check_cached(cached: &Tensor, lanes: usize, op: &'static str) -> Result<()> {
    if cached.shape().last() == Some(&lanes) {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch {
            left: cached.shape().to_vec(),
            right: vec![lanes],
            op,
        })
    }
}

/// Lane counts the cross-level kernel tests run at: one sample, a pair,
/// odd counts, and a full 16-lane group with and without a remainder.
#[cfg(test)]
pub(crate) const TEST_LANES: [usize; 6] = [1, 2, 3, 8, 16, 17];

/// `len` values from `seed` that stress a kernel's bits — ±0.0,
/// subnormals and large magnitudes — among ordinary ones.
#[cfg(test)]
pub(crate) fn edge_values(len: usize, seed: u64) -> Vec<f32> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(rng.gen_range(1..0x0080_0000u32) | (rng.gen_range(0..2u32) << 31)),
            3 => rng.gen_range(-1.0f32..1.0) * 1e15,
            _ => rng.gen_range(-2.0..2.0),
        })
        .collect()
}

/// Runs `run` at every SIMD level this CPU supports and asserts that each
/// level's output has the portable level's bits.
#[cfg(test)]
pub(crate) fn assert_levels_agree(what: &str, run: impl Fn(remix_tensor::SimdLevel) -> Vec<f32>) {
    use remix_tensor::SimdLevel;
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    let portable = bits(run(SimdLevel::Portable));
    for level in SimdLevel::ALL
        .into_iter()
        .filter(|&l| l <= remix_tensor::simd_level())
    {
        assert_eq!(bits(run(level)), portable, "{what} at {level:?}");
    }
}

/// One sample through `layer` as a one-lane batch.
#[cfg(test)]
pub(crate) fn forward_one(layer: &mut dyn crate::Layer, x: &Tensor, mode: crate::Mode) -> Tensor {
    let y = layer
        .forward_lanes(x.one_lane(), mode)
        .expect("valid sample");
    y.only_lane().expect("one lane")
}

/// One sample's gradient through `layer` as a one-lane batch.
#[cfg(test)]
pub(crate) fn backward_one(
    layer: &mut dyn crate::Layer,
    g: &Tensor,
    wants: crate::Wants,
) -> Tensor {
    let dx = layer
        .backward_lanes(g.one_lane(), wants)
        .expect("valid gradient");
    if wants.input() {
        dx.only_lane().expect("one lane")
    } else {
        dx
    }
}

/// Runs `B` samples through `layer` as `B` one-lane batches and as one
/// `B`-lane batch — forward in [`crate::Mode::Inference`], then the input
/// gradient — and asserts the bits agree.
#[cfg(test)]
pub(crate) fn assert_lanes_match_one_lane(
    layer: &mut dyn crate::Layer,
    inputs: &[Tensor],
    grads: &[Tensor],
) {
    use crate::{Mode, Wants};
    let bits = |ts: &[Tensor]| -> Vec<Vec<u32>> {
        ts.iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    let (mut ys, mut dxs) = (Vec::new(), Vec::new());
    for (x, g) in inputs.iter().zip(grads) {
        ys.push(forward_one(layer, x, Mode::Inference));
        dxs.push(backward_one(layer, g, Wants::Input));
    }
    let y = layer
        .forward_lanes(
            Tensor::stack_lanes(inputs).expect("same-shape inputs"),
            Mode::Inference,
        )
        .expect("valid batch");
    let dx = layer
        .backward_lanes(
            Tensor::stack_lanes(grads).expect("same-shape gradients"),
            Wants::Input,
        )
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
