//! Instance normalization. Its lane loops are the kernels
//! [`norm_forward`] and [`norm_backward`], compiled at every SIMD level and
//! run at the widest this CPU reports (`remix_tensor::simd_kernel!`).

use super::plane_lanes_of;
use crate::{Layer, Mode, Wants};
use remix_tensor::{simd_kernel, Result, Tensor, TensorError};

/// Per-channel instance normalization with learnable affine parameters.
///
/// The zoo's deep architectures (ResNet, MobileNet, EfficientNetV2) rely on
/// batch normalization in their reference form. Batch statistics would tie
/// every sample of a mini-batch to the others, while this trainer's
/// contract is that a mini-batch step equals its samples' one-lane steps,
/// and a served verdict must not depend on what it is batched with. So the
/// normalization role is filled by *instance* normalization — per-sample
/// per-channel standardization with an exact backward pass through the
/// statistics. It is deterministic, identical between train and eval modes,
/// and keeps the deep zoo models trainable, which is what the reproduction
/// needs from BN.
#[derive(Debug, Clone)]
pub struct InstanceNorm2d {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    eps: f32,
    channels: usize,
    spatial: usize,
    /// The lane-major x̂ of the last forward, shaped `cached_shape`, and its
    /// σ per (channel, lane); both buffers are reused from call to call.
    cached_xhat: Vec<f32>,
    cached_shape: Vec<usize>,
    cached_sigma: Vec<f32>,
}

impl InstanceNorm2d {
    /// Creates an instance-norm layer over `in_shape = (channels, h, w)`.
    pub fn new(in_shape: (usize, usize, usize)) -> Self {
        let (c, h, w) = in_shape;
        Self {
            gamma: Tensor::ones(&[c]),
            beta: Tensor::zeros(&[c]),
            grad_gamma: Tensor::zeros(&[c]),
            grad_beta: Tensor::zeros(&[c]),
            eps: 1e-5,
            channels: c,
            spatial: h * w,
            cached_xhat: Vec::new(),
            cached_shape: Vec::new(),
            cached_sigma: vec![1.0; c],
        }
    }
}

/// Runs `$body` once per group of channels — `$k` channels of `$l` lanes
/// each, both constants — with `$c0` the group's first channel.
///
/// One channel's lanes are independent sums, which keep the adder busy
/// from 4 lanes up, so such batches run one channel at a time (`$k` = 1).
/// Below that, a channel's sum is one latency-bound chain, so 1-lane
/// batches run 8 channels side by side (`$l` = 1) and 2-lane batches 4
/// (`$l` = 2), with the channels left over one at a time. Interleaving
/// moves no chain: each (channel, lane) keeps its own sums in their own
/// order.
macro_rules! for_channel_groups {
    ($channels:expr, $lanes:ident, $c0:ident, $k:ident, $l:ident, $body:block) => {{
        let channels: usize = $channels;
        let mut $c0 = 0usize;
        if $lanes == 1 {
            while $c0 + 8 <= channels {
                const $k: usize = 8;
                const $l: usize = 1;
                $body
                $c0 += $k;
            }
        } else if $lanes == 2 {
            while $c0 + 4 <= channels {
                const $k: usize = 4;
                const $l: usize = 2;
                $body
                $c0 += $k;
            }
        }
        while $c0 < channels {
            const $k: usize = 1;
            const $l: usize = 1;
            $body
            $c0 += $k;
        }
    }};
}

simd_kernel! {
    /// InstanceNorm2d forward over the lane-major planes `x`
    /// (`[channels, spatial, lanes]`, `lanes = sigma.len() / gamma.len()`):
    /// normalizes `x` in place, writes x̂ to `xhat` and σ per (channel,
    /// lane) to `sigma`. Each lane runs the per-sample chains: a sum from
    /// -0.0 in spatial order for the mean, then for the variance, then
    /// `x̂ = (x − μ)/σ` and `γ·x̂ + β`.
    fn norm_forward(
        x: &mut [f32],
        xhat: &mut [f32],
        sigma: &mut [f32],
        gamma: &[f32],
        beta: &[f32],
        n: f32,
        eps: f32,
    ) {
        let channels = gamma.len();
        let lanes = sigma.len() / channels;
        let plane = x.len() / channels;
        for_channel_groups!(channels, lanes, c0, K, L, {
            let planes = c0 * plane..(c0 + K) * plane;
            let (x, xh) = (&mut x[planes.clone()], &mut xhat[planes]);
            let sig = &mut sigma[c0 * lanes..(c0 + K) * lanes];
            let (g, b) = (&gamma[c0..c0 + K], &beta[c0..c0 + K]);
            if K == 1 {
                for_lane_groups!(lanes, b0, G, {
                    let s = lane_stats::<G>(x, lanes, b0, n, eps);
                    sig[b0..b0 + G].copy_from_slice(&s.sigma);
                    normalize::<G>(x, xh, lanes, b0, &s, (g[0], b[0]));
                });
            } else {
                let stats = interleaved_stats::<K, L>(x, n, eps);
                for (c, s) in stats.iter().enumerate() {
                    let plane = c * plane..(c + 1) * plane;
                    sig[c * L..][..L].copy_from_slice(&s.sigma);
                    normalize::<L>(&mut x[plane.clone()], &mut xh[plane], L, 0, s, (g[c], b[c]));
                }
            }
        });
    }
}

/// One group of lanes' mean and σ.
struct LaneStats<const G: usize> {
    mean: [f32; G],
    sigma: [f32; G],
}

/// The statistics of lanes `b0..b0+G` of one channel plane `x`.
#[inline(always)]
fn lane_stats<const G: usize>(
    x: &[f32],
    lanes: usize,
    b0: usize,
    n: f32,
    eps: f32,
) -> LaneStats<G> {
    let mut sum = [-0.0f32; G];
    for row in x.chunks_exact(lanes) {
        let v = lane_group!(row, b0, G);
        for i in 0..G {
            sum[i] += v[i];
        }
    }
    let mean = sum.map(|s| s / n);
    let mut var = [-0.0f32; G];
    for row in x.chunks_exact(lanes) {
        let v = lane_group!(row, b0, G);
        for i in 0..G {
            var[i] += (v[i] - mean[i]) * (v[i] - mean[i]);
        }
    }
    LaneStats {
        mean,
        sigma: var.map(|v| (v / n + eps).sqrt()),
    }
}

/// [`lane_stats`] of every lane of `K` channel planes of `L` lanes each,
/// their chains interleaved. Out of line, it compiles once, at the
/// baseline level: wider variants measured no faster (see
/// [`interleaved_grad_sums`]).
#[inline(never)]
fn interleaved_stats<const K: usize, const L: usize>(
    x: &[f32],
    n: f32,
    eps: f32,
) -> [LaneStats<L>; K] {
    let plane = x.len() / K;
    let planes: [&[f32]; K] = std::array::from_fn(|c| &x[c * plane..][..plane]);
    let mut sum = [[-0.0f32; L]; K];
    for r in (0..plane).step_by(L) {
        for c in 0..K {
            for i in 0..L {
                sum[c][i] += planes[c][r + i];
            }
        }
    }
    let mean = sum.map(|s| s.map(|s| s / n));
    let mut var = [[-0.0f32; L]; K];
    for r in (0..plane).step_by(L) {
        for c in 0..K {
            for i in 0..L {
                let v = planes[c][r + i];
                var[c][i] += (v - mean[c][i]) * (v - mean[c][i]);
            }
        }
    }
    std::array::from_fn(|c| LaneStats {
        mean: mean[c],
        sigma: var[c].map(|v| (v / n + eps).sqrt()),
    })
}

/// `x̂ = (x − μ)/σ` into `xh` and `γ·x̂ + β` into `x`, lanes `b0..b0+G` of
/// one channel plane.
#[inline(always)]
fn normalize<const G: usize>(
    x: &mut [f32],
    xh: &mut [f32],
    lanes: usize,
    b0: usize,
    s: &LaneStats<G>,
    (g, b): (f32, f32),
) {
    for (row, hrow) in x.chunks_exact_mut(lanes).zip(xh.chunks_exact_mut(lanes)) {
        let (v, h) = (lane_group!(mut row, b0, G), lane_group!(mut hrow, b0, G));
        for i in 0..G {
            h[i] = (v[i] - s.mean[i]) / s.sigma[i];
            v[i] = g * h[i] + b;
        }
    }
}

simd_kernel! {
    /// InstanceNorm2d backward over the lane-major output gradient planes
    /// `go`, with the forward's `xhat` and `sigma`: per (channel, lane),
    /// `dx = γ/(Nσ) · (N·dy − Σdy − x̂·Σ(dy·x̂))`, both sums from -0.0 in
    /// spatial order, written over `go` when `input` is set; with `params`,
    /// `dγ += Σ(dy·x̂)` and `dβ += Σdy` lane after lane.
    fn norm_backward(
        go: &mut [f32],
        xhat: &[f32],
        sigma: &[f32],
        gamma: &[f32],
        params: Option<(&mut [f32], &mut [f32])>,
        n: f32,
        input: bool,
    ) {
        let channels = gamma.len();
        let lanes = sigma.len() / channels;
        let plane = go.len() / channels;
        let mut params = params;
        for_channel_groups!(channels, lanes, c0, K, L, {
            let planes = c0 * plane..(c0 + K) * plane;
            let (go, xh) = (&mut go[planes.clone()], &xhat[planes]);
            let sig = &sigma[c0 * lanes..(c0 + K) * lanes];
            let g = &gamma[c0..c0 + K];
            if K == 1 {
                for_lane_groups!(lanes, b0, G, {
                    let sums = grad_sums::<G>(go, xh, lanes, b0);
                    sums.accumulate(&mut params, c0);
                    if input {
                        let scale = lane_group!(sig, b0, G).map(|s| g[0] / (n * s));
                        input_grad::<G>(go, xh, lanes, b0, &sums, scale, n);
                    }
                });
            } else {
                let sums = interleaved_grad_sums::<K, L>(go, xh);
                for (c, sums) in sums.iter().enumerate() {
                    sums.accumulate(&mut params, c0 + c);
                    if input {
                        let plane = c * plane..(c + 1) * plane;
                        let scale = lane_group!(sig, c * L, L).map(|s| g[c] / (n * s));
                        input_grad::<L>(&mut go[plane.clone()], &xh[plane], L, 0, sums, scale, n);
                    }
                }
            }
        });
    }
}

/// One group of lanes' `Σdy` and `Σ(dy·x̂)`.
struct GradSums<const G: usize> {
    dy: [f32; G],
    dy_xhat: [f32; G],
}

impl<const G: usize> GradSums<G> {
    /// `dγ += Σ(dy·x̂)` and `dβ += Σdy` of channel `c`, lane after lane,
    /// into the parameter gradients `params`, if any.
    #[inline(always)]
    fn accumulate(&self, params: &mut Option<(&mut [f32], &mut [f32])>, c: usize) {
        if let Some((gg, gb)) = params {
            for (dyh, dy) in self.dy_xhat.iter().zip(&self.dy) {
                gg[c] += dyh;
                gb[c] += dy;
            }
        }
    }
}

/// The gradient sums of lanes `b0..b0+G` of one channel plane.
#[inline(always)]
fn grad_sums<const G: usize>(go: &[f32], xh: &[f32], lanes: usize, b0: usize) -> GradSums<G> {
    let (mut dy, mut dy_xhat) = ([-0.0f32; G], [-0.0f32; G]);
    for (row, hrow) in go.chunks_exact(lanes).zip(xh.chunks_exact(lanes)) {
        let (d, h) = (lane_group!(row, b0, G), lane_group!(hrow, b0, G));
        for i in 0..G {
            dy[i] += d[i];
            dy_xhat[i] += d[i] * h[i];
        }
    }
    GradSums { dy, dy_xhat }
}

/// [`grad_sums`] of every lane of `K` channel planes of `L` lanes each,
/// their chains interleaved. Out of line, it compiles once, at the
/// baseline level: inlined into the AVX2 and AVX-512 variants of
/// [`norm_backward`], 2-lane batches measured 1.4–1.8× slower, as LLVM
/// then packs the `K·L` scalar chains into shuffled vectors.
#[inline(never)]
fn interleaved_grad_sums<const K: usize, const L: usize>(
    go: &[f32],
    xh: &[f32],
) -> [GradSums<L>; K] {
    let plane = go.len() / K;
    let gos: [&[f32]; K] = std::array::from_fn(|c| &go[c * plane..][..plane]);
    let xhs: [&[f32]; K] = std::array::from_fn(|c| &xh[c * plane..][..plane]);
    let (mut dy, mut dy_xhat) = ([[-0.0f32; L]; K], [[-0.0f32; L]; K]);
    for r in (0..plane).step_by(L) {
        for c in 0..K {
            for i in 0..L {
                let (d, h) = (gos[c][r + i], xhs[c][r + i]);
                dy[c][i] += d;
                dy_xhat[c][i] += d * h;
            }
        }
    }
    std::array::from_fn(|c| GradSums {
        dy: dy[c],
        dy_xhat: dy_xhat[c],
    })
}

/// The input gradient over `go`, lanes `b0..b0+G` of one channel plane.
#[inline(always)]
fn input_grad<const G: usize>(
    go: &mut [f32],
    xh: &[f32],
    lanes: usize,
    b0: usize,
    sums: &GradSums<G>,
    scale: [f32; G],
    n: f32,
) {
    for (row, hrow) in go.chunks_exact_mut(lanes).zip(xh.chunks_exact(lanes)) {
        let (d, h) = (lane_group!(mut row, b0, G), lane_group!(hrow, b0, G));
        for i in 0..G {
            d[i] = scale[i] * (n * d[i] - sums.dy[i] - h[i] * sums.dy_xhat[i]);
        }
    }
}

impl Layer for InstanceNorm2d {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_lanes(&mut self, mut input: Tensor, _mode: Mode) -> Result<Tensor> {
        let lanes = plane_lanes_of(
            &input,
            self.channels,
            self.spatial,
            "instancenorm forward_lanes",
        )?;
        // Every slot of both caches is written below.
        self.cached_xhat.resize(input.len(), 0.0);
        self.cached_sigma.resize(self.channels * lanes, 0.0);
        self.cached_shape.clear();
        self.cached_shape.extend_from_slice(input.shape());
        norm_forward(
            input.data_mut(),
            &mut self.cached_xhat,
            &mut self.cached_sigma,
            self.gamma.data(),
            self.beta.data(),
            self.spatial as f32,
            self.eps,
        );
        Ok(input)
    }

    fn backward_lanes(&mut self, mut grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        plane_lanes_of(
            &grad_out,
            self.channels,
            self.spatial,
            "instancenorm backward_lanes",
        )?;
        if grad_out.shape() != self.cached_shape {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.shape().to_vec(),
                right: self.cached_shape.clone(),
                op: "instancenorm backward_lanes",
            });
        }
        let params = wants
            .params()
            .then(|| (self.grad_gamma.data_mut(), self.grad_beta.data_mut()));
        norm_backward(
            grad_out.data_mut(),
            &self.cached_xhat,
            &self.cached_sigma,
            self.gamma.data(),
            params,
            self.spatial as f32,
            wants.input(),
        );
        Ok(if wants.input() {
            grad_out
        } else {
            Tensor::default()
        })
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visit(&mut self.gamma, &mut self.grad_gamma);
        visit(&mut self.beta, &mut self.grad_beta);
    }

    fn name(&self) -> &'static str {
        "InstanceNorm2d"
    }

    fn param_count(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{assert_levels_agree, backward_one, edge_values, forward_one, TEST_LANES};
    use rand::{rngs::StdRng, SeedableRng};
    use remix_tensor::{SimdLevel, Tensor};

    #[test]
    fn kernels_agree_bitwise_at_every_simd_level() {
        // 11 channels: a group of 8 (1 lane) or two of 4 (2 lanes) and the
        // channels left over; 15 positions, an odd plane.
        let (channels, spatial) = (11, 15);
        let n = spatial as f32;
        let (gamma, beta) = (edge_values(channels, 1), edge_values(channels, 2));
        for lanes in TEST_LANES {
            let len = channels * spatial * lanes;
            let x = edge_values(len, 3);
            let forward = |level| {
                let (mut x, mut xhat) = (x.clone(), vec![0.0; len]);
                let mut sigma = vec![0.0; channels * lanes];
                norm_forward::at(level, &mut x, &mut xhat, &mut sigma, &gamma, &beta, n, 1e-5);
                [x, xhat, sigma].concat()
            };
            assert_levels_agree(&format!("norm_forward x{lanes}"), forward);
            let cached = forward(SimdLevel::Portable);
            let (xhat, sigma) = cached[len..].split_at(len);
            let go = edge_values(len, 4);
            for (params, input) in [(true, true), (false, true), (true, false)] {
                let backward = |level| {
                    let mut go = go.clone();
                    let (mut gg, mut gb) = (edge_values(channels, 5), edge_values(channels, 6));
                    let grads = params.then_some((&mut gg[..], &mut gb[..]));
                    norm_backward::at(level, &mut go, xhat, sigma, &gamma, grads, n, input);
                    [go, gg, gb].concat()
                };
                assert_levels_agree(
                    &format!("norm_backward x{lanes} {params} {input}"),
                    backward,
                );
            }
        }
    }

    #[test]
    fn lanes_keep_the_per_sample_signed_zeros() {
        // A channel of -0.0 makes every sum's sign hinge on its -0.0 start
        // (`Iterator::sum`'s); the other lanes hold ordinary values.
        let mut norm = InstanceNorm2d::new((2, 2, 2));
        let mut rng = StdRng::seed_from_u64(4);
        let mut xs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[2, 2, 2], 1.0, &mut rng))
            .collect();
        let mut gs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[2, 2, 2], 1.0, &mut rng))
            .collect();
        xs[1].data_mut()[..4].fill(-0.0);
        gs[1].data_mut()[..4].fill(-0.0);
        gs[2].data_mut()[4..].fill(-0.0);
        crate::layers::assert_lanes_match_one_lane(&mut norm, &xs, &gs);
    }

    #[test]
    fn output_is_standardized_per_channel() {
        let mut norm = InstanceNorm2d::new((2, 4, 4));
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(&[2, 4, 4], 3.0, &mut rng).add_scalar(5.0);
        let y = forward_one(&mut norm, &x, Mode::Train);
        for c in 0..2 {
            let ch = y.index_axis0(c).unwrap();
            assert!(ch.mean().abs() < 1e-4, "channel {c} mean {}", ch.mean());
            assert!(
                (ch.std() - 1.0).abs() < 1e-2,
                "channel {c} std {}",
                ch.std()
            );
        }
    }

    #[test]
    fn train_and_eval_agree() {
        let mut norm = InstanceNorm2d::new((1, 3, 3));
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(&[1, 3, 3], 1.0, &mut rng);
        let a = forward_one(&mut norm, &x, Mode::Train);
        let b = forward_one(&mut norm, &x, Mode::Eval);
        assert_eq!(a, b);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut norm = InstanceNorm2d::new((2, 3, 3));
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[2, 3, 3], 1.0, &mut rng);
        // non-trivial downstream loss: weighted sum
        let w = Tensor::randn(&[2, 3, 3], 1.0, &mut rng);
        let loss = |norm: &mut InstanceNorm2d, x: &Tensor| -> f32 {
            forward_one(norm, x, Mode::Train).mul(&w).unwrap().sum()
        };
        let base = loss(&mut norm, &x);
        let dx = backward_one(&mut norm, &w, Wants::Both);
        let eps = 1e-2;
        for &i in &[0usize, 4, 9, 13, 17] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let num = (loss(&mut norm, &xp) - base) / eps;
            assert!(
                (num - dx.data()[i]).abs() < 5e-2,
                "grad at {i}: fd={num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn constant_channel_does_not_blow_up() {
        let mut norm = InstanceNorm2d::new((1, 2, 2));
        let y = forward_one(&mut norm, &Tensor::full(&[1, 2, 2], 7.0), Mode::Train);
        assert!(!y.has_non_finite());
        let dx = backward_one(&mut norm, &Tensor::ones(&[1, 2, 2]), Wants::Both);
        assert!(!dx.has_non_finite());
    }

    #[test]
    fn gamma_beta_gradients_accumulate() {
        let mut norm = InstanceNorm2d::new((1, 2, 2));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        forward_one(&mut norm, &x, Mode::Train);
        backward_one(&mut norm, &Tensor::ones(&[1, 2, 2]), Wants::Both);
        assert_eq!(norm.grad_beta.data()[0], 4.0);
        // x̂ sums to ~0, so dγ ≈ 0 for a uniform upstream gradient
        assert!(norm.grad_gamma.data()[0].abs() < 1e-4);
    }
}
