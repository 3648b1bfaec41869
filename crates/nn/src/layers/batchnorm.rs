use super::plane_lanes_of;
use crate::{Layer, Mode, Wants};
use remix_tensor::{Result, Tensor, TensorError};

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
    cached_xhat: Tensor,
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
            cached_xhat: Tensor::default(),
            cached_sigma: vec![1.0; c],
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
        let (n, eps) = (self.spatial as f32, self.eps);
        let mut xhat = vec![0.0f32; input.len()];
        let mut sigma = vec![0.0f32; self.channels * lanes];
        let plane = self.spatial * lanes;
        for (c, ((x, xh), sig)) in input
            .data_mut()
            .chunks_exact_mut(plane)
            .zip(xhat.chunks_exact_mut(plane))
            .zip(sigma.chunks_exact_mut(lanes))
            .enumerate()
        {
            let (g, b) = (self.gamma.data()[c], self.beta.data()[c]);
            // Each lane runs the per-sample chains: `Iterator::sum` from
            // -0.0 in spatial order for the mean, then for the variance.
            for_lane_groups!(lanes, b0, G, {
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
                let s = var.map(|v| (v / n + eps).sqrt());
                sig[b0..b0 + G].copy_from_slice(&s);
                for (row, hrow) in x.chunks_exact_mut(lanes).zip(xh.chunks_exact_mut(lanes)) {
                    let (v, h) = (lane_group!(mut row, b0, G), lane_group!(mut hrow, b0, G));
                    for i in 0..G {
                        h[i] = (v[i] - mean[i]) / s[i];
                        v[i] = g * h[i] + b;
                    }
                }
            });
        }
        self.cached_xhat = Tensor::from_vec(xhat, input.shape())?;
        self.cached_sigma = sigma;
        Ok(input)
    }

    fn backward_lanes(&mut self, mut grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        let lanes = plane_lanes_of(
            &grad_out,
            self.channels,
            self.spatial,
            "instancenorm backward_lanes",
        )?;
        if grad_out.shape() != self.cached_xhat.shape() {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.shape().to_vec(),
                right: self.cached_xhat.shape().to_vec(),
                op: "instancenorm backward_lanes",
            });
        }
        let n = self.spatial as f32;
        let plane = self.spatial * lanes;
        for (c, ((go, xh), sig)) in grad_out
            .data_mut()
            .chunks_exact_mut(plane)
            .zip(self.cached_xhat.data().chunks_exact(plane))
            .zip(self.cached_sigma.chunks_exact(lanes))
            .enumerate()
        {
            let g = self.gamma.data()[c];
            // dx = γ/(Nσ) · (N·dy − Σdy − x̂·Σ(dy·x̂)), both sums from -0.0
            // per lane; dγ += Σ(dy·x̂) and dβ += Σdy lane after lane.
            for_lane_groups!(lanes, b0, G, {
                let (mut sum_dy, mut sum_dy_xhat) = ([-0.0f32; G], [-0.0f32; G]);
                for (row, hrow) in go.chunks_exact(lanes).zip(xh.chunks_exact(lanes)) {
                    let (d, h) = (lane_group!(row, b0, G), lane_group!(hrow, b0, G));
                    for i in 0..G {
                        sum_dy[i] += d[i];
                        sum_dy_xhat[i] += d[i] * h[i];
                    }
                }
                if wants.params() {
                    for i in 0..G {
                        self.grad_gamma.data_mut()[c] += sum_dy_xhat[i];
                        self.grad_beta.data_mut()[c] += sum_dy[i];
                    }
                }
                if wants.input() {
                    let scale = lane_group!(sig, b0, G).map(|s| g / (n * s));
                    for (row, hrow) in go.chunks_exact_mut(lanes).zip(xh.chunks_exact(lanes)) {
                        let (d, h) = (lane_group!(mut row, b0, G), lane_group!(hrow, b0, G));
                        for i in 0..G {
                            d[i] = scale[i] * (n * d[i] - sum_dy[i] - h[i] * sum_dy_xhat[i]);
                        }
                    }
                }
            });
        }
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
    use crate::layers::{backward_one, forward_one};
    use rand::{rngs::StdRng, SeedableRng};
    use remix_tensor::Tensor;

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
