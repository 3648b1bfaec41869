//! Smooth Gradients (Smilkov et al.): input gradients averaged over
//! Gaussian-noised copies of the input, which suppresses gradient noise and
//! sharpens the saliency map relative to a single gradient.
//!
//! One kernel, [`sweep`], serves every entry point. An item reads its
//! noise as standard-normal draws `z`: sample `s` of an item with `N`
//! values perturbs value `e` by `z[s·N + e]·σ`, which is exactly what
//! drawing `sg_samples` noisy copies from one rng would do, copy by copy and
//! value by value. [`crate::Explainer::explain`] and
//! [`crate::Explainer::explain_many`] draw `z` from each item's rng;
//! [`crate::Explainer::explain_many_with_draws`] takes draws made once and
//! shared by every item (a `Remix` member's memoised stream).
//!
//! The sweeps are lane-major: the kernel writes each `batch_size`-lane
//! chunk of the items' noisy copies straight into a `[C, H, W, B]` tensor as
//! `x + z·σ` (one rounding for the product, one for the sum, never a fused
//! multiply-add), runs one [`Model::input_gradient_lanes`] sweep, and folds
//! `|g|` into each item's accumulator straight from the lane-major
//! gradient, in sample order from `+0.0`. Every element keeps the chain of
//! the per-copy loop (draw a noisy copy, take its gradient, add its `abs()`
//! to an accumulator), so every bit does too, for every batch size and
//! chunk layout.

use crate::feature::aggregate_channels;
use crate::ExplainerConfig;
use remix_nn::Model;
use remix_tensor::Tensor;

/// SmoothGrad feature matrices for `(image, class)` items in one set of
/// lane-major gradient sweeps; `draws[i]` holds at least
/// `sg_samples × image.len()` standard-normal draws for item `i`.
///
/// Each noisy copy backpropagates its own item's class and each lane's
/// gradient depends only on that lane, so how the copies fall into
/// `batch_size` chunks — across item boundaries included — cannot change a
/// bit of any result.
pub(crate) fn sweep(
    model: &mut Model,
    items: &[(&Tensor, usize)],
    draws: &[&[f32]],
    config: &ExplainerConfig,
) -> Vec<Tensor> {
    assert_eq!(items.len(), draws.len(), "one noise slice per item");
    let Some(&(first, _)) = items.first() else {
        return Vec::new();
    };
    let shape = first.shape();
    let len = first.len();
    let samples = config.budget.sg_samples.max(1);
    for ((image, class), z) in items.iter().zip(draws) {
        assert!(*class < model.num_classes(), "class out of range");
        assert_eq!(image.shape(), shape, "items share one input shape");
        assert!(z.len() >= samples * len, "too few noise draws");
    }
    let sigma = config.sg_sigma;
    let copies = items.len() * samples;
    remix_trace::add(remix_trace::Counter::XaiPerturbations, copies as u64);
    let mut acc: Vec<Vec<f32>> = vec![vec![0.0; len]; items.len()];
    let width = config.budget.effective_batch_size();
    for start in (0..copies).step_by(width) {
        remix_trace::incr(remix_trace::Counter::XaiBatches);
        // Lane `b` is copy `start + b`: item `(start + b) / samples`,
        // sample `(start + b) % samples`.
        let lanes: Vec<(usize, &[f32], &[f32])> = (start..copies.min(start + width))
            .map(|copy| {
                let (i, s) = (copy / samples, copy % samples);
                (i, items[i].0.data(), &draws[i][s * len..(s + 1) * len])
            })
            .collect();
        let b = lanes.len();
        let mut data = vec![0.0f32; len * b];
        for (e, row) in data.chunks_exact_mut(b).enumerate() {
            for (v, (_, x, z)) in row.iter_mut().zip(&lanes) {
                *v = x[e] + z[e] * sigma;
            }
        }
        let mut lane_shape = shape.to_vec();
        lane_shape.push(b);
        let batch = Tensor::from_vec(data, &lane_shape).expect("lane-major batch");
        let classes: Vec<usize> = lanes.iter().map(|&(i, _, _)| items[i].1).collect();
        let grads = model
            .input_gradient_lanes(batch, &classes)
            .expect("noisy inputs match the model spec");
        for (e, row) in grads.data().chunks_exact(b).enumerate() {
            for (g, &(i, _, _)) in row.iter().zip(&lanes) {
                acc[i][e] += g.abs();
            }
        }
    }
    acc.into_iter()
        .map(|sum| aggregate_channels(&Tensor::from_vec(sum, shape).expect("item shape")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Explainer, XaiBudget, XaiTechnique};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use remix_nn::layers::{Dense, Flatten};
    use remix_nn::{zoo, Arch, InputSpec, Sequential};

    fn smoothgrad(
        model: &mut Model,
        image: &Tensor,
        class: usize,
        config: &ExplainerConfig,
        rng: &mut impl Rng,
    ) -> Tensor {
        Explainer::with_config(XaiTechnique::SmoothGrad, *config).explain(model, image, class, rng)
    }

    /// A linear model whose gradient is its weight row — ground truth for
    /// saliency.
    fn linear_model(weights: &[f32]) -> Model {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Flatten::new());
        let mut dense = Dense::new(4, 2, &mut rng);
        // class-0 row = weights, class-1 row = zeros
        let mut w = vec![0.0f32; 8];
        w[..4].copy_from_slice(weights);
        dense_set(&mut dense, &w);
        net.push(dense);
        Model::new(
            net,
            InputSpec {
                channels: 1,
                size: 2,
                num_classes: 2,
            },
        )
    }

    fn dense_set(dense: &mut Dense, w: &[f32]) {
        use remix_nn::Layer;
        dense.visit_params(&mut |p, _| {
            if p.len() == w.len() {
                p.data_mut().copy_from_slice(w);
            }
        });
    }

    #[test]
    fn saliency_matches_linear_weights() {
        let mut model = linear_model(&[5.0, 0.0, 0.0, 1.0]);
        let image = Tensor::full(&[1, 2, 2], 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let m = smoothgrad(&mut model, &image, 0, &ExplainerConfig::default(), &mut rng);
        // strongest attribution where the weight is largest
        assert_eq!(m.argmax().unwrap(), 0);
        assert_eq!(m.at(&[0, 0]), 1.0);
        assert!(m.at(&[0, 1]) < 0.1);
        assert!(m.at(&[1, 1]) > 0.1); // the 1.0-weight pixel is nonzero
    }

    #[test]
    fn more_samples_reduce_variance() {
        let mut model = linear_model(&[1.0, 1.0, 1.0, 1.0]);
        let image = Tensor::full(&[1, 2, 2], 0.5);
        // linear model: gradient is constant, so any sample count gives the
        // same (uniform) map; just confirm determinism under seeds
        let cfg = ExplainerConfig {
            budget: XaiBudget {
                sg_samples: 16,
                ..XaiBudget::default()
            },
            ..ExplainerConfig::default()
        };
        let a = smoothgrad(&mut model, &image, 0, &cfg, &mut StdRng::seed_from_u64(3));
        let b = smoothgrad(&mut model, &image, 0, &cfg, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    /// The historical loop, one noisy copy and one gradient at a time: draw
    /// a copy as `x + z·σ`, take its gradient, add `|g|` to a `+0.0`
    /// accumulator.
    fn reference(
        model: &mut Model,
        image: &Tensor,
        class: usize,
        config: &ExplainerConfig,
        rng: &mut impl Rng,
    ) -> Tensor {
        let mut acc = Tensor::zeros(image.shape());
        for _ in 0..config.budget.sg_samples.max(1) {
            let noisy = image.with_gaussian_noise(config.sg_sigma, rng);
            let grad = model.input_gradient(&noisy, class);
            acc.add_assign(&grad.abs()).expect("gradient shape");
        }
        aggregate_channels(&acc)
    }

    #[test]
    fn lane_major_kernel_keeps_the_per_copy_chain() {
        let spec = InputSpec {
            channels: 3,
            size: 8,
            num_classes: 4,
        };
        let mut model = Model::new(
            zoo::build(Arch::MobileNet, spec, &mut StdRng::seed_from_u64(6)),
            spec,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng))
            .collect();
        let items: Vec<(&Tensor, usize)> =
            images.iter().enumerate().map(|(i, x)| (x, i % 4)).collect();
        for (samples, batch_size) in [(1, 1), (3, 2), (8, 5), (8, 32)] {
            let config = ExplainerConfig {
                budget: XaiBudget {
                    sg_samples: samples,
                    batch_size,
                    ..XaiBudget::default()
                },
                ..ExplainerConfig::default()
            };
            let expected: Vec<Tensor> = items
                .iter()
                .enumerate()
                .map(|(i, &(x, c))| {
                    reference(
                        &mut model,
                        x,
                        c,
                        &config,
                        &mut StdRng::seed_from_u64(i as u64),
                    )
                })
                .collect();
            let mut rngs: Vec<StdRng> =
                (0..items.len() as u64).map(StdRng::seed_from_u64).collect();
            let explainer = Explainer::with_config(XaiTechnique::SmoothGrad, config);
            let many = explainer.explain_many(&mut model, &items, &mut rngs);
            let bits = |ts: &[Tensor]| -> Vec<u32> {
                ts.iter()
                    .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                    .collect()
            };
            assert_eq!(
                bits(&many),
                bits(&expected),
                "{samples} samples, batch {batch_size}"
            );
        }
    }
}
