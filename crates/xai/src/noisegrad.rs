//! NoiseGrad and FusionGrad (Bykov et al.), the optimized SmoothGrad
//! variants the paper's Discussion cites as runtime optimizations
//! ("Optimizations to Runtime Overhead"): instead of (only) perturbing the
//! input, these perturb the *model weights*.
//!
//! * **NoiseGrad** — gradients averaged over multiplicative Gaussian noise on
//!   the parameters;
//! * **FusionGrad** — NoiseGrad and SmoothGrad combined (noise on both
//!   weights and inputs).
//!
//! The paper notes such techniques trade faithfulness for speed; the
//! `ablations` binary and `remix-xai`'s evaluation metrics let that tradeoff
//! be measured here.
//!
//! Unlike the input-perturbation techniques, NoiseGrad and FusionGrad stay
//! per-sample under the batched inference engine: each sample evaluates a
//! *differently-noised model*, and a batched forward shares one set of
//! weights across the whole batch. They still profit from the
//! inference-mode input-gradient path (no parameter-gradient caches).

use crate::feature::aggregate_channels;
use crate::ExplainerConfig;
use rand::Rng;
use remix_nn::{Layer, Model};
use remix_tensor::Tensor;

/// Applies multiplicative Gaussian noise `w ← w·(1+ε)` to every parameter,
/// returning a copy of every parameter from before, for [`restore_params`].
/// Dividing `(1+ε)` back out would not restore them: in f32,
/// `w·(1+ε)/(1+ε)` is not always `w`.
fn perturb_params(model: &mut Model, std: f32, rng: &mut impl Rng) -> Vec<Tensor> {
    let mut saved = Vec::new();
    model.net_mut().visit_params(&mut |param, _| {
        saved.push(param.clone());
        let noise = Tensor::randn(param.shape(), std, rng);
        for (p, &n) in param.data_mut().iter_mut().zip(noise.data()) {
            *p *= 1.0 + n;
        }
    });
    saved
}

/// Undoes [`perturb_params`] by copying the saved parameters back.
fn restore_params(model: &mut Model, saved: &[Tensor]) {
    let mut saved = saved.iter();
    model.net_mut().visit_params(&mut |param, _| {
        let before = saved.next().expect("one saved tensor per parameter");
        param.data_mut().copy_from_slice(before.data());
    });
}

/// NoiseGrad feature matrix: `n_samples` input gradients under weight noise.
///
/// The parameters are restored bit for bit (copied back from before the
/// noise) after each sample, so a call leaves the model as it found it, and
/// two calls with the same rng return the same bits. The round trip goes
/// through `visit_params`, which drops a frozen model's prepacked weights:
/// later calls pack per call until the model is frozen again, with
/// bit-identical results.
pub fn noisegrad(
    model: &mut Model,
    image: &Tensor,
    class: usize,
    config: &ExplainerConfig,
    rng: &mut impl Rng,
) -> Tensor {
    let mut acc = Tensor::zeros(image.shape());
    for _ in 0..config.budget.sg_samples.max(1) {
        let noises = perturb_params(model, config.sg_sigma * 0.5, rng);
        let grad = model.input_gradient(image, class);
        restore_params(model, &noises);
        acc.add_assign(&grad.abs()).expect("gradient shape");
    }
    aggregate_channels(&acc)
}

/// FusionGrad feature matrix: weight noise *and* input noise per sample.
pub fn fusiongrad(
    model: &mut Model,
    image: &Tensor,
    class: usize,
    config: &ExplainerConfig,
    rng: &mut impl Rng,
) -> Tensor {
    let mut acc = Tensor::zeros(image.shape());
    for _ in 0..config.budget.sg_samples.max(1) {
        let noises = perturb_params(model, config.sg_sigma * 0.5, rng);
        let noisy_input = image.with_gaussian_noise(config.sg_sigma, rng);
        let grad = model.input_gradient(&noisy_input, class);
        restore_params(model, &noises);
        acc.add_assign(&grad.abs()).expect("gradient shape");
    }
    aggregate_channels(&acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use remix_nn::layers::{Dense, Flatten, Relu};
    use remix_nn::{InputSpec, Sequential};

    fn model() -> Model {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Flatten::new());
        net.push(Dense::new(16, 8, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(8, 3, &mut rng));
        Model::new(
            net,
            InputSpec {
                channels: 1,
                size: 4,
                num_classes: 3,
            },
        )
    }

    /// The bits of every parameter of `m`, in `visit_params` order.
    fn param_bits(m: &mut Model) -> Vec<u32> {
        let mut bits = Vec::new();
        m.net_mut().visit_params(&mut |param, _| {
            bits.extend(param.data().iter().map(|v| v.to_bits()));
        });
        bits
    }

    #[test]
    fn perturb_restore_roundtrips_exactly() {
        let mut m = model();
        let img = Tensor::full(&[1, 4, 4], 0.3);
        let before = m.logits(&img);
        let bits = param_bits(&mut m);
        let mut rng = StdRng::seed_from_u64(2);
        let saved = perturb_params(&mut m, 0.1, &mut rng);
        let during = m.logits(&img);
        assert_ne!(before, during, "perturbation had no effect");
        restore_params(&mut m, &saved);
        assert_eq!(param_bits(&mut m), bits, "parameters moved");
        assert_eq!(m.logits(&img), before);
    }

    #[test]
    fn noisegrad_and_fusiongrad_leave_the_model_and_repeat_exactly() {
        let mut m = model();
        let img = Tensor::rand_uniform(&[1, 4, 4], 0.0, 1.0, &mut StdRng::seed_from_u64(7));
        let bits = param_bits(&mut m);
        let cfg = ExplainerConfig::default();
        for f in [noisegrad, fusiongrad] {
            let first = f(&mut m, &img, 1, &cfg, &mut StdRng::seed_from_u64(8));
            assert_eq!(param_bits(&mut m), bits, "parameters moved");
            let second = f(&mut m, &img, 1, &cfg, &mut StdRng::seed_from_u64(8));
            let matrix_bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(matrix_bits(&first), matrix_bits(&second));
        }
    }

    #[test]
    fn noisegrad_and_fusiongrad_produce_valid_matrices() {
        let mut m = model();
        let img = Tensor::rand_uniform(&[1, 4, 4], 0.0, 1.0, &mut StdRng::seed_from_u64(3));
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = ExplainerConfig::default();
        for f in [noisegrad, fusiongrad] {
            let matrix = f(&mut m, &img, 0, &cfg, &mut rng);
            assert_eq!(matrix.shape(), &[4, 4]);
            assert!(!matrix.has_non_finite());
            assert!(matrix.max().unwrap() <= 1.0);
        }
    }

    #[test]
    fn noisegrad_resembles_plain_gradient_on_average() {
        let mut m = model();
        let img = Tensor::rand_uniform(&[1, 4, 4], 0.0, 1.0, &mut StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = ExplainerConfig {
            budget: crate::XaiBudget {
                sg_samples: 16,
                ..crate::XaiBudget::default()
            },
            sg_sigma: 0.05,
            ..ExplainerConfig::default()
        };
        let ng = noisegrad(&mut m, &img, 0, &cfg, &mut rng);
        let plain = aggregate_channels(&m.input_gradient(&img, 0).abs());
        // small weight noise: the maps should correlate strongly
        let d = ng
            .data()
            .iter()
            .zip(plain.data())
            .map(|(&a, &b)| (a - b).abs())
            .sum::<f32>()
            / ng.len() as f32;
        assert!(d < 0.4, "NoiseGrad diverged from the plain gradient ({d})");
    }
}
