//! Mini-batch training loop with optional per-sample weights.

use crate::{cross_entropy, Adam, Layer, Mode, Model, Optimizer, Sgd, Wants};
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use remix_tensor::Tensor;

/// Most lanes per forward/backward pass within a mini-batch: a full GEMM
/// panel and the widest per-lane loop group.
const TRAIN_LANES: usize = 16;

/// Lane-major input floats a training pass aims for: 8 lanes of a 3×32×32
/// image. Wider passes let a 32-px layer's lane-major activations outgrow
/// L2 — 16 lanes made MobileNet@32 steps slower than one lane at a time —
/// while 16-px images and feature vectors still get full 16-lane passes.
const TRAIN_PASS_FLOATS: usize = 8 * 3 * 32 * 32;

/// Which optimizer [`Trainer::fit`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerKind {
    /// SGD with momentum (the zoo's default).
    #[default]
    Sgd,
    /// Adam with standard betas (useful for the MiniViT and MLP models).
    Adam,
}

/// Hyperparameters for [`Trainer`].
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Per-batch global gradient-norm clip (0 disables clipping). Keeps the
    /// deeper zoo models (EfficientNetV2) stable at practical learning rates.
    pub grad_clip: f32,
    /// Shuffling / weighted-resampling seed.
    pub seed: u64,
    /// Optimizer selection.
    pub optimizer: OptimizerKind,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            grad_clip: 5.0,
            seed: 0,
            optimizer: OptimizerKind::Sgd,
        }
    }
}

/// Trains a [`Model`] on `(image, label)` pairs with softmax cross-entropy.
///
/// Each mini-batch runs lane-major in [`Mode::Train`], its images the
/// lanes of a few forward/backward passes, and every layer accumulates its
/// parameter gradients lane after lane through one sample's chains, so a
/// step is bit-identical to its samples' one-lane steps in batch order —
/// weights, losses and dropout streams alike.
///
/// Supports AdaBoost-style per-sample weights: when weights are set, each
/// epoch resamples the training set proportionally to the weights (sampling
/// with replacement), which is equivalent in expectation to weighting the
/// loss and is the standard practice for boosting neural base learners.
#[derive(Debug)]
pub struct Trainer {
    config: TrainerConfig,
    sample_weights: Option<Vec<f32>>,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainerConfig) -> Self {
        Self {
            config,
            sample_weights: None,
        }
    }

    /// Sets AdaBoost-style per-sample weights (must match the dataset length
    /// at fit time; they are normalized internally).
    pub fn with_sample_weights(mut self, weights: Vec<f32>) -> Self {
        self.sample_weights = Some(weights);
        self
    }

    /// Trains `model` in place and returns the mean loss of the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if `images`/`labels` lengths differ, the dataset is empty, or
    /// configured sample weights have the wrong length.
    pub fn fit(&self, model: &mut Model, images: &[Tensor], labels: &[usize]) -> f32 {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(!images.is_empty(), "empty training set");
        if let Some(w) = &self.sample_weights {
            assert_eq!(w.len(), images.len(), "sample weight length mismatch");
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut optimizer: Box<dyn Optimizer> = match self.config.optimizer {
            OptimizerKind::Sgd => Box::new(Sgd::new(
                self.config.lr,
                self.config.momentum,
                self.config.weight_decay,
            )),
            OptimizerKind::Adam => Box::new(Adam::new(self.config.lr)),
        };
        let n = images.len();
        let mut last_epoch_loss = f32::MAX;
        let _fit = remix_trace::span("fit");
        for _epoch in 0..self.config.epochs {
            let _epoch_span = remix_trace::span("epoch");
            let order = self.epoch_order(n, &mut rng);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(self.config.batch_size) {
                remix_trace::incr(remix_trace::Counter::TrainBatches);
                remix_trace::add(remix_trace::Counter::TrainSamples, batch.len() as u64);
                model.net_mut().zero_grads();
                let batch_loss = backprop(model, images, labels, batch);
                let mut scale = 1.0 / batch.len() as f32;
                if self.config.grad_clip > 0.0 {
                    let mut sq = 0.0f32;
                    model.net_mut().visit_params(&mut |_, g| {
                        sq += g.data().iter().map(|v| v * v).sum::<f32>();
                    });
                    let norm = sq.sqrt() * scale;
                    if norm > self.config.grad_clip {
                        scale *= self.config.grad_clip / norm;
                    }
                }
                optimizer.step(model.net_mut(), scale);
                epoch_loss += batch_loss;
            }
            last_epoch_loss = epoch_loss / n as f32;
        }
        last_epoch_loss
    }

    /// Index order for one epoch: a shuffle, or a weighted resample when
    /// sample weights are configured.
    fn epoch_order(&self, n: usize, rng: &mut StdRng) -> Vec<usize> {
        match &self.sample_weights {
            None => {
                let mut order: Vec<usize> = (0..n).collect();
                order.shuffle(rng);
                order
            }
            Some(weights) => {
                let total: f32 = weights.iter().sum();
                let cumulative: Vec<f32> = weights
                    .iter()
                    .scan(0.0, |acc, &w| {
                        *acc += w / total;
                        Some(*acc)
                    })
                    .collect();
                (0..n)
                    .map(|_| {
                        let u: f32 = rng.gen();
                        cumulative.partition_point(|&c| c < u).min(n - 1)
                    })
                    .collect()
            }
        }
    }
}

/// Accumulates the parameter gradients of the samples `batch` indexes and
/// returns their summed loss (added in batch order). Every lane runs its
/// own chains and every parameter gradient adds the lanes in order, so how
/// the batch is split into passes changes no bit; passes take
/// [`TRAIN_PASS_FLOATS`] of input, at most [`TRAIN_LANES`] lanes.
fn backprop(model: &mut Model, images: &[Tensor], labels: &[usize], batch: &[usize]) -> f32 {
    let sample = images.first().map_or(1, Tensor::len).max(1);
    let pass = (TRAIN_PASS_FLOATS / sample).clamp(1, TRAIN_LANES);
    let mut loss_sum = 0.0;
    for lanes in batch.chunks(pass) {
        let lane_images: Vec<Tensor> = lanes.iter().map(|&i| images[i].clone()).collect();
        let logits = model
            .net_mut()
            .forward_lanes(
                Tensor::stack_lanes(&lane_images).expect("same-shape images"),
                Mode::Train,
            )
            .expect("training images match the model");
        let mut grads = Vec::with_capacity(lanes.len());
        for (logit, &i) in logits.unstack_lanes().iter().zip(lanes) {
            let (loss, grad) = cross_entropy(logit, labels[i]);
            loss_sum += loss;
            grads.push(grad);
        }
        // The root of the step: the image gradient feeds nothing.
        model
            .net_mut()
            .backward_lanes(
                Tensor::stack_lanes(&grads).expect("one gradient per lane"),
                Wants::Params,
            )
            .expect("loss gradients match the logits");
    }
    loss_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, Relu};
    use crate::{InputSpec, Sequential};
    use rand::{rngs::StdRng, SeedableRng};

    fn toy_dataset(n: usize, seed: u64) -> (Vec<Tensor>, Vec<usize>) {
        // class 0 = bright top-left quadrant, class 1 = bright bottom-right
        let mut rng = StdRng::seed_from_u64(seed);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let mut img = Tensor::randn(&[1, 4, 4], 0.1, &mut rng);
            let (y0, x0) = if class == 0 { (0, 0) } else { (2, 2) };
            for y in y0..y0 + 2 {
                for x in x0..x0 + 2 {
                    img.set(&[0, y, x], 1.0);
                }
            }
            images.push(img);
            labels.push(class);
        }
        (images, labels)
    }

    fn toy_model(seed: u64) -> Model {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Flatten::new());
        net.push(Dense::new(16, 8, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, &mut rng));
        Model::new(
            net,
            InputSpec {
                channels: 1,
                size: 4,
                num_classes: 2,
            },
        )
    }

    #[test]
    fn training_reaches_high_accuracy_on_separable_data() {
        let (images, labels) = toy_dataset(60, 1);
        let mut model = toy_model(2);
        let loss = Trainer::new(TrainerConfig {
            epochs: 15,
            ..TrainerConfig::default()
        })
        .fit(&mut model, &images, &labels);
        assert!(loss < 0.2, "final loss {loss}");
        let correct = images
            .iter()
            .zip(&labels)
            .filter(|(img, &l)| model.predict(img).0 == l)
            .count();
        assert!(correct as f32 / 60.0 > 0.9);
    }

    #[test]
    fn sample_weights_bias_learning() {
        // give all the weight to class-0 samples: the model should at least
        // master class 0
        let (images, labels) = toy_dataset(40, 3);
        let weights: Vec<f32> = labels
            .iter()
            .map(|&l| if l == 0 { 1.0 } else { 0.01 })
            .collect();
        let mut model = toy_model(4);
        Trainer::new(TrainerConfig {
            epochs: 12,
            ..TrainerConfig::default()
        })
        .with_sample_weights(weights)
        .fit(&mut model, &images, &labels);
        let class0_correct = images
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == 0)
            .filter(|(img, &l)| model.predict(img).0 == l)
            .count();
        assert!(class0_correct >= 18, "class-0 correct {class0_correct}/20");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        let mut model = toy_model(5);
        Trainer::new(TrainerConfig::default()).fit(
            &mut model,
            &[Tensor::zeros(&[1, 4, 4])],
            &[0, 1],
        );
    }

    #[test]
    fn adam_optimizer_path_learns() {
        let (images, labels) = toy_dataset(60, 11);
        let mut model = toy_model(12);
        let loss = Trainer::new(TrainerConfig {
            epochs: 15,
            lr: 0.01,
            optimizer: OptimizerKind::Adam,
            ..TrainerConfig::default()
        })
        .fit(&mut model, &images, &labels);
        assert!(loss < 0.3, "Adam final loss {loss}");
    }

    #[test]
    fn a_batch_over_several_lane_runs_equals_one_lane_steps() {
        let (images, labels) = toy_dataset(20, 8);
        let batch: Vec<usize> = (0..20).rev().collect();
        let (mut lanes, mut one) = (toy_model(9), toy_model(9));
        let grad_bits = |m: &mut Model| {
            let mut bits = Vec::new();
            m.net_mut().visit_params(&mut |_, g| {
                bits.extend(g.data().iter().map(|v| v.to_bits()));
            });
            bits
        };
        let loss = backprop(&mut lanes, &images, &labels, &batch);
        let mut one_loss = 0.0;
        for &i in &batch {
            one_loss += backprop(&mut one, &images, &labels, &[i]);
        }
        assert_eq!(loss.to_bits(), one_loss.to_bits());
        assert_eq!(grad_bits(&mut lanes), grad_bits(&mut one));
    }

    #[test]
    fn deterministic_under_seed() {
        let (images, labels) = toy_dataset(20, 6);
        let config = TrainerConfig {
            epochs: 3,
            seed: 9,
            ..TrainerConfig::default()
        };
        let mut m1 = toy_model(7);
        let mut m2 = toy_model(7);
        let l1 = Trainer::new(config.clone()).fit(&mut m1, &images, &labels);
        let l2 = Trainer::new(config).fit(&mut m2, &images, &labels);
        assert_eq!(l1, l2);
    }
}
