//! The paper's non-constructive baselines: voting policies over a shared
//! trained ensemble (§V-B baselines 1–4 plus the best individual model).

use crate::ensemble::{TrainedEnsemble, Voter};
use crate::Prediction;
use remix_data::Dataset;
use remix_tensor::Tensor;

/// Best individual model: follows the constituent with the highest
/// validation accuracy.
#[derive(Debug, Clone)]
pub struct BestIndividual {
    index: usize,
}

impl BestIndividual {
    /// Picks the model with the highest accuracy on `validation`.
    pub fn fit(ensemble: &mut TrainedEnsemble, validation: &Dataset) -> Self {
        let mut best = (0usize, -1.0f32);
        for (i, model) in ensemble.models.iter_mut().enumerate() {
            let correct = validation
                .iter()
                .filter(|(img, l)| model.predict(img).0 == *l)
                .count();
            let acc = correct as f32 / validation.len().max(1) as f32;
            if acc > best.1 {
                best = (i, acc);
            }
        }
        Self { index: best.0 }
    }

    /// The chosen model index.
    pub fn index(&self) -> usize {
        self.index
    }
}

impl Voter for BestIndividual {
    fn vote(&mut self, ensemble: &mut TrainedEnsemble, image: &Tensor) -> Prediction {
        let (pred, _) = ensemble.models[self.index].predict(image);
        Prediction::Decided(pred)
    }

    fn name(&self) -> String {
        "Best".into()
    }
}

/// UMaj: unweighted simple majority voting. A class must gather strictly
/// more than half the votes; otherwise the ensemble abstains.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformMajority;

impl Voter for UniformMajority {
    fn vote(&mut self, ensemble: &mut TrainedEnsemble, image: &Tensor) -> Prediction {
        let outputs = ensemble.outputs(image);
        majority_with_weights(outputs.iter().map(|o| (o.pred, 1.0)), outputs.len() as f32)
    }

    fn name(&self) -> String {
        "UMaj".into()
    }
}

/// UAvg: uniform average (soft voting) — probabilities are averaged and the
/// argmax wins.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformAverage;

impl Voter for UniformAverage {
    fn vote(&mut self, ensemble: &mut TrainedEnsemble, image: &Tensor) -> Prediction {
        let outputs = ensemble.outputs(image);
        let mut acc = Tensor::zeros(outputs[0].probs.shape());
        for o in &outputs {
            acc.add_assign(&o.probs).expect("same class count");
        }
        Prediction::Decided(acc.argmax().expect("non-empty"))
    }

    fn name(&self) -> String {
        "UAvg".into()
    }
}

/// S-WMaj: statically weighted majority — each model's vote carries its
/// validation accuracy as weight, calibrated once before inference.
#[derive(Debug, Clone)]
pub struct StaticWeighted {
    weights: Vec<f32>,
}

impl StaticWeighted {
    /// Calibrates the weights as per-model accuracy on `validation`.
    pub fn fit(ensemble: &mut TrainedEnsemble, validation: &Dataset) -> Self {
        let weights = ensemble
            .models
            .iter_mut()
            .map(|model| {
                let correct = validation
                    .iter()
                    .filter(|(img, l)| model.predict(img).0 == *l)
                    .count();
                (correct as f32 / validation.len().max(1) as f32).max(1e-3)
            })
            .collect();
        Self { weights }
    }

    /// The calibrated weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }
}

impl Voter for StaticWeighted {
    fn vote(&mut self, ensemble: &mut TrainedEnsemble, image: &Tensor) -> Prediction {
        let outputs = ensemble.outputs(image);
        debug_assert_eq!(outputs.len(), self.weights.len());
        let total: f32 = self.weights.iter().sum();
        majority_with_weights(
            outputs.iter().zip(&self.weights).map(|(o, &w)| (o.pred, w)),
            total,
        )
    }

    fn name(&self) -> String {
        "S-WMaj".into()
    }
}

/// D-WMaj: dynamically weighted ensemble via stacking (Wolpert) — a
/// multinomial logistic-regression meta-classifier over the concatenated
/// constituent probability vectors, trained on a validation split.
#[derive(Debug, Clone)]
pub struct StackedDynamic {
    // weight [classes, models*classes] and bias [classes]
    w: Vec<f32>,
    b: Vec<f32>,
    classes: usize,
    feature_len: usize,
}

impl StackedDynamic {
    /// Trains the stacking meta-classifier on `validation`.
    ///
    /// # Panics
    ///
    /// Panics if `validation` is empty.
    pub fn fit(ensemble: &mut TrainedEnsemble, validation: &Dataset) -> Self {
        assert!(!validation.is_empty(), "stacking needs a validation split");
        let classes = validation.num_classes;
        let feature_len = ensemble.len() * classes;
        let features: Vec<Vec<f32>> = validation
            .images
            .iter()
            .map(|img| {
                ensemble
                    .outputs(img)
                    .iter()
                    .flat_map(|o| o.probs.data().to_vec())
                    .collect()
            })
            .collect();
        let mut lr = Self {
            w: vec![0.0; classes * feature_len],
            b: vec![0.0; classes],
            classes,
            feature_len,
        };
        // initialize as a soft-voting averager (weight 1 on each model's
        // own-class probability) so the meta-learner starts from a sane
        // prior and gradient descent only has to learn the corrections —
        // without this, a few dozen validation samples cannot train a
        // 43-class meta-classifier from scratch
        for k in 0..classes {
            for m in 0..(feature_len / classes) {
                lr.w[k * feature_len + m * classes + k] = 1.0;
            }
        }
        // conservative fine-tune: the validation split carries the same label
        // corruption as training, so aggressive meta-training overfits the
        // faults and falls below the averaging prior
        lr.train(&features, &validation.labels, 40, 0.1);
        lr
    }

    fn logits(&self, x: &[f32]) -> Vec<f32> {
        (0..self.classes)
            .map(|k| {
                let row = &self.w[k * self.feature_len..(k + 1) * self.feature_len];
                self.b[k] + row.iter().zip(x).map(|(&w, &v)| w * v).sum::<f32>()
            })
            .collect()
    }

    fn train(&mut self, features: &[Vec<f32>], labels: &[usize], epochs: usize, lr: f32) {
        let n = features.len() as f32;
        for _ in 0..epochs {
            let mut gw = vec![0.0f32; self.w.len()];
            let mut gb = vec![0.0f32; self.b.len()];
            for (x, &y) in features.iter().zip(labels) {
                let probs = Tensor::from_slice(&self.logits(x)).softmax();
                for k in 0..self.classes {
                    let err = probs.data()[k] - if k == y { 1.0 } else { 0.0 };
                    gb[k] += err;
                    let row = &mut gw[k * self.feature_len..(k + 1) * self.feature_len];
                    for (g, &v) in row.iter_mut().zip(x) {
                        *g += err * v;
                    }
                }
            }
            for (w, g) in self.w.iter_mut().zip(&gw) {
                *w -= lr * g / n;
            }
            for (b, g) in self.b.iter_mut().zip(&gb) {
                *b -= lr * g / n;
            }
        }
    }
}

impl Voter for StackedDynamic {
    fn vote(&mut self, ensemble: &mut TrainedEnsemble, image: &Tensor) -> Prediction {
        let x: Vec<f32> = ensemble
            .outputs(image)
            .iter()
            .flat_map(|o| o.probs.data().to_vec())
            .collect();
        debug_assert_eq!(x.len(), self.feature_len);
        let logits = self.logits(&x);
        let pred = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)
            .expect("non-empty");
        Prediction::Decided(pred)
    }

    fn name(&self) -> String {
        "D-WMaj".into()
    }
}

/// Shared weighted-majority tally with the paper's 50% threshold.
///
/// Sums each class's vote weight and decides the top class iff it carries
/// strictly more than half of `total_weight`; otherwise
/// [`Prediction::NoMajority`]. Ties between equal-weight classes break
/// toward the lower class index, so the outcome is deterministic for any
/// vote order. With unit weights this is plain majority voting — what
/// ReMIX returns for a Skip-level or deadline-degraded disagreement.
///
/// # Panics
///
/// Panics if `votes` is empty.
pub fn majority_with_weights(
    votes: impl Iterator<Item = (usize, f32)>,
    total_weight: f32,
) -> Prediction {
    let mut tally: std::collections::HashMap<usize, f32> = std::collections::HashMap::new();
    for (class, w) in votes {
        *tally.entry(class).or_insert(0.0) += w;
    }
    let (best_class, best_weight) = tally
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
        .expect("at least one vote");
    if best_weight > total_weight / 2.0 {
        Prediction::Decided(best_class)
    } else {
        Prediction::NoMajority
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_zoo;
    use remix_data::SyntheticSpec;
    use remix_nn::Arch;

    fn setup() -> (TrainedEnsemble, Dataset, Dataset) {
        let (train, test) = SyntheticSpec::mnist_like()
            .train_size(120)
            .test_size(40)
            .generate();
        let models = train_zoo(
            &[Arch::ConvNet, Arch::DeconvNet, Arch::MobileNet],
            &train,
            3,
            5,
        );
        (TrainedEnsemble::new(models), train, test)
    }

    #[test]
    fn majority_threshold_behaviour() {
        // 2-of-3 unit votes pass the 50% bar
        let p = majority_with_weights([(1, 1.0), (1, 1.0), (0, 1.0)].into_iter(), 3.0);
        assert_eq!(p, Prediction::Decided(1));
        // perfect three-way split abstains
        let p = majority_with_weights([(0, 1.0), (1, 1.0), (2, 1.0)].into_iter(), 3.0);
        assert_eq!(p, Prediction::NoMajority);
        // weighted: a heavy single vote can carry the majority
        let p = majority_with_weights([(0, 5.0), (1, 1.0), (2, 1.0)].into_iter(), 7.0);
        assert_eq!(p, Prediction::Decided(0));
    }

    #[test]
    fn voters_produce_predictions_end_to_end() {
        let (mut ens, train, test) = setup();
        let validation = train.subset(&(0..40).collect::<Vec<_>>());
        let mut voters: Vec<Box<dyn Voter>> = vec![
            Box::new(BestIndividual::fit(&mut ens, &validation)),
            Box::new(UniformMajority),
            Box::new(UniformAverage),
            Box::new(StaticWeighted::fit(&mut ens, &validation)),
            Box::new(StackedDynamic::fit(&mut ens, &validation)),
        ];
        for voter in &mut voters {
            let mut decided = 0;
            for (img, _) in test.iter().take(10) {
                if voter.vote(&mut ens, img).class().is_some() {
                    decided += 1;
                }
            }
            assert!(decided > 0, "{} never decides", voter.name());
        }
    }

    #[test]
    fn stacking_learns_validation_labels() {
        let (mut ens, train, _) = setup();
        let validation = train.subset(&(0..60).collect::<Vec<_>>());
        let mut stacked = StackedDynamic::fit(&mut ens, &validation);
        let correct = validation
            .iter()
            .filter(|(img, l)| stacked.vote(&mut ens, img).is_correct(*l))
            .count();
        // the meta-learner should do at least as well as chance by a wide margin
        assert!(
            correct as f32 / validation.len() as f32 > 0.5,
            "stacking fit accuracy {correct}/60"
        );
    }

    #[test]
    fn static_weights_reflect_validation_accuracy() {
        let (mut ens, train, _) = setup();
        let validation = train.subset(&(0..40).collect::<Vec<_>>());
        let sw = StaticWeighted::fit(&mut ens, &validation);
        assert_eq!(sw.weights().len(), 3);
        assert!(sw.weights().iter().all(|&w| (0.0..=1.0).contains(&w)));
    }
}
