use crate::{ModelOutput, Prediction};
use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_data::Dataset;
use remix_nn::{zoo, Arch, InputSpec, Model, Trainer, TrainerConfig};
use remix_tensor::Tensor;

/// A set of independently trained models voting on the same inputs.
#[derive(Clone)]
pub struct TrainedEnsemble {
    /// The constituent models.
    pub models: Vec<Model>,
}

impl TrainedEnsemble {
    /// Wraps already-trained models.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(models: Vec<Model>) -> Self {
        assert!(!models.is_empty(), "ensemble needs at least one model");
        Self { models }
    }

    /// Number of constituent models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the ensemble is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Model names in order.
    pub fn names(&self) -> Vec<&str> {
        self.models.iter().map(|m| m.name.as_str()).collect()
    }

    /// Freezes every constituent model for steady-state serving
    /// ([`Model::freeze_for_inference`]): each layer's weight matrices are
    /// prepacked once into the GEMM kernel's panel layout and reused across
    /// every subsequent predict and XAI-gradient sweep. Predictions stay
    /// bit-identical; parameter mutation drops the packs automatically.
    pub fn freeze_for_inference(&mut self) {
        for model in &mut self.models {
            model.freeze_for_inference();
        }
    }

    /// Every model's output for one input.
    pub fn outputs(&mut self, image: &Tensor) -> Vec<ModelOutput> {
        self.models
            .iter_mut()
            .map(|m| ModelOutput::from_probs(m.predict_proba(image)))
            .collect()
    }

    /// How many constituent models predict `label` for `image` — the paper's
    /// *k-correct* analysis (Fig. 3).
    pub fn count_correct(&mut self, image: &Tensor, label: usize) -> usize {
        let outputs = self.outputs(image);
        Self::count_correct_from_outputs(&outputs, label)
    }

    /// How many of the given per-model `outputs` predict `label`.
    ///
    /// Use this when the outputs are already computed for another purpose
    /// (e.g. the k-correct analysis over a whole test set) instead of paying
    /// for a second full inference pass via
    /// [`TrainedEnsemble::count_correct`].
    pub fn count_correct_from_outputs(outputs: &[ModelOutput], label: usize) -> usize {
        outputs.iter().filter(|o| o.pred == label).count()
    }
}

impl std::fmt::Debug for TrainedEnsemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TrainedEnsemble({:?})", self.names())
    }
}

/// A voting policy combining constituent outputs into one prediction.
///
/// Voters take the ensemble mutably because inference caches state inside
/// the models and some voters (ReMIX) run additional model passes (XAI).
pub trait Voter {
    /// Votes on one input.
    fn vote(&mut self, ensemble: &mut TrainedEnsemble, image: &Tensor) -> Prediction;

    /// Display name (figure legends).
    fn name(&self) -> String;
}

/// Trains one model per architecture on `train`, with per-architecture
/// default learning rates. The workhorse for building the paper's 9-model
/// zoo under each fault configuration.
pub fn train_zoo(archs: &[Arch], train: &Dataset, epochs: usize, seed: u64) -> Vec<Model> {
    let spec = InputSpec {
        channels: train.channels,
        size: train.size,
        num_classes: train.num_classes,
    };
    archs
        .iter()
        .map(|&arch| {
            let mut rng = StdRng::seed_from_u64(seed ^ (arch as u64).wrapping_mul(0x9e3779b9));
            let mut model = Model::named(zoo::build(arch, spec, &mut rng), spec, arch.name());
            Trainer::new(TrainerConfig {
                epochs,
                lr: arch.default_lr(),
                seed: seed.wrapping_add(arch as u64),
                ..TrainerConfig::default()
            })
            .fit(&mut model, &train.images, &train.labels);
            model
        })
        .collect()
}

/// Builds a bagging ensemble (paper baseline 5): `n_models` copies of the
/// same architecture, each trained on a 63% bootstrap sample (Breiman's
/// recommendation, §V-B).
pub fn bagging(
    arch: Arch,
    train: &Dataset,
    n_models: usize,
    epochs: usize,
    rng: &mut impl Rng,
) -> TrainedEnsemble {
    let spec = InputSpec {
        channels: train.channels,
        size: train.size,
        num_classes: train.num_classes,
    };
    let models = (0..n_models)
        .map(|i| {
            let sample = train.bootstrap(0.63, rng);
            let mut init_rng = StdRng::seed_from_u64(rng.gen());
            let mut model = Model::named(
                zoo::build(arch, spec, &mut init_rng),
                spec,
                format!("{}-bag{}", arch.name(), i),
            );
            Trainer::new(TrainerConfig {
                epochs,
                lr: arch.default_lr(),
                seed: rng.gen(),
                ..TrainerConfig::default()
            })
            .fit(&mut model, &sample.images, &sample.labels);
            model
        })
        .collect();
    TrainedEnsemble::new(models)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_data::SyntheticSpec;

    fn tiny_train() -> Dataset {
        SyntheticSpec::mnist_like().train_size(60).generate().0
    }

    #[test]
    fn train_zoo_produces_named_models() {
        let train = tiny_train();
        let models = train_zoo(&[Arch::ConvNet, Arch::DeconvNet], &train, 1, 7);
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].name, "ConvNet");
        assert_eq!(models[1].name, "DeconvNet");
    }

    #[test]
    fn outputs_and_count_correct_are_consistent() {
        let train = tiny_train();
        let models = train_zoo(&[Arch::ConvNet], &train, 2, 8);
        let mut ens = TrainedEnsemble::new(models);
        let img = &train.images[0].clone();
        let outs = ens.outputs(img);
        assert_eq!(outs.len(), 1);
        let k = ens.count_correct(img, outs[0].pred);
        assert_eq!(k, 1);
    }

    #[test]
    fn bagging_builds_requested_size() {
        let train = tiny_train();
        let mut rng = StdRng::seed_from_u64(9);
        let ens = bagging(Arch::ConvNet, &train, 3, 1, &mut rng);
        assert_eq!(ens.len(), 3);
        // bag members differ (different bootstrap + init)
        assert_ne!(ens.names()[0], ens.names()[1]);
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn rejects_empty_ensemble() {
        TrainedEnsemble::new(Vec::new());
    }
}
