//! The trained systems under test: datasets with injected faults, the
//! ensembles trained on them, and their registry round trip.
//!
//! Everything that decides model weights uses fixed seeds, so every run and
//! every `--seed` serves the same ensemble. The run seed picks the request
//! streams instead (see `serve.rs`): when fault injection, initialisation
//! and batch order followed the run seed, ReMIX balanced accuracy on the
//! GTSRB analogue ranged from 0.24 to 0.51 over four seeds, a spread no
//! regression bound can hold.

use crate::spans::Spans;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use remix_data::{Dataset, SyntheticSpec};
use remix_ensemble::TrainedEnsemble;
use remix_faults::{pattern, FaultConfig, FaultType};
use remix_nn::layers::{Dense, Flatten, Relu};
use remix_nn::{zoo, Arch, InputSpec, Model, Sequential, Trainer, TrainerConfig};
use remix_registry::{EnsembleArtifact, PublishInfo, Registry};
use remix_xai::XaiBudget;

/// Seed of the synthetic datasets and of their fault injection.
const DATA_SEED: u64 = 2025;
/// Share of training labels replaced through the confusion pattern.
const MISLABELLED: f32 = 0.3;
/// Mini-batch size of every training step.
pub const BATCH: usize = 16;

/// The GTSRB analogue's members (paper Fig. 8 setting).
pub const GTSRB_ARCHS: [Arch; 3] = [Arch::ConvNet, Arch::MobileNet, Arch::ResNet18];

/// Hidden widths of the three tabular MLP members.
const TABULAR_MEMBERS: [(&str, &[usize]); 3] = [
    ("MLP-wide", &[128]),
    ("MLP-deep", &[96, 64]),
    ("MLP-narrow", &[48]),
];

/// A classification problem with mislabelled training data.
pub struct Problem {
    /// Training set after fault injection.
    pub train: Dataset,
    /// Clean held-out set the requests are drawn from.
    pub test: Dataset,
    /// Input contract of every member.
    pub spec: InputSpec,
}

fn spec_of(data: &Dataset) -> InputSpec {
    InputSpec {
        channels: data.channels,
        size: data.size,
        num_classes: data.num_classes,
    }
}

/// Generates a dataset and mislabels 30 % of its training labels through a
/// confusion pattern extracted from the data (`pattern::extract` +
/// `inject`). The pattern step is timed into `spans` as `faults.pattern`.
fn faulty_problem(spec: SyntheticSpec, spans: &mut Spans, parent: Option<usize>) -> Problem {
    let (train, test) = spec.seed(DATA_SEED).generate();
    let faulty = spans.time("faults.pattern", parent, None, || {
        let pattern = pattern::extract(&train, 3, DATA_SEED);
        let mut rng = StdRng::seed_from_u64(DATA_SEED);
        remix_faults::inject(
            &train,
            FaultConfig::new(FaultType::Mislabelling, MISLABELLED),
            &pattern,
            &mut rng,
        )
    });
    Problem {
        spec: spec_of(&train),
        train: faulty.dataset,
        test,
    }
}

/// The GTSRB analogue: 43 classes, 3x16x16.
pub fn gtsrb_problem(
    train: usize,
    test: usize,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Problem {
    faulty_problem(
        SyntheticSpec::gtsrb_like()
            .train_size(train)
            .test_size(test),
        spans,
        parent,
    )
}

/// The tabular analogue: 6 classes, 16 features.
pub fn tabular_problem(train: usize, test: usize, spans: &mut Spans) -> Problem {
    faulty_problem(
        SyntheticSpec::tabular_like()
            .train_size(train)
            .test_size(test),
        spans,
        None,
    )
}

/// A member before training: name, freshly initialised network, and the
/// learning rate of its plain-SGD steps.
pub struct Untrained {
    /// The member (named; the name keys its XAI random stream).
    pub model: Model,
    /// Learning rate.
    pub lr: f32,
}

/// The GTSRB members from their fixed seeded init.
pub fn gtsrb_members(spec: InputSpec) -> Vec<Untrained> {
    GTSRB_ARCHS
        .iter()
        .enumerate()
        .map(|(i, &arch)| {
            let mut init = StdRng::seed_from_u64(100 + i as u64);
            Untrained {
                model: Model::named(zoo::build(arch, spec, &mut init), spec, arch.name()),
                // Plain SGD (see `train_all`): ten times the zoo's
                // momentum-SGD rate keeps the effective step comparable.
                lr: arch.default_lr() * 10.0,
            }
        })
        .collect()
}

/// The tabular MLP members from their fixed seeded init.
pub fn tabular_members(spec: InputSpec) -> Vec<Untrained> {
    TABULAR_MEMBERS
        .iter()
        .enumerate()
        .map(|(i, (name, hidden))| {
            let mut init = StdRng::seed_from_u64(200 + i as u64);
            let mut net = Sequential::new();
            net.push(Flatten::new());
            let mut dim = spec.channels * spec.size * spec.size;
            for &h in *hidden {
                net.push(Dense::new(dim, h, &mut init));
                net.push(Relu::new());
                dim = h;
            }
            net.push(Dense::new(dim, spec.num_classes, &mut init));
            Untrained {
                model: Model::named(net, spec, *name),
                lr: 0.3,
            }
        })
        .collect()
}

/// Trains every member for `epochs` passes of [`BATCH`]-sample steps in a
/// fixed shuffled order. Each step runs the same mini-batch through every
/// member, one `Trainer::fit` call per member (batched engine, one epoch
/// over one mini-batch, no momentum), so each member's chained calls are
/// exactly mini-batch SGD. Each member's call is an `nn.fit.m<i>` span
/// under a `train.step` span; a step whose loss is not finite counts in
/// `bad_steps`.
pub fn train_all(
    members: Vec<Untrained>,
    data: &Dataset,
    epochs: usize,
    spans: &mut Spans,
    parent: Option<usize>,
    bad_steps: &mut u64,
) -> TrainedEnsemble {
    let (mut models, rates): (Vec<Model>, Vec<f32>) =
        members.into_iter().map(|m| (m.model, m.lr)).unzip();
    let mut order_rng = StdRng::seed_from_u64(DATA_SEED ^ 0x5eed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    for epoch in 0..epochs {
        order.shuffle(&mut order_rng);
        for (step, chunk) in order.chunks(BATCH).enumerate() {
            let images: Vec<_> = chunk.iter().map(|&i| data.images[i].clone()).collect();
            let labels: Vec<usize> = chunk.iter().map(|&i| data.labels[i]).collect();
            let step_span = spans.open("train.step", parent, Some(step as u64));
            for (i, (model, &lr)) in models.iter_mut().zip(&rates).enumerate() {
                let trainer = Trainer::new(TrainerConfig {
                    epochs: 1,
                    batch_size: BATCH,
                    lr,
                    momentum: 0.0,
                    seed: (epoch * 1_000_003 + step) as u64,
                    ..TrainerConfig::default()
                });
                let loss = spans.time(format!("nn.fit.m{i}"), Some(step_span), None, || {
                    trainer.fit(model, &images, &labels)
                });
                if !loss.is_finite() {
                    *bad_steps += 1;
                }
            }
            spans.close(step_span);
        }
    }
    TrainedEnsemble::new(models)
}

/// How a loaded artifact becomes a servable ensemble again.
#[derive(Clone)]
pub enum Rebuild {
    /// Every member is a zoo architecture: `EnsembleArtifact::instantiate`.
    Zoo,
    /// Members outside the zoo: the states are applied onto a clone of this
    /// structurally identical ensemble (`EnsembleArtifact::apply_to`).
    Onto(TrainedEnsemble),
}

impl Rebuild {
    /// Rebuilds the ensemble an artifact describes.
    ///
    /// # Panics
    ///
    /// Panics if the artifact does not fit; the benchmark published it
    /// itself, so that is a bug in the program.
    pub fn apply(&self, artifact: &EnsembleArtifact) -> TrainedEnsemble {
        match self {
            Rebuild::Zoo => artifact.instantiate().expect("artifact instantiates"),
            Rebuild::Onto(structure) => {
                let mut ensemble = structure.clone();
                artifact.apply_to(&mut ensemble).expect("artifact applies");
                ensemble
            }
        }
    }
}

/// Captures `ensemble` and publishes it as `name@version`, inside a
/// `registry.publish` span.
pub fn publish(
    registry: &Registry,
    name: &str,
    version: &str,
    spec: InputSpec,
    ensemble: &mut TrainedEnsemble,
    spans: &mut Spans,
    parent: Option<usize>,
) -> PublishInfo {
    let archs: Vec<String> = ensemble.names().iter().map(|n| n.to_string()).collect();
    let weights = vec![1.0; archs.len()];
    let artifact = EnsembleArtifact::capture(
        name,
        version,
        spec,
        ensemble,
        archs,
        weights,
        XaiBudget::default(),
    );
    spans.time("registry.publish", parent, None, || {
        registry
            .publish(&artifact)
            .expect("publish to the benchmark registry")
    })
}

/// Loads `name@version` (integrity-checked) and rebuilds it, inside a
/// `registry.load` span. Returns the ensemble and its artifact hash.
pub fn load(
    registry: &Registry,
    name: &str,
    version: &str,
    rebuild: &Rebuild,
    spans: &mut Spans,
    parent: Option<usize>,
) -> (TrainedEnsemble, u64) {
    spans.time("registry.load", parent, None, || {
        let loaded = registry
            .load(name, Some(version))
            .expect("load from the benchmark registry");
        (rebuild.apply(&loaded.artifact), loaded.hash)
    })
}

/// A scratch registry under the package's `out/` directory, removed on drop.
pub struct ScratchRegistry {
    /// The registry.
    pub registry: Registry,
    root: std::path::PathBuf,
}

impl ScratchRegistry {
    /// Creates an empty registry unique to this process and `tag`.
    pub fn new(tag: &str) -> ScratchRegistry {
        let root = crate::out_dir().join(format!("registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the scratch registry");
        ScratchRegistry {
            registry: Registry::open(&root),
            root,
        }
    }
}

impl Drop for ScratchRegistry {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
