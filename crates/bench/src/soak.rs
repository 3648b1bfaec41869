//! Shared fixture of the serving soaks (`bench_serve`, `bench_xai_sched`,
//! `bench_swap`, `bench_drift`): the seeded three-MLP tabular ensemble
//! trained on mislabelled labels (the paper's faulty-training-data lever),
//! the served ReMIX configuration, the keep-alive load phase, the registry
//! round trip and tail percentiles. Each soak keeps only its own phases and
//! its record.

use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_core::Remix;
use remix_data::{Dataset, SyntheticSpec};
use remix_ensemble::TrainedEnsemble;
use remix_nn::layers::{Dense, Flatten, Relu};
use remix_nn::{InputSpec, Model, Sequential, Trainer, TrainerConfig};
use remix_registry::{EnsembleArtifact, Registry};
use remix_serve::{Client, ClientReply, NamedModel, ServeConfig, Server};
use remix_xai::{ExplainerConfig, XaiBudget};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Registry name the swap and drift soaks publish their versions under.
pub const MODEL: &str = "tabular-mlp";

/// Replaces each label, with probability `fraction`, by a uniformly drawn
/// class (possibly the same one).
fn corrupt_labels(labels: &[usize], num_classes: usize, fraction: f32, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    labels
        .iter()
        .map(|&label| {
            if rng.gen::<f32>() < fraction {
                rng.gen_range(0..num_classes)
            } else {
                label
            }
        })
        .collect()
}

/// A trained soak ensemble with the data it was trained and tested on.
#[derive(Clone)]
pub struct Tabular {
    /// Three MLPs, hidden layers 128 | 96-64 | 96.
    pub ensemble: TrainedEnsemble,
    /// The 400 training samples (clean labels).
    pub train: Dataset,
    /// The held-out test set (clean labels).
    pub test: Dataset,
    /// The members' input spec (16 features as a 1×4×4 image).
    pub spec: InputSpec,
}

type Setting = ([u32; 3], [&'static str; 3], usize);

/// Trained ensembles by setting, so each distinct one trains once per process.
static TRAINED: Mutex<Vec<(Setting, Tabular)>> = Mutex::new(Vec::new());

/// The seeded three-MLP tabular ensemble: member `i` is named `names[i]`,
/// initialised from seed `i + 1`, and trained for 8 epochs at lr 0.03 with
/// seed `i` on labels corrupted with probability `noise[i]` (seed `70 + i`).
/// The same setting always yields bit-identical members, so every call after
/// the first hands out a clone of the first training run.
pub fn tabular(noise: [f32; 3], names: [&'static str; 3], test_size: usize) -> Tabular {
    let setting = (noise.map(f32::to_bits), names, test_size);
    let mut trained = TRAINED
        .lock()
        .expect("no soak thread panics while training");
    if let Some((_, tabular)) = trained.iter().find(|(s, _)| *s == setting) {
        return tabular.clone();
    }
    let (train, test) = SyntheticSpec::tabular_like()
        .train_size(400)
        .test_size(test_size)
        .generate();
    let spec = InputSpec {
        channels: 1,
        size: 4,
        num_classes: train.num_classes,
    };
    let hidden: [&[usize]; 3] = [&[128], &[96, 64], &[96]];
    let models = (0..3)
        .map(|i| {
            let mut init = StdRng::seed_from_u64(i as u64 + 1);
            let mut net = Sequential::new();
            net.push(Flatten::new());
            let mut dim = spec.channels * spec.size * spec.size;
            for &h in hidden[i] {
                net.push(Dense::new(dim, h, &mut init));
                net.push(Relu::new());
                dim = h;
            }
            net.push(Dense::new(dim, train.num_classes, &mut init));
            let mut model = Model::named(net, spec, names[i]);
            let labels = corrupt_labels(&train.labels, train.num_classes, noise[i], 70 + i as u64);
            Trainer::new(TrainerConfig {
                epochs: 8,
                lr: 0.03,
                seed: i as u64,
                ..TrainerConfig::default()
            })
            .fit(&mut model, &train.images, &labels);
            model
        })
        .collect();
    let tabular = Tabular {
        ensemble: TrainedEnsemble::new(models),
        train,
        test,
        spec,
    };
    trained.push((setting, tabular.clone()));
    tabular
}

/// The ReMIX configuration the serving soaks serve and replicate locally;
/// both sides must build it identically for byte-identity to be fair.
/// Eight SmoothGrad samples against a 64-wide budget: a lone request fills
/// only an eighth of a gradient sweep, so coalesced requests run markedly
/// wider sweeps than the serial baseline can.
pub fn remix() -> Remix {
    let config = ExplainerConfig {
        budget: XaiBudget {
            sg_samples: 8,
            batch_size: 64,
            ..XaiBudget::default()
        },
        ..ExplainerConfig::default()
    };
    Remix::builder()
        .seed(11)
        .threads(1)
        .explainer_config(config)
        .build()
}

/// What one load phase saw.
pub struct Load {
    /// Wall time from the first connect to the last reply.
    pub wall: Duration,
    /// Every 200 reply, with the pool index of its input.
    pub replies: Vec<(usize, ClientReply)>,
    /// Replies with a status other than 200.
    pub dropped: u64,
    /// Requests lost to transport errors (a failed connect loses all of its
    /// client's requests).
    pub errored: u64,
}

/// One load phase: `clients` keep-alive connections, each sending
/// `per_client` requests round-robin over the pool (client `c`'s `r`-th
/// request is input `(c + 7r) mod len`). A bad reply never panics: it is
/// counted, because under swaps and deadlines failures are the measurement.
pub fn load(
    addr: SocketAddr,
    pool: &[Vec<f32>],
    clients: usize,
    per_client: usize,
    deadline_ms: Option<u64>,
    no_cache: bool,
) -> Load {
    let started = Instant::now();
    let mut load = Load {
        wall: Duration::ZERO,
        replies: Vec::new(),
        dropped: 0,
        errored: 0,
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut replies = Vec::with_capacity(per_client);
                    let (mut dropped, mut errored) = (0, 0);
                    let Ok(mut client) = Client::connect(addr) else {
                        return (replies, dropped, per_client as u64);
                    };
                    for r in 0..per_client {
                        let idx = (c + r * 7) % pool.len();
                        match client.predict(&pool[idx], deadline_ms, no_cache) {
                            Ok(reply) if reply.status == 200 => replies.push((idx, reply)),
                            Ok(_) => dropped += 1,
                            Err(_) => errored += 1,
                        }
                    }
                    (replies, dropped, errored)
                })
            })
            .collect();
        for worker in workers {
            let (replies, dropped, errored) = worker.join().expect("load client panicked");
            load.replies.extend(replies);
            load.dropped += dropped;
            load.errored += errored;
        }
    });
    load.wall = started.elapsed();
    load
}

/// Whether every reply carries its input's reference verdict bytes, served
/// without degradation.
pub fn served_references(replies: &[(usize, ClientReply)], references: &[String]) -> bool {
    replies
        .iter()
        .all(|(idx, r)| !r.degraded && r.verdict_json == references[*idx])
}

/// Captures `ensemble` as version `version` of [`MODEL`], each member's arch
/// tag its name, all weights 1.
fn capture(version: &str, spec: InputSpec, ensemble: &mut TrainedEnsemble) -> EnsembleArtifact {
    let archs = ensemble.models.iter().map(|m| m.name.clone()).collect();
    let weights = vec![1.0f32; ensemble.models.len()];
    EnsembleArtifact::capture(
        MODEL,
        version,
        spec,
        ensemble,
        archs,
        weights,
        XaiBudget::default(),
    )
}

/// Loads `MODEL@version` onto a clone of `template` — the path the server's
/// swap coordinator takes, so the result is bit-identical to what the server
/// serves under `version`. Returns it with the artifact hash.
fn load_into(
    registry: &Registry,
    version: &str,
    template: &TrainedEnsemble,
) -> (TrainedEnsemble, u64) {
    let loaded = registry.load(MODEL, Some(version)).expect(version);
    let mut ensemble = template.clone();
    loaded
        .artifact
        .apply_to(&mut ensemble)
        .expect("same structure");
    (ensemble, loaded.hash)
}

/// Versions 1.0.0 (v1: every member trained on 30 % mislabelled labels) and
/// 2.0.0 (v2: the re-cleaned retrain) of [`MODEL`], published to a fresh
/// registry under the temp dir, which is removed on drop. The two differ
/// only in their labels, so both apply onto one structure.
pub struct Versions {
    /// v1 as trained, with its data.
    pub v1: Tabular,
    /// The registry directory.
    root: PathBuf,
    /// Local replicas of v1 and v2, loaded as a swap loads them.
    pub local: [TrainedEnsemble; 2],
}

impl Versions {
    /// Trains and publishes both versions under a registry named after `soak`.
    pub fn publish(soak: &str) -> Self {
        let names = ["MLP-0", "MLP-1", "MLP-2"];
        let mut v1 = tabular([0.3; 3], names, 128);
        let mut v2 = tabular([0.0; 3], names, 128).ensemble;
        let root = std::env::temp_dir().join(format!("remix_bench_{soak}_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let registry = Registry::open(&root);
        for (version, ensemble) in [("1.0.0", &mut v1.ensemble), ("2.0.0", &mut v2)] {
            let info = registry
                .publish(&capture(version, v1.spec, ensemble))
                .expect("publish");
            println!(
                "published {MODEL} {version} (hash {:016x}) to {}",
                info.hash,
                root.display()
            );
        }
        let local = ["1.0.0", "2.0.0"].map(|version| load_into(&registry, version, &v1.ensemble).0);
        Versions { v1, root, local }
    }

    /// Starts a server on v1, loaded from the registry, which stays attached
    /// for swaps.
    pub fn serve_v1(&self, config: ServeConfig) -> Server {
        let registry = Registry::open(&self.root);
        let (ensemble, hash) = load_into(&registry, "1.0.0", &self.v1.ensemble);
        let model = NamedModel {
            name: MODEL.to_string(),
            version: "1.0.0".to_string(),
            hash,
            ensemble,
        };
        Server::start_models(vec![model], Some(registry), remix(), config).expect("start server")
    }
}

impl Drop for Versions {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// The `q`-quantile of ascending `sorted` by nearest rank (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}
