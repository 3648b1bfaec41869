//! The CLI subcommand implementations.

use crate::args::Args;
use rand::{rngs::StdRng, SeedableRng};
use remix_core::{Remix, RemixVoter, TriageScheduler};
use remix_data::{Dataset, SyntheticSpec};
use remix_ensemble::{
    evaluate as run_evaluation, evaluate_parallel, train_zoo, Evaluation, TrainedEnsemble,
    UniformAverage, UniformMajority, Voter,
};
use remix_faults::{inject, pattern, FaultConfig, FaultType};
use remix_nn::state::{load_state, save_state, ModelState};
use remix_nn::{zoo, Arch, InputSpec, Model};
use remix_registry::{EnsembleArtifact, Registry};
use remix_xai::{XaiBudget, XaiLevel, XaiTechnique};
use serde::{Deserialize, Serialize};

/// Rejects stray positional arguments for subcommands that take none.
fn no_positionals(args: &Args) -> Result<(), String> {
    args.expect_positionals(&[]).map_err(|e| e.to_string())?;
    Ok(())
}

/// On-disk format: per-model architecture + state dictionary.
#[derive(Serialize, Deserialize)]
struct SavedEnsemble {
    dataset: String,
    archs: Vec<Arch>,
    spec: InputSpec,
    states: Vec<ModelState>,
}

fn spec_for(name: &str) -> Result<SyntheticSpec, String> {
    match name {
        "gtsrb" => Ok(SyntheticSpec::gtsrb_like()),
        "cifar" => Ok(SyntheticSpec::cifar_like()),
        "pneumonia" => Ok(SyntheticSpec::pneumonia_like()),
        "mnist" => Ok(SyntheticSpec::mnist_like()),
        "tabular" => Ok(SyntheticSpec::tabular_like()),
        other => Err(format!("unknown dataset `{other}` (try `remix datasets`)")),
    }
}

fn arch_by_name(name: &str) -> Result<Arch, String> {
    Arch::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<&str> = Arch::ALL.iter().map(|a| a.name()).collect();
            format!(
                "unknown architecture `{name}` (known: {})",
                known.join(", ")
            )
        })
}

/// `remix datasets`
pub fn datasets() -> Result<(), String> {
    println!(
        "{:<12} {:>8} {:>9} {:>8} {:<30}",
        "name", "classes", "channels", "size", "analogue of"
    );
    let rows = [
        ("gtsrb", SyntheticSpec::gtsrb_like(), "GTSRB traffic signs"),
        ("cifar", SyntheticSpec::cifar_like(), "CIFAR-10 objects"),
        (
            "pneumonia",
            SyntheticSpec::pneumonia_like(),
            "Pneumonia chest X-rays",
        ),
        ("mnist", SyntheticSpec::mnist_like(), "MNIST digits"),
        (
            "tabular",
            SyntheticSpec::tabular_like(),
            "tabular features (Discussion)",
        ),
    ];
    for (name, s, analogue) in rows {
        let (train, _) = s.train_size(8).test_size(4).generate();
        println!(
            "{:<12} {:>8} {:>9} {:>5}x{:<3} {:<30}",
            name, train.num_classes, train.channels, train.size, train.size, analogue
        );
    }
    Ok(())
}

fn load_dataset(args: &Args) -> Result<(Dataset, Dataset), String> {
    let name = args
        .get("dataset")
        .ok_or("missing --dataset (try `remix datasets`)")?;
    let mut spec = spec_for(name)?;
    if let Some(n) = args.get("train") {
        spec = spec.train_size(n.parse().map_err(|_| "--train must be a number")?);
    }
    if let Some(n) = args.get("test") {
        spec = spec.test_size(n.parse().map_err(|_| "--test must be a number")?);
    }
    Ok(spec.seed(args.get_num("seed", 0u64)?).generate())
}

/// `remix train`
pub fn train(args: &Args) -> Result<(), String> {
    no_positionals(args)?;
    let (train_set, _) = load_dataset(args)?;
    let archs: Vec<Arch> = args
        .get_or("archs", "ConvNet,ResNet18,MobileNet")
        .split(',')
        .map(arch_by_name)
        .collect::<Result<_, _>>()?;
    let epochs = args.get_num("epochs", 8usize)?;
    let seed = args.get_num("seed", 0u64)?;
    let mislabel: f32 = args.get_num("mislabel", 0.0f32)?;
    let removal: f32 = args.get_num("removal", 0.0f32)?;
    let mut dataset = train_set;
    let mut rng = StdRng::seed_from_u64(seed);
    if mislabel > 0.0 {
        let pat = pattern::extract(&dataset, 3, seed);
        dataset = inject(
            &dataset,
            FaultConfig::new(FaultType::Mislabelling, mislabel),
            &pat,
            &mut rng,
        )
        .dataset;
        println!("injected {:.0}% asymmetric mislabelling", mislabel * 100.0);
    }
    if removal > 0.0 {
        let pat = remix_faults::ConfusionPattern::uniform(dataset.num_classes);
        dataset = inject(
            &dataset,
            FaultConfig::new(FaultType::Removal, removal),
            &pat,
            &mut rng,
        )
        .dataset;
        println!("removed {:.0}% of training samples", removal * 100.0);
    }
    println!(
        "training {:?} on {} samples for {epochs} epochs…",
        archs.iter().map(|a| a.name()).collect::<Vec<_>>(),
        dataset.len()
    );
    let mut models = train_zoo(&archs, &dataset, epochs, seed);
    let spec = InputSpec {
        channels: dataset.channels,
        size: dataset.size,
        num_classes: dataset.num_classes,
    };
    let saved = SavedEnsemble {
        dataset: args.get("dataset").unwrap_or_default().to_string(),
        archs,
        spec,
        states: models.iter_mut().map(save_state).collect(),
    };
    let out = args.get_or("out", "ensemble.json");
    let json = serde_json::to_string(&saved).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("saved ensemble to {out}");
    Ok(())
}

fn load_ensemble(args: &Args) -> Result<(TrainedEnsemble, SavedEnsemble), String> {
    let path = args.get("ensemble").ok_or("missing --ensemble <path>")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let saved: SavedEnsemble = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(0);
    let models: Result<Vec<Model>, String> = saved
        .archs
        .iter()
        .zip(&saved.states)
        .map(|(&arch, state)| {
            let mut model = Model::named(
                zoo::build(arch, saved.spec, &mut rng),
                saved.spec,
                arch.name(),
            );
            load_state(&mut model, state).map_err(|e| e.to_string())?;
            Ok(model)
        })
        .collect();
    Ok((TrainedEnsemble::new(models?), saved))
}

/// Runs one voter either sequentially or sharded over `threads` workers.
/// Both paths produce bit-identical predictions (see `evaluate_parallel`).
fn run_voter<V>(
    voter: V,
    ensemble: &mut TrainedEnsemble,
    test: &Dataset,
    threads: usize,
) -> Evaluation
where
    V: Voter + Clone + Send + Sync,
{
    if threads == 1 {
        let mut voter = voter;
        run_evaluation(&mut voter, ensemble, test)
    } else {
        evaluate_parallel(&voter, ensemble, test, threads)
    }
}

/// `remix evaluate`
pub fn evaluate(args: &Args) -> Result<(), String> {
    no_positionals(args)?;
    let (_, test) = load_dataset(args)?;
    let (mut ensemble, saved) = load_ensemble(args)?;
    let threads = args.get_num("threads", 0usize)?;
    println!(
        "evaluating {:?} (trained on `{}`) over {} test inputs",
        ensemble.names(),
        saved.dataset,
        test.len()
    );
    let which = args.get_or("voter", "all");
    let mut results: Vec<Evaluation> = Vec::new();
    if which == "all" || which == "umaj" {
        results.push(run_voter(UniformMajority, &mut ensemble, &test, threads));
    }
    if which == "all" || which == "uavg" {
        results.push(run_voter(UniformAverage, &mut ensemble, &test, threads));
    }
    if which == "all" || which == "remix" {
        // Parallelism is spent at the sample level here; each ReMIX inference
        // stays sequential so the shards don't oversubscribe the cores.
        let voter = RemixVoter::new(Remix::builder().threads(1).build());
        results.push(run_voter(voter, &mut ensemble, &test, threads));
    }
    if results.is_empty() {
        return Err(format!("unknown voter `{which}` (umaj|uavg|remix|all)"));
    }
    println!("{:<8} {:>8} {:>8} {:>8}", "voter", "BA", "F1", "acc");
    for eval in &results {
        println!(
            "{:<8} {:>8.3} {:>8.3} {:>8.3}",
            eval.voter, eval.balanced_accuracy, eval.f1, eval.accuracy
        );
    }
    Ok(())
}

/// `remix publish <name> <version>` — capture a saved ensemble as a
/// registry artifact.
pub fn publish(args: &Args) -> Result<(), String> {
    let positionals = args
        .expect_positionals(&["name", "version"])
        .map_err(|e| e.to_string())?;
    let (name, version) = (positionals[0], positionals[1]);
    let registry = Registry::open(args.get("registry").ok_or("missing --registry <dir>")?);
    let (mut ensemble, saved) = load_ensemble(args)?;
    let archs: Vec<String> = saved.archs.iter().map(|a| a.name().to_string()).collect();
    let weights = vec![1.0f32; archs.len()];
    let artifact = EnsembleArtifact::capture(
        name,
        version,
        saved.spec,
        &mut ensemble,
        archs,
        weights,
        XaiBudget::default(),
    );
    let info = registry.publish(&artifact).map_err(|e| e.to_string())?;
    println!(
        "published {}@{} ({} models, {} bytes, hash {:016x})\n  -> {}",
        info.name,
        info.version,
        saved.archs.len(),
        info.bytes,
        info.hash,
        info.path.display()
    );
    Ok(())
}

/// `remix models` — list every published model and version in a registry.
pub fn models(args: &Args) -> Result<(), String> {
    no_positionals(args)?;
    let registry = Registry::open(args.get("registry").ok_or("missing --registry <dir>")?);
    let entries = registry.list().map_err(|e| e.to_string())?;
    if entries.is_empty() {
        println!("registry {} holds no models", registry.root().display());
        return Ok(());
    }
    println!(
        "{:<20} {:>10} {:>7} {:>10}  {:<16}",
        "model", "version", "models", "bytes", "hash"
    );
    for entry in entries {
        for v in &entry.versions {
            println!(
                "{:<20} {:>10} {:>7} {:>10}  {:016x}",
                entry.name,
                v.version.to_string(),
                v.models,
                v.bytes,
                v.hash
            );
        }
    }
    Ok(())
}

/// `remix serve`
pub fn serve(args: &Args) -> Result<(), String> {
    use remix_serve::{DriftAction, DriftConfig, NamedModel, ServeConfig, Server};
    use std::time::Duration;

    no_positionals(args)?;
    let defaults = ServeConfig::default();
    // --drift on: every shard folds verdict features into a passive
    // streaming detector; alerts latch into GET /drift and /stats.
    let drift = match args.get_or("drift", "off") {
        "off" => None,
        "on" => Some(DriftConfig::default()),
        other => return Err(format!("unknown --drift `{other}` (on|off)")),
    };
    // --drift-action swap --drift-target <name[@version]>: a tripped alert
    // promotes the target through the hot-swap coordinator (needs
    // --registry).
    let drift_action = match args.get_or("drift-action", "observe") {
        "observe" => DriftAction::Observe,
        "swap" => {
            let target = args
                .get("drift-target")
                .ok_or("--drift-action swap needs --drift-target <name[@version]>")?;
            if args.get("registry").is_none() {
                return Err("--drift-action swap needs --registry".to_string());
            }
            DriftAction::Swap {
                target: target.to_string(),
            }
        }
        other => return Err(format!("unknown --drift-action `{other}` (observe|swap)")),
    };
    if drift.is_none() && drift_action != DriftAction::Observe {
        return Err("--drift-action swap needs --drift on".to_string());
    }
    let config = ServeConfig {
        addr: args.get_or("addr", "127.0.0.1:8484").to_string(),
        max_batch: args.get_num("max-batch", 0usize)?,
        batch_window: Duration::from_micros(
            args.get_num("batch-window-us", defaults.batch_window.as_micros() as u64)?,
        ),
        queue_capacity: args.get_num("queue-cap", defaults.queue_capacity)?,
        default_deadline: Duration::from_millis(
            args.get_num("deadline-ms", defaults.default_deadline.as_millis() as u64)?,
        ),
        cache_capacity: args.get_num("cache-cap", defaults.cache_capacity)?,
        cache_shards: defaults.cache_shards,
        shards: args.get_num("shards", 0usize)?,
        // Per-batch wall-clock allowance for the XAI stage: under pressure
        // the scheduler downgrades the most-confident requests' budget
        // levels to fit, instead of cliff-dropping to the degraded vote.
        // 0 disables the valve. Meaningful only with --xai-ladder on.
        latency_budget: Duration::from_millis(args.get_num("latency-budget", 0u64)?),
        drift,
        drift_action,
    };
    // Each engine shard owns a whole pipeline, so stage parallelism
    // defaults to sequential — with --shards 0 the shards already cover
    // every core. Raise --threads to fan a batch's members out across N
    // threads in the prediction and XAI stages (verdicts are bit-identical
    // either way).
    let builder = Remix::builder()
        .threads(args.get_num("threads", 1usize)?)
        .seed(args.get_num("seed", 0u64)?);
    // --xai-ladder: off (every disagreement gets the full budget, the
    // historical path), fano (adaptive Fano-bound triage), or a pinned rung.
    let builder = match args.get_or("xai-ladder", "off") {
        "off" => builder,
        "fano" => builder.scheduler(TriageScheduler::adaptive()),
        rung => match XaiLevel::parse(rung) {
            Some(level) => builder.scheduler(TriageScheduler::pinned(level)),
            None => {
                return Err(format!(
                    "unknown --xai-ladder `{rung}` (off|fano|skip|light|standard|full)"
                ))
            }
        },
    };
    let remix = builder.build();
    // Two front doors: a registry (`--registry` + repeatable `--model
    // name[@version]`), which enables `POST /models/<name>/swap`, or the
    // legacy single `--ensemble` JSON file.
    let _server = if let Some(dir) = args.get("registry") {
        let registry = Registry::open(dir);
        let specs = args.get_all("model");
        if specs.is_empty() {
            return Err("--registry needs at least one --model <name[@version]>".to_string());
        }
        let mut named = Vec::with_capacity(specs.len());
        for spec in specs {
            let (name, version) = match spec.split_once('@') {
                Some((name, version)) => (name, Some(version)),
                None => (spec, None),
            };
            let loaded = registry
                .load(name, version)
                .map_err(|e| format!("loading {spec}: {e}"))?;
            let ensemble = loaded
                .artifact
                .instantiate()
                .map_err(|e| format!("instantiating {spec}: {e}"))?;
            println!(
                "loaded {name}@{} ({} models, hash {:016x})",
                loaded.version,
                ensemble.models.len(),
                loaded.hash
            );
            named.push(NamedModel {
                name: name.to_string(),
                version: loaded.version.to_string(),
                hash: loaded.hash,
                ensemble,
            });
        }
        let names: Vec<String> = named.iter().map(|m| m.name.clone()).collect();
        let server = Server::start_models(named, Some(registry), remix, config)
            .map_err(|e| format!("starting server: {e}"))?;
        println!(
            "serving models [{}] from registry {dir} on http://{}",
            names.join(", "),
            server.addr()
        );
        server
    } else {
        let (ensemble, saved) = load_ensemble(args)?;
        let server =
            Server::start(ensemble, remix, config).map_err(|e| format!("starting server: {e}"))?;
        println!(
            "serving `{}` ensemble ({} models) on http://{}",
            saved.dataset,
            saved.archs.len(),
            server.addr()
        );
        server
    };
    println!(
        "endpoints: POST /predict, GET /models, POST /models/<name>/swap, GET /healthz, /stats, /drift — stop with ctrl-c"
    );
    // Serve until killed; the process exit tears the listener down.
    loop {
        std::thread::park();
    }
}

/// `remix explain`
pub fn explain(args: &Args) -> Result<(), String> {
    no_positionals(args)?;
    let (_, test) = load_dataset(args)?;
    let (mut ensemble, _) = load_ensemble(args)?;
    let index: usize = args.get_num("index", 0usize)?;
    if index >= test.len() {
        return Err(format!(
            "--index {index} out of range ({} test inputs)",
            test.len()
        ));
    }
    let technique = match args.get_or("technique", "SG").to_uppercase().as_str() {
        "SG" => XaiTechnique::SmoothGrad,
        "IG" => XaiTechnique::IntegratedGradients,
        "SHAP" => XaiTechnique::Shap,
        "LIME" => XaiTechnique::Lime,
        "CFE" => XaiTechnique::Counterfactual,
        "NG" => XaiTechnique::NoiseGrad,
        "FG" => XaiTechnique::FusionGrad,
        other => return Err(format!("unknown technique `{other}`")),
    };
    let image = &test.images[index];
    let label = test.labels[index];
    let remix = Remix::builder()
        .technique(technique)
        .keep_feature_matrices(true)
        .fast_path(false)
        .threads(args.get_num("threads", 0usize)?)
        .build();
    let verdict = remix.predict(&mut ensemble, image);
    println!("test input {index} (true label {label}), technique {technique}:");
    for d in &verdict.details {
        println!(
            "\n{} predicts {} (c={:.2}, δ={:.3}, σ={:.2}, ω={:.4})",
            d.name, d.pred, d.confidence, d.diversity, d.sparseness, d.weight
        );
        let matrix = d.feature_matrix.as_ref().expect("matrices kept");
        print!("{}", render_ascii(matrix));
    }
    println!("\nReMIX verdict: {:?}", verdict.prediction);
    Ok(())
}

fn render_ascii(matrix: &remix_tensor::Tensor) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let (h, w) = (matrix.shape()[0], matrix.shape()[1]);
    let mut out = String::new();
    for y in 0..h {
        for x in 0..w {
            let v = matrix.at(&[y, x]).clamp(0.0, 1.0);
            out.push(RAMP[((v * 9.0).round() as usize).min(9)] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Docs-sync: every `--flag` that `serve()` actually reads must appear
    /// in the README's serving docs. The flag names are scraped from this
    /// file's own source between `pub fn serve` and the next `pub fn`, so
    /// adding a flag to the command without documenting it fails here.
    #[test]
    fn readme_documents_every_serve_flag() {
        let source = include_str!("commands.rs");
        let start = source.find("pub fn serve(").expect("serve() exists");
        let end = source[start..]
            .find("\npub fn ")
            .map_or(source.len(), |offset| start + offset);
        let body = &source[start..end];
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        let mut flags = Vec::new();
        for accessor in ["get_or(\"", "get(\"", "get_num(\"", "get_all(\""] {
            let mut rest = body;
            while let Some(pos) = rest.find(accessor) {
                rest = &rest[pos + accessor.len()..];
                let flag = &rest[..rest.find('"').expect("closing quote")];
                if !flags.contains(&flag) {
                    flags.push(flag);
                }
            }
        }
        assert!(
            flags.len() >= 15,
            "the flag sweep should find serve()'s flags, got {flags:?}"
        );
        for flag in flags {
            assert!(
                readme.contains(&format!("`--{flag}`")),
                "README.md serving docs are missing `--{flag}`"
            );
        }
    }

    #[test]
    fn dataset_lookup_covers_all_names() {
        for name in ["gtsrb", "cifar", "pneumonia", "mnist", "tabular"] {
            assert!(spec_for(name).is_ok(), "{name}");
        }
        assert!(spec_for("imagenet").is_err());
    }

    #[test]
    fn arch_lookup_is_case_insensitive() {
        assert_eq!(arch_by_name("convnet").unwrap(), Arch::ConvNet);
        assert_eq!(arch_by_name("VGG11").unwrap(), Arch::Vgg11);
        assert!(arch_by_name("transformer").is_err());
    }

    #[test]
    fn train_then_evaluate_roundtrip_via_file() {
        let dir = std::env::temp_dir().join("remix_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("ens.json");
        let out_str = out.to_str().unwrap().to_string();
        let train_args = Args::parse(
            [
                "train",
                "--dataset",
                "mnist",
                "--archs",
                "ConvNet",
                "--epochs",
                "2",
                "--train",
                "60",
                "--out",
                &out_str,
            ]
            .map(String::from),
        )
        .unwrap();
        train(&train_args).unwrap();
        let eval_args = Args::parse(
            [
                "evaluate",
                "--dataset",
                "mnist",
                "--ensemble",
                &out_str,
                "--test",
                "10",
                "--voter",
                "umaj",
            ]
            .map(String::from),
        )
        .unwrap();
        evaluate(&eval_args).unwrap();
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn publish_then_list_then_reinstantiate() {
        let dir = std::env::temp_dir().join(format!("remix_cli_publish_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("ens.json");
        let out_str = out.to_str().unwrap().to_string();
        let reg = dir.join("registry");
        let reg_str = reg.to_str().unwrap().to_string();
        let train_args = Args::parse(
            [
                "train",
                "--dataset",
                "mnist",
                "--archs",
                "ConvNet",
                "--epochs",
                "1",
                "--train",
                "40",
                "--out",
                &out_str,
            ]
            .map(String::from),
        )
        .unwrap();
        train(&train_args).unwrap();
        let publish_args = Args::parse(
            [
                "publish",
                "demo",
                "1.0.0",
                "--ensemble",
                &out_str,
                "--registry",
                &reg_str,
            ]
            .map(String::from),
        )
        .unwrap();
        publish(&publish_args).unwrap();
        // Missing positionals are caught before any I/O happens.
        let bad =
            Args::parse(["publish", "demo", "--registry", &reg_str].map(String::from)).unwrap();
        assert!(publish(&bad).unwrap_err().contains("version"));
        let models_args =
            Args::parse(["models", "--registry", &reg_str].map(String::from)).unwrap();
        models(&models_args).unwrap();
        // The published artifact resolves, verifies, and instantiates: the
        // same path `remix serve --registry` takes.
        let loaded = Registry::open(&reg).load("demo", None).unwrap();
        assert_eq!(loaded.version.to_string(), "1.0.0");
        let ensemble = loaded.artifact.instantiate().unwrap();
        assert_eq!(ensemble.models.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
