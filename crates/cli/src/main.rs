//! `remix` — command-line interface for the ReMIX reproduction.
//!
//! ```text
//! remix datasets
//! remix train    --dataset gtsrb --archs ConvNet,ResNet18,MobileNet \
//!                --mislabel 0.3 --epochs 8 --out ensemble.json
//! remix evaluate --dataset gtsrb --ensemble ensemble.json [--voter remix|umaj|uavg]
//! remix explain  --dataset gtsrb --ensemble ensemble.json --index 3 --technique SG
//! remix serve    --ensemble ensemble.json --addr 127.0.0.1:8484
//! remix publish  tabular 1.0.0 --ensemble ensemble.json --registry registry/
//! remix models   --registry registry/
//! remix serve    --registry registry/ --model tabular --model side@1.2.0
//! ```
//!
//! Trained ensembles are stored as JSON state dictionaries
//! (`remix_nn::state`), so evaluation and explanation runs don't retrain.

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
remix — ReMIX reproduction CLI

USAGE:
  remix datasets
      List the synthetic dataset families and their shapes.
  remix train --dataset <gtsrb|cifar|pneumonia|mnist|tabular> [options]
      Train an ensemble (optionally on fault-injected data) and save it.
      --archs    comma list of zoo architectures  [ConvNet,ResNet18,MobileNet]
      --epochs   training epochs                  [8]
      --mislabel fraction of labels to corrupt    [0.0]
      --removal  fraction of samples to remove    [0.0]
      --train    training-set size                [dataset default]
      --seed     RNG seed                         [0]
      --out      output JSON path                 [ensemble.json]
  remix evaluate --dataset <name> --ensemble <path> [--voter <name>] [--test <n>] [--threads <t>]
      Evaluate a saved ensemble. Voters: umaj, uavg, remix (default: all).
      --threads  worker threads over test samples [0]; 0 = auto (REMIX_THREADS
                 if set, else all cores), 1 = sequential.
      Results are bit-identical for any thread count.
  remix explain --dataset <name> --ensemble <path> [--index <i>] [--technique <SG|IG|SHAP|LIME|CFE>] [--threads <t>]
      Render each model's feature matrix for one test input.
      --index      test-set input to explain                  [0]
      --technique  XAI technique                              [SG]
      --threads    XAI-stage threads; 0 = auto as above       [0]
  remix publish <name> <version> --ensemble <path> --registry <dir>
      Capture a saved ensemble as a versioned, integrity-hashed registry
      artifact (semver versions; the artifact is published atomically).
  remix models --registry <dir>
      List every published model and version with hashes and sizes.
  remix serve (--ensemble <path> | --registry <dir> --model <name[@version]>...) [options]
      Serve over HTTP with micro-batching, a verdict cache, and
      deadline-aware degradation (POST /predict, GET /models, /healthz,
      /stats). With --registry, each --model names a published artifact to
      host as a named group (`@version` pins one; default is latest), and
      POST /models/<name>/swap hot-swaps a group to another published
      version without dropping in-flight requests.
      --addr            bind address                          [127.0.0.1:8484]
      --max-batch       requests per engine micro-batch; 0 derives it from
                        the XAI batch size                    [0]
      --batch-window-us micro-batch formation window, µs; 0 stops
                        the wait but still batches queued requests
                        up to --max-batch                     [500]
      --queue-cap       queued requests before shedding 429   [256]
      --deadline-ms     default per-request deadline; past it a disagreement
                        degrades to plain majority vote       [50]
      --cache-cap       verdict-cache entries, split across the engine
                        shards; 0 disables                    [4096]
      --shards          engine shards, each owning an ensemble replica,
                        queue, and cache slice; 0 = all cores [0]
      --threads         threads a batch's members fan out over
                        in the prediction and XAI stages      [1]
      --seed            ReMIX XAI seed                        [0]
      --xai-ladder      XAI budget scheduling: off = full budget for every
                        disagreement, fano = adaptive Fano-bound triage,
                        or a pinned rung (skip|light|standard|full) [off]
      --latency-budget  per-batch XAI wall-clock allowance, ms; under
                        pressure the scheduler downgrades the most-confident
                        requests' rungs to fit; 0 disables    [0]
      Runs until killed; `--trace` output is never written for this
      subcommand (use GET /stats for live counters).

GLOBAL OPTIONS:
  --trace <path>
      Record telemetry (spans, counters, histograms) for the whole run and
      write it to <path> as JSON (or JSONL if the path ends in .jsonl); a
      human-readable tree summary is printed on completion. Tracing does not
      change any result — instrumented code is bit-identical either way.

ENVIRONMENT:
  REMIX_THREADS
      Worker count used whenever a --threads option is 0 (auto). An explicit
      --threads value always wins; unset auto falls back to all cores.
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let trace_path = args.get("trace").map(std::path::PathBuf::from);
    if trace_path.is_some() {
        remix_trace::reset();
        remix_trace::set_enabled(true);
    }
    let result = match args.command.as_str() {
        "datasets" => args
            .expect_positionals(&[])
            .map_err(|e| e.to_string())
            .and_then(|_| commands::datasets()),
        "train" => commands::train(&args),
        "evaluate" => commands::evaluate(&args),
        "explain" => commands::explain(&args),
        "serve" => commands::serve(&args),
        "publish" => commands::publish(&args),
        "models" => commands::models(&args),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    if let Some(path) = &trace_path {
        remix_trace::set_enabled(false);
        let report = remix_trace::snapshot();
        print!("{}", report.render_tree());
        if let Err(e) = report.write(path) {
            eprintln!("error: writing trace to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace written to {}", path.display());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
