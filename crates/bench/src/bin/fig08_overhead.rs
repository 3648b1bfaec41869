//! Fig. 8: average per-input runtime overhead of every technique relative to
//! the best individual model, plus ReMIX's stage breakdown (the paper finds
//! XAI extraction dominating at ~67 % of the overhead, and ReMIX ≈ 1.15× the
//! cost of D-WMaj).
//!
//! The runner additionally benchmarks the batched XAI inference engine
//! against the per-sample path (`--threads N` pins the process's worker
//! count, default auto), asserts the verdicts are bit-identical, and writes
//! a machine-readable record to `results/bench_inference.json`. A verdict
//! mismatch, or a traced `--threads 1` run that posted work to the worker
//! pool, exits nonzero so CI can gate on it.

use remix_bench::{round, write_record, FaultSetting, Scale, TrainedStack};
use remix_core::{Remix, RemixVerdict, RemixVoter, StageTimings};
use remix_data::SyntheticSpec;
use remix_ensemble::{
    BestIndividual, StackedDynamic, StaticWeighted, UniformAverage, UniformMajority, Voter,
};
use remix_faults::{pattern, FaultConfig, FaultType};
use serde::Serialize;
use std::time::{Duration, Instant};

/// `results/bench_inference.json`.
#[derive(Serialize)]
struct Record {
    benchmark: &'static str,
    scale: &'static str,
    inputs: usize,
    disagreement_inputs: u32,
    threads: usize,
    /// The SIMD level the dispatched kernels ran at
    /// (`remix_tensor::simd_level`).
    simd_level: &'static str,
    stack_train_secs: f64,
    engines: Engines,
    speedup_batched_vs_per_sample: f64,
    verdicts_identical: bool,
}

#[derive(Serialize)]
struct Engines {
    per_sample: Engine,
    batched: Engine,
}

#[derive(Serialize)]
struct Engine {
    batch_size: usize,
    wall_secs: f64,
    stages_secs: Stages,
    explanations_per_sec: f64,
}

#[derive(Serialize)]
struct Stages {
    prediction: f64,
    xai: f64,
    diversity: f64,
    weighting: f64,
}

/// One batched-vs-per-sample measurement: stage sums over the disagreement
/// inputs, total wall, and the full verdict list for bitwise comparison.
struct EngineRun {
    batch_size: usize,
    wall: Duration,
    stage: StageTimings,
    disagreements: u32,
    verdicts: Vec<RemixVerdict>,
}

impl EngineRun {
    /// This run's entry under `engines` in the record.
    fn record(&self) -> Engine {
        let secs = |d: Duration| round(d.as_secs_f64(), 6);
        Engine {
            batch_size: self.batch_size,
            wall_secs: secs(self.wall),
            stages_secs: Stages {
                prediction: secs(self.stage.prediction),
                xai: secs(self.stage.xai),
                diversity: secs(self.stage.diversity),
                weighting: secs(self.stage.weighting),
            },
            // one explanation per (disagreement input × constituent model)
            explanations_per_sec: round(
                f64::from(self.disagreements * 3) / self.stage.xai.as_secs_f64().max(1e-9),
                3,
            ),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // `--threads N` is the process budget, not only the pipeline's: it
    // pins `REMIX_THREADS`, which sizes the worker pool, before anything
    // reaches the pool.
    if threads > 0 {
        std::env::set_var("REMIX_THREADS", threads.to_string());
    }
    let trace_path: Option<std::path::PathBuf> =
        args.iter().position(|a| a == "--trace").map(|i| {
            args.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .map_or_else(
                    || std::path::PathBuf::from("results/trace_fig08.json"),
                    std::path::PathBuf::from,
                )
        });
    let scale = Scale::from_env();
    let (train, test) = SyntheticSpec::gtsrb_like()
        .train_size(scale.train_size)
        .test_size(scale.test_size.min(120))
        .generate();
    let pat = pattern::extract(&train, 3, 5);
    let setting = FaultSetting::Single(FaultConfig::new(FaultType::Mislabelling, 0.3));
    let train_start = Instant::now();
    let mut stack = TrainedStack::train(&train, &pat, &setting, 3, &scale, 100);
    let stack_train_secs = train_start.elapsed().as_secs_f64();
    println!("Stack training: {stack_train_secs:.3}s wall\n");
    // best-individual baseline time
    let mut best = BestIndividual::fit(&mut stack.ensemble, &stack.validation);
    let measure = |name: &str, f: &mut dyn FnMut(&remix_tensor::Tensor)| {
        let mut total = Duration::ZERO;
        let mut worst = Duration::ZERO;
        for img in &test.images {
            let t = Instant::now();
            f(img);
            let dt = t.elapsed();
            total += dt;
            worst = worst.max(dt);
        }
        let avg = total / test.len() as u32;
        (name.to_string(), avg, worst)
    };
    let mut results = Vec::new();
    {
        let ens = &mut stack.ensemble;
        results.push(measure("Best", &mut |img| {
            best.vote(ens, img);
        }));
    }
    {
        let ens = &mut stack.ensemble;
        results.push(measure("UMaj", &mut |img| {
            UniformMajority.vote(ens, img);
        }));
        results.push(measure("UAvg", &mut |img| {
            UniformAverage.vote(ens, img);
        }));
    }
    let mut swmaj = StaticWeighted::fit(&mut stack.ensemble, &stack.validation);
    {
        let ens = &mut stack.ensemble;
        results.push(measure("S-WMaj", &mut |img| {
            swmaj.vote(ens, img);
        }));
    }
    let mut dwmaj = StackedDynamic::fit(&mut stack.ensemble, &stack.validation);
    {
        let ens = &mut stack.ensemble;
        results.push(measure("D-WMaj", &mut |img| {
            dwmaj.vote(ens, img);
        }));
    }
    {
        let ens = &mut stack.bagged;
        results.push(measure("Bagging", &mut |img| {
            UniformMajority.vote(ens, img);
        }));
    }
    {
        let (ens, voter) = (&mut stack.boosted.0, &mut stack.boosted.1);
        results.push(measure("Boosting", &mut |img| {
            voter.vote(ens, img);
        }));
    }
    let mut remix_voter = RemixVoter::new(Remix::builder().build());
    {
        let ens = &mut stack.ensemble;
        results.push(measure("ReMIX", &mut |img| {
            remix_voter.vote(ens, img);
        }));
    }
    let base = results[0].1;
    println!(
        "Fig. 8 — per-input runtime (avg over {} inputs)\n",
        test.len()
    );
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "technique", "avg", "worst", "x Best"
    );
    for (name, avg, worst) in &results {
        println!(
            "{:<10} {:>12.3?} {:>12.3?} {:>9.2}x",
            name,
            avg,
            worst,
            avg.as_secs_f64() / base.as_secs_f64()
        );
    }
    // ReMIX stage breakdown over disagreement inputs: the per-sample XAI
    // path (batch_size 1) against the batched inference engine (default 32),
    // at the same thread count.
    let runs: Vec<EngineRun> = [1usize, 32]
        .into_iter()
        .map(|batch_size| {
            let remix = Remix::builder()
                .threads(threads)
                .xai_batch_size(batch_size)
                .build();
            let mut stage = StageTimings::default();
            let mut disagreements = 0u32;
            let mut verdicts = Vec::with_capacity(test.len());
            let wall = Instant::now();
            for img in &test.images {
                let v = remix.predict(&mut stack.ensemble, img);
                if !v.unanimous {
                    stage.prediction += v.timings.prediction;
                    stage.xai += v.timings.xai;
                    stage.diversity += v.timings.diversity;
                    stage.weighting += v.timings.weighting;
                    stage.threads = v.timings.threads;
                    disagreements += 1;
                }
                verdicts.push(v);
            }
            let wall = wall.elapsed();
            print_breakdown(batch_size, &stage, disagreements, wall);
            EngineRun {
                batch_size,
                wall,
                stage,
                disagreements,
                verdicts,
            }
        })
        .collect();
    let per_sample = &runs[0];
    let batched = &runs[1];
    let verdicts_identical = per_sample
        .verdicts
        .iter()
        .zip(&batched.verdicts)
        .all(|(a, b)| verdicts_bit_equal(a, b));
    let speedup = per_sample.wall.as_secs_f64() / batched.wall.as_secs_f64();
    println!(
        "\nBatched engine (batch 32) vs per-sample: {:.3?} vs {:.3?} ({speedup:.2}x), \
         verdicts {}",
        batched.wall,
        per_sample.wall,
        if verdicts_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    write_record(
        "bench_inference.json",
        &Record {
            benchmark: "fig08_overhead",
            scale: scale.name,
            inputs: test.len(),
            disagreement_inputs: batched.disagreements,
            threads: batched.stage.threads,
            simd_level: remix_tensor::simd_level().name(),
            stack_train_secs: round(stack_train_secs, 6),
            engines: Engines {
                per_sample: per_sample.record(),
                batched: batched.record(),
            },
            speedup_batched_vs_per_sample: round(speedup, 3),
            verdicts_identical,
        },
    );
    println!("\nPaper: ReMIX ≈ 1.15× D-WMaj, ≈ 4.5× UMaj/UAvg/S-WMaj/Bagging, ≈ 6× Best.");
    if !verdicts_identical {
        eprintln!("ERROR: batched verdicts diverged from the per-sample path");
        std::process::exit(1);
    }
    if let Some(path) = trace_path {
        run_traced(&mut stack, &test, threads, batched, &path);
    }
}

/// Reruns the batched engine with tracing enabled and gates on the tracing
/// contracts: (1) verdicts are bit-identical to the untraced run, (2) the
/// span tree's per-stage totals agree with the legacy `StageTimings` sums
/// within 1 %, and (3) a single-thread run posts no pool job. Writes the
/// trace record to `path` and prints the tree.
fn run_traced(
    stack: &mut TrainedStack,
    test: &remix_data::Dataset,
    threads: usize,
    untraced: &EngineRun,
    path: &std::path::Path,
) {
    remix_trace::reset();
    remix_trace::set_enabled(true);
    let remix = Remix::builder()
        .threads(threads)
        .xai_batch_size(untraced.batch_size)
        .build();
    // Accumulate legacy timings over ALL inputs (fast-path verdicts carry a
    // prediction time and zero elsewhere), matching what the span registry
    // sees: one "prediction" stage span per input, XAI/diversity/weighting
    // spans only on disagreements.
    let mut stage = StageTimings::default();
    let mut verdicts = Vec::with_capacity(test.len());
    for img in &test.images {
        let v = remix.predict(&mut stack.ensemble, img);
        stage.prediction += v.timings.prediction;
        stage.xai += v.timings.xai;
        stage.diversity += v.timings.diversity;
        stage.weighting += v.timings.weighting;
        verdicts.push(v);
    }
    remix_trace::set_enabled(false);
    let report = remix_trace::snapshot();
    let pool_jobs = remix_trace::counter(remix_trace::Counter::PoolJobs);
    if threads == 1 && pool_jobs != 0 {
        eprintln!("ERROR: a single-thread traced run posted {pool_jobs} jobs to the worker pool");
        std::process::exit(1);
    }
    let traced_identical = untraced
        .verdicts
        .iter()
        .zip(&verdicts)
        .all(|(a, b)| verdicts_bit_equal(a, b));
    if !traced_identical {
        eprintln!("ERROR: verdicts with tracing enabled diverged from the untraced run");
        std::process::exit(1);
    }
    let predict = report
        .spans
        .iter()
        .find(|n| n.name == "predict")
        .unwrap_or_else(|| {
            eprintln!("ERROR: traced run recorded no `predict` span");
            std::process::exit(1);
        });
    println!(
        "\nTraced rerun (batch {}): verdicts bit-identical to untraced run",
        untraced.batch_size
    );
    let mut stage_ok = true;
    for (name, legacy) in [
        ("prediction", stage.prediction),
        ("xai", stage.xai),
        ("diversity", stage.diversity),
        ("weighting", stage.weighting),
    ] {
        let tree_ns = predict
            .children
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.total_ns);
        let legacy_ns = legacy.as_nanos() as u64;
        let diff = tree_ns.abs_diff(legacy_ns);
        // 1% tolerance per the acceptance criteria; in practice the values
        // are exactly equal because StageSpan records the duration it returns.
        let ok = diff as f64 <= 0.01 * legacy_ns.max(1) as f64;
        println!(
            "  stage {name:<10} span tree {tree_ns:>14} ns   legacy {legacy_ns:>14} ns   {}",
            if ok { "agree" } else { "DISAGREE" }
        );
        stage_ok &= ok;
    }
    if !stage_ok {
        eprintln!("ERROR: span-tree stage totals disagree with legacy StageTimings by >1%");
        std::process::exit(1);
    }
    print!("\n{}", report.render_tree());
    report.write(path).expect("write trace record");
    println!("Trace written to {}", path.display());
}

fn print_breakdown(batch_size: usize, stage: &StageTimings, disagreements: u32, wall: Duration) {
    if disagreements == 0 {
        return;
    }
    let total = stage.total().as_secs_f64();
    println!(
        "\nReMIX stage breakdown over {disagreements} disagreement inputs \
         ({} worker thread{}, XAI batch {batch_size}, wall {:.3?}):",
        stage.threads,
        if stage.threads == 1 { "" } else { "s" },
        wall
    );
    println!(
        "  ensemble prediction: {:>5.1}%  {:>10.3?}   (paper: ~15%)",
        stage.prediction.as_secs_f64() / total * 100.0,
        stage.prediction
    );
    println!(
        "  XAI extraction:      {:>5.1}%  {:>10.3?}   (paper: ~67%)",
        stage.xai.as_secs_f64() / total * 100.0,
        stage.xai
    );
    println!(
        "  pairwise diversity:  {:>5.1}%  {:>10.3?}",
        stage.diversity.as_secs_f64() / total * 100.0,
        stage.diversity
    );
    println!(
        "  weights + voting:    {:>5.1}%  {:>10.3?}   (paper: ~18%)",
        stage.weighting.as_secs_f64() / total * 100.0,
        stage.weighting
    );
}

/// Bitwise verdict equality: decision, fast-path flag, and every per-model
/// statistic compared by bit pattern (timings excluded — they are the one
/// thing batching is supposed to change).
fn verdicts_bit_equal(a: &RemixVerdict, b: &RemixVerdict) -> bool {
    a.prediction == b.prediction
        && a.unanimous == b.unanimous
        && a.details.len() == b.details.len()
        && a.details.iter().zip(&b.details).all(|(x, y)| {
            x.name == y.name
                && x.pred == y.pred
                && x.confidence.to_bits() == y.confidence.to_bits()
                && x.diversity.to_bits() == y.diversity.to_bits()
                && x.sparseness.to_bits() == y.sparseness.to_bits()
                && x.weight.to_bits() == y.weight.to_bits()
        })
}
