//! The ReMIX benchmark: one command per workload and seed.
//!
//! Each workload builds its inputs from the seed, drives the program only
//! through its public APIs (`remix_serve::{Server, Client}`, `Remix`,
//! `Trainer`, `Registry`) inside this one process, checks every output, and
//! reports end-to-end metrics. With tracing on it repeats the timed phase
//! with `remix_trace` enabled and then replays the workload's inputs through
//! each layer's public functions under the benchmark's own spans, to report
//! per-layer metrics. See `README.md` for why each workload exists.

pub mod fixtures;
pub mod layers;
pub mod serve;
pub mod spans;
pub mod stats;

use stats::Metrics;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Deadline carried by every request: far beyond any observed latency, so
/// no verdict degrades.
pub const DEADLINE_MS: u64 = 600_000;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// XAI-bound serving of the GTSRB analogue at the Full rung.
    ServeGtsrbFull,
    /// Cache-bound serving of tabular MLPs under a Zipf request stream.
    ServeTabularZipf,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::ServeGtsrbFull, Workload::ServeTabularZipf];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeGtsrbFull => "serve_gtsrb_full",
            Workload::ServeTabularZipf => "serve_tabular_zipf",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// When a timed phase ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// After this much wall time (the benchmark).
    Time(Duration),
    /// After this many requests per client (tests: a fixed amount of work
    /// makes every count repeatable).
    Count(usize),
}

/// Input sizes. [`Size::benchmark`] is what the command runs;
/// [`Size::tiny`] keeps the determinism tests fast.
#[derive(Debug, Clone)]
pub struct Size {
    /// End of every timed phase.
    pub stop: Stop,
    /// GTSRB analogue training samples.
    pub gtsrb_train: usize,
    /// GTSRB analogue held-out samples.
    pub gtsrb_test: usize,
    /// GTSRB training epochs.
    pub gtsrb_epochs: usize,
    /// Disagreement inputs the GTSRB requests are drawn from.
    pub pool: usize,
    /// Requests per client in each GTSRB warm-up.
    pub gtsrb_warmup: usize,
    /// Tabular training samples.
    pub tabular_train: usize,
    /// Distinct tabular request inputs.
    pub tabular_distinct: usize,
    /// Tabular training epochs.
    pub tabular_epochs: usize,
    /// Server verdict-cache capacity on the tabular workload.
    pub tabular_cache: usize,
    /// Requests per client in each tabular warm-up.
    pub tabular_warmup: usize,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
    /// Requests replayed through the front-door functions (traced run).
    pub replay_requests: usize,
    /// Distinct inputs replayed through the pipeline functions (traced run).
    pub replay_distinct: usize,
}

impl Size {
    /// The benchmark's sizes, with timed phases of `seconds`.
    pub fn benchmark(seconds: f64) -> Size {
        Size {
            stop: Stop::Time(Duration::from_secs_f64(seconds)),
            gtsrb_train: 860,
            gtsrb_test: 430,
            gtsrb_epochs: 3,
            pool: 128,
            gtsrb_warmup: 16,
            tabular_train: 600,
            tabular_distinct: 16_384,
            tabular_epochs: 8,
            tabular_cache: 4096,
            tabular_warmup: 14_000,
            setups: 3,
            replay_requests: 4096,
            replay_distinct: 32,
        }
    }

    /// Small sizes with a fixed amount of work per phase.
    pub fn tiny() -> Size {
        Size {
            stop: Stop::Count(6),
            gtsrb_train: 129,
            gtsrb_test: 86,
            gtsrb_epochs: 1,
            pool: 8,
            gtsrb_warmup: 2,
            tabular_train: 120,
            tabular_distinct: 512,
            tabular_epochs: 2,
            tabular_cache: 64,
            tabular_warmup: 300,
            setups: 1,
            replay_requests: 32,
            replay_distinct: 4,
        }
    }
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Corrupt the first reply one client receives, to prove the checks
    /// fail.
    pub doctor: bool,
}

/// Counts that must repeat exactly between two runs of the same seed and
/// size (and the verdict bytes), for the determinism tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fingerprint {
    /// The verdict fragment of every request input, by input; every reply
    /// of the run equalled its input's fragment byte for byte.
    pub verdicts: Vec<String>,
    /// The first inputs of the request stream.
    pub inputs: Vec<usize>,
    /// Requests sent in the timed phase.
    pub requests: u64,
    /// Engine micro-batches in the timed phase.
    pub batches: u64,
    /// Engine verdicts per rung (skip, light, standard, full).
    pub rungs: [u64; 4],
    /// Verdicts served from the cache.
    pub cache_hits: u64,
    /// XAI perturbations evaluated (traced run).
    pub xai_perturbations: u64,
    /// GEMM multiply-accumulates per operation (traced run).
    pub gemm_macs_per_op: f64,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed: non-200, degraded, transport error, or a
    /// reply that differs from the reference.
    pub failed: u64,
    /// Other failed checks (empty on a correct run).
    pub problems: Vec<String>,
    /// End-to-end metrics of the timed phase.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced run only).
    pub per_layer: Metrics,
    /// Diagnostic lines printed before the result.
    pub notes: Vec<String>,
    /// Spans recorded by the traced run, as JSON.
    pub spans_json: Option<String>,
    /// Repeatable counts and verdict bytes.
    pub fingerprint: Fingerprint,
}

impl Outcome {
    /// True when every output was checked and correct.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }
}

/// Directory for scratch registries and span files, inside the package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Pins the thread budget so runnable work never exceeds the cores:
/// serial GEMM for this process. Must run before the first parallel call.
pub fn pin_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("REMIX_THREADS", "1"));
}

/// Runs one workload.
pub fn run(opts: &Options) -> Outcome {
    pin_threads();
    match opts.workload {
        Workload::ServeGtsrbFull => serve::run(opts, serve::Kind::GtsrbFull),
        Workload::ServeTabularZipf => serve::run(opts, serve::Kind::TabularZipf),
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's resident-set high-water mark to its current
/// resident set (`/proc/self/clear_refs`), so that [`peak_rss_mb`] then
/// reads the peak since this call. False where the kernel does not allow
/// it; the mark then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Times a fixed single-thread arithmetic loop, in ms: a diagnostic of host
/// speed drift over a run, not a metric.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1e-16;
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// Jiffies of the whole machine from `/proc/stat`: `(steal, total)`, or
/// zeros where unavailable. Their deltas over a run give the share of time
/// the hypervisor ran something else: a diagnostic of host noise.
pub fn host_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|line| line.ends_with(reference))
                    .and_then(|line| line.split_whitespace().next())
                    .map(str::to_string)
            }),
    };
    commit
        .filter(|c| c.len() == 40 && c.chars().all(|ch| ch.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Mixes a seed with a stream tag into an independent seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    remix_tensor::splitmix64(seed ^ remix_tensor::splitmix64(tag))
}
