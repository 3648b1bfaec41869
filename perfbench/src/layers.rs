//! The metric records: end-to-end metrics of a timed phase, and the fixed
//! list of per-layer metrics every traced run emits.
//!
//! Every workload emits every per-layer name; a layer the workload does not
//! exercise reads 0 (for example `serve.cache_us` on `serve_gtsrb_full`,
//! whose cache is off).

use crate::spans::Spans;
use crate::stats::{median_or_zero, tail_percentile, Metrics};
use remix_trace::Counter;

/// Members per ensemble; per-member metrics are named `m0`, `m1`, `m2` in
/// ensemble order.
pub const MEMBERS: usize = 3;

/// XAI ladder rungs, as named in per-rung metrics.
pub const RUNGS: [&str; 4] = ["skip", "light", "standard", "full"];

/// What a timed phase measured, for the end-to-end metrics.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Wall time of each set-up, in s.
    pub setup_s: Vec<f64>,
    /// Requests completed in the timed phase.
    pub work: u64,
    /// Wall time of the timed phase, in s.
    pub elapsed_s: f64,
    /// Client latency of each request, in ms.
    pub latencies_ms: Vec<f64>,
    /// Process high-water mark over the timed phase, read at its end.
    pub peak_rss_mb: f64,
    /// Balanced accuracy of the verdicts the workload produced.
    pub balanced_accuracy: f64,
}

impl EndToEnd {
    /// The end-to-end metrics. A tail percentile with too thin a tail is
    /// left out and reported as a problem.
    pub fn metrics(&self, problems: &mut Vec<String>) -> Metrics {
        let mut m = Metrics::default();
        m.push("setup_s", median_or_zero(&self.setup_s), "s");
        let throughput = if self.elapsed_s > 0.0 {
            self.work as f64 / self.elapsed_s
        } else {
            0.0
        };
        m.push("throughput_per_s", throughput, "1/s");
        match tail_percentile(&self.latencies_ms, TAIL) {
            Ok(tail) => m.push("latency_p95_ms", tail, "ms"),
            Err(why) => problems.push(format!("latency_p95_ms refused: {why}")),
        }
        m.push("peak_rss_mb", self.peak_rss_mb, "MB");
        m.push("balanced_accuracy", self.balanced_accuracy, "1");
        m
    }
}

/// The one gated latency percentile. On the 2-vCPU VM this benchmark was
/// built on, p99 moved with the host rather than the program: over ten runs
/// of identical code the tabular p99 ranged from 1.0 to 5.2 ms (the vCPU
/// wake-ups on its miss path pay the hypervisor's scheduling delay). The
/// median moved with it too: `serve_gtsrb_full` pairs take ≈28 or ≈41 ms
/// as the host's speed changes every few seconds, so the median falls in
/// whichever state held most of a run, and its quartile spread over ten
/// runs reached 0.35. p95 stays in the slow state (spread 0.02–0.08 on
/// both workloads). p50, p90, p99 and p99.9 are still printed, as
/// diagnostics, by [`percentiles_note`].
pub const TAIL: f64 = 95.0;

/// A diagnostic line of latency percentiles (nearest rank, each printed
/// only with at least ten samples beyond it) and the sample count.
pub fn percentiles_note(latencies_ms: &[f64]) -> String {
    let mut line = String::from("latency_ms");
    for p in [50.0, 90.0, 95.0, 99.0, 99.9] {
        match tail_percentile(latencies_ms, p) {
            Ok(v) => line.push_str(&format!(" p{p} {v}")),
            Err(_) => line.push_str(&format!(" p{p} refused")),
        }
    }
    line.push_str(&format!(" samples {}", latencies_ms.len()));
    line
}

/// The existing `remix_trace` counters the traced run reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `Remix::predict` calls and engine verdicts.
    pub predictions: u64,
    /// Verdicts whose members disagreed.
    pub disagreements: u64,
    /// Perturbed inputs evaluated by the XAI engine.
    pub xai_perturbations: u64,
    /// GEMM kernel calls.
    pub gemm_calls: u64,
    /// GEMM multiply-accumulates.
    pub gemm_macs: u64,
    /// Bytes packed into GEMM operand layouts.
    pub pack_bytes: u64,
    /// GEMM calls served from a prepacked weight operand.
    pub prepack_hits: u64,
    /// Jobs posted to the worker pool.
    pub pool_jobs: u64,
}

impl Counters {
    /// Current counter values.
    pub fn read() -> Counters {
        let c = remix_trace::counter;
        Counters {
            predictions: c(Counter::Predictions),
            disagreements: c(Counter::Disagreements),
            xai_perturbations: c(Counter::XaiPerturbations),
            gemm_calls: c(Counter::GemmCalls),
            gemm_macs: c(Counter::GemmMacs),
            pack_bytes: c(Counter::GemmPackBytes),
            prepack_hits: c(Counter::PrepackHits),
            pool_jobs: c(Counter::PoolJobs),
        }
    }
}

/// Resets the trace registry and turns tracing on for a timed phase.
pub fn start_tracing() {
    remix_trace::reset();
    remix_trace::set_enabled(true);
}

/// Turns tracing off and returns the counters of the phase.
pub fn stop_tracing() -> Counters {
    remix_trace::set_enabled(false);
    let counters = Counters::read();
    remix_trace::reset();
    counters
}

/// What the traced run measured besides its spans.
#[derive(Debug, Clone, Default)]
pub struct LayerData {
    /// Server-side latency of each reply (`latency_us`), in ms.
    pub server_ms: Vec<f64>,
    /// Client latency minus server latency of each reply, in ms.
    pub front_ms: Vec<f64>,
    /// Engine micro-batches (from `Server::stats` deltas).
    pub batches: u64,
    /// Requests those batches carried.
    pub batched_requests: u64,
    /// Requests answered from the verdict cache.
    pub cache_hits: u64,
    /// Requests the server accepted.
    pub requests: u64,
    /// Engine verdicts that ran XAI (Light, Standard or Full).
    pub xai_verdicts: u64,
    /// Requests of the timed phase.
    pub ops: u64,
    /// Counters of the timed phase.
    pub counters: Counters,
    /// Size of the published artifact.
    pub artifact_bytes: u64,
}

fn span_median(spans: &Spans, name: &str, scale: f64) -> f64 {
    median_or_zero(&spans.durations_ms(name)) * scale
}

impl LayerData {
    /// Every per-layer metric, in a fixed order. Spans supply the timings
    /// of the replayed layer calls; the rest comes from the timed phase.
    pub fn metrics(&self, spans: &Spans) -> Metrics {
        let c = &self.counters;
        let mut m = Metrics::default();
        m.push("serve.server_ms_p50", median_or_zero(&self.server_ms), "ms");
        m.push("serve.front_ms_p50", median_or_zero(&self.front_ms), "ms");
        m.ratio(
            "serve.batch_occupancy",
            self.batched_requests as f64,
            self.batches,
            "req/batch",
        );
        m.ratio(
            "serve.cache_hit_ratio",
            self.cache_hits as f64,
            self.requests,
            "1",
        );
        m.push(
            "serve.parse_us",
            span_median(spans, "serve.parse", 1e3),
            "us",
        );
        m.push(
            "serve.cache_us",
            span_median(spans, "serve.cache", 1e3),
            "us",
        );
        m.push(
            "serve.render_us",
            span_median(spans, "serve.render", 1e3),
            "us",
        );
        for rung in RUNGS {
            m.push(
                format!("core.predict_ms_p50.{rung}"),
                span_median(spans, &format!("core.predict.{rung}"), 1.0),
                "ms",
            );
        }
        m.push(
            "core.triage_us",
            span_median(spans, "core.triage", 1e3),
            "us",
        );
        m.push(
            "core.resolve_us",
            span_median(spans, "core.resolve", 1e3),
            "us",
        );
        m.ratio(
            "core.disagreement_ratio",
            c.disagreements as f64,
            c.predictions,
            "1",
        );
        m.push(
            "xai.explain_ms",
            span_median(spans, "xai.explain", 1.0),
            "ms",
        );
        m.ratio(
            "xai.perturbations_per_verdict",
            c.xai_perturbations as f64,
            self.xai_verdicts,
            "count",
        );
        m.push(
            "diversity.pair_us",
            span_median(spans, "diversity.pair", 1e3),
            "us",
        );
        for i in 0..MEMBERS {
            m.push(
                format!("nn.forward_ms.m{i}"),
                span_median(spans, &format!("nn.forward.m{i}"), 1.0),
                "ms",
            );
        }
        for i in 0..MEMBERS {
            m.push(
                format!("nn.input_grad_ms.m{i}"),
                span_median(spans, &format!("nn.input_grad.m{i}"), 1.0),
                "ms",
            );
        }
        // The run trains its ensemble once, before the clock.
        for i in 0..MEMBERS {
            let total_ms: f64 = spans.durations_ms(&format!("nn.fit.m{i}")).iter().sum();
            m.push(format!("nn.fit_s.m{i}"), total_ms * 1e-3, "s");
        }
        m.push("nn.freeze_ms", span_median(spans, "nn.freeze", 1.0), "ms");
        m.ratio(
            "tensor.gemm_macs_per_op",
            c.gemm_macs as f64,
            self.ops,
            "MAC/op",
        );
        m.ratio(
            "tensor.pack_bytes_per_op",
            c.pack_bytes as f64,
            self.ops,
            "B/op",
        );
        m.ratio(
            "tensor.prepack_hit_ratio",
            c.prepack_hits as f64,
            c.gemm_calls,
            "1",
        );
        m.push("parallel.pool_jobs", c.pool_jobs as f64, "count");
        m.push(
            "registry.publish_ms",
            span_median(spans, "registry.publish", 1.0),
            "ms",
        );
        m.push(
            "registry.load_ms",
            span_median(spans, "registry.load", 1.0),
            "ms",
        );
        m.push("registry.artifact_bytes", self.artifact_bytes as f64, "B");
        m.push(
            "faults.pattern_ms",
            span_median(spans, "faults.pattern", 1.0),
            "ms",
        );
        m
    }
}
