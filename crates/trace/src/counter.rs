//! Named atomic event counters.
//!
//! A fixed enum (rather than string keys) keeps the hot path to one bounds-
//! free array index plus a relaxed `fetch_add` — exact under any concurrency
//! because each increment is a single atomic RMW.

use std::sync::atomic::{AtomicU64, Ordering};

/// Generates [`Counter`], [`Counter::ALL`] and [`Counter::name`] from one
/// list of `Variant => "exported_name"` rows.
macro_rules! counters {
    ($($(#[$doc:meta])+ $variant:ident => $name:literal,)+) => {
        /// The discrete events the pipeline tallies.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])+ $variant,)+
        }

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: [Counter; [$($name),+].len()] = [$(Counter::$variant),+];

            /// Stable snake_case name used in exported records.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    /// GEMM kernel invocations (`matmul` family entry points).
    GemmCalls => "gemm_calls",
    /// Multiply-accumulate operations dispatched to the GEMM kernels.
    GemmMacs => "gemm_macs",
    /// Bytes written into packed GEMM operand layouts (A blocks + B panels),
    /// including one-time `prepack_*` packs. Prepacked entry points skip the
    /// weight-side pack, so this counter makes the saving observable.
    GemmPackBytes => "gemm_pack_bytes",
    /// GEMM calls served from a persistent prepacked operand
    /// (`remix_tensor::PackedOperand`) instead of re-packing the weight side.
    PrepackHits => "prepack_hits",
    /// Jobs posted to the persistent worker pool.
    PoolJobs => "pool_jobs",
    /// Tasks fanned out across pool jobs (claimed by workers or the poster).
    PoolTasks => "pool_tasks",
    /// Perturbed inputs evaluated by the XAI batched engine.
    XaiPerturbations => "xai_perturbations",
    /// Batched model sweeps the XAI engine issued.
    XaiBatches => "xai_batches",
    /// `Remix::predict` calls.
    Predictions => "predictions",
    /// Predictions resolved by the unanimous fast path (no XAI run).
    FastPathHits => "fast_path_hits",
    /// Predictions that disagreed and ran the full five-stage pipeline.
    Disagreements => "disagreements",
    /// Mini-batches processed by `Trainer::fit`.
    TrainBatches => "train_batches",
    /// Training samples processed by `Trainer::fit` (sum of batch sizes).
    TrainSamples => "train_samples",
    /// Span records discarded because the registry hit its size cap.
    SpansDropped => "spans_dropped",
}

const NCOUNTERS: usize = Counter::ALL.len();

static COUNTERS: [AtomicU64; NCOUNTERS] = [const { AtomicU64::new(0) }; NCOUNTERS];

/// Adds `n` to `counter` (no-op while tracing is disabled).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if crate::enabled() {
        force_add(counter, n);
    }
}

/// Adds 1 to `counter` (no-op while tracing is disabled).
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Adds unconditionally; internal bookkeeping (e.g. drop counts) that must
/// register even on paths that already checked the enabled flag.
pub(crate) fn force_add(counter: Counter, n: u64) {
    COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Current value of `counter`.
pub fn counter(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// All non-zero counters as `(name, value)` pairs, in declaration order.
pub(crate) fn counter_values() -> Vec<(&'static str, u64)> {
    Counter::ALL
        .iter()
        .filter_map(|&c| {
            let v = counter(c);
            (v > 0).then(|| (c.name(), v))
        })
        .collect()
}

/// Zeroes every counter.
pub(crate) fn reset_counters() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn add_respects_enabled_flag_and_is_exact() {
        let _guard = testutil::lock();
        crate::set_enabled(false);
        crate::reset();
        add(Counter::GemmCalls, 5);
        assert_eq!(counter(Counter::GemmCalls), 0);
        crate::set_enabled(true);
        for _ in 0..100 {
            incr(Counter::GemmCalls);
        }
        add(Counter::GemmMacs, 1 << 40);
        crate::set_enabled(false);
        assert_eq!(counter(Counter::GemmCalls), 100);
        assert_eq!(counter(Counter::GemmMacs), 1 << 40);
        let values = counter_values();
        assert_eq!(
            values,
            vec![("gemm_calls", 100), ("gemm_macs", 1 << 40)],
            "only non-zero counters are exported"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }
}
