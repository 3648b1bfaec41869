//! The inference engine: each shard runs one of these on its own thread,
//! owning an ensemble replica and turning micro-batches of requests into
//! replies.
//!
//! The ReMIX stages themselves are [`Remix::predict_batch`]'s: the engine
//! hands it the batch's images with a [`BatchPolicy`] carrying the two
//! decisions serving makes — each request's deadline, and the
//! `--latency-budget` allowance priced from the engine's running cost
//! estimate — and takes each verdict as it is delivered: it bumps the
//! shard's counters, renders the fragment, caches it when eligible, replies,
//! and folds the verdict's drift features. Fast-path, degraded and Skip
//! verdicts are delivered before any XAI sweep starts, so they never wait
//! on a batchmate's XAI. Every verdict that is neither degraded nor
//! downgraded is bit-identical to what `Remix::predict` returns for the
//! same input — the property the bench gate asserts byte-for-byte on the
//! wire.

use crate::batcher::{BatchQueue, EngineReply, PendingRequest};
use crate::cache::{generation_key, VerdictCache};
use crate::drift::{verdict_features, EngineDrift};
use crate::metrics::ShardCounters;
use crate::protocol;
use remix_core::{BatchPolicy, Remix};
use remix_ensemble::TrainedEnsemble;
use remix_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Smoothing factor for the engine's running ns-per-sweep-unit estimate:
/// each measured XAI stage contributes 30 %, so the estimate tracks load
/// shifts within a few batches without whipsawing on one outlier.
const COST_EWMA_ALPHA: f64 = 0.3;

/// A prepared replacement ensemble waiting for one engine shard to adopt it
/// (already `prepare_ensemble`d off-path by the swap coordinator).
pub(crate) struct PendingSwap {
    /// The frozen replica for this shard.
    pub ensemble: TrainedEnsemble,
    /// Integrity hash of the artifact it came from (the cache generation).
    pub artifact_hash: u64,
}

/// The per-shard hot-swap mailbox. The swap coordinator deposits a
/// [`PendingSwap`] and bumps `generation`; the engine checks the counter
/// between batches (one relaxed-ish atomic load on the hot path) and adopts
/// the replacement *before* processing the next batch, so in-flight batches
/// drain on the old version and everything popped after the deposit runs on
/// the new one.
#[derive(Default)]
pub(crate) struct SwapSlot {
    /// The replacement, if one is waiting. A second swap before adoption
    /// simply replaces it — the engine only ever wants the latest.
    pub pending: Mutex<Option<PendingSwap>>,
    /// Bumped (Release) after each deposit; the engine compares (Acquire)
    /// against the generation it last adopted.
    pub generation: AtomicU64,
}

pub(crate) struct Engine {
    pub remix: Remix,
    pub ensemble: TrainedEnsemble,
    pub cache: Arc<VerdictCache>,
    pub counters: Arc<ShardCounters>,
    /// Wall-clock allowance for one batch's XAI stage, priced into the
    /// batch's [`BatchPolicy::allowance`]; zero disables pressure
    /// downgrades.
    pub latency_budget: Duration,
    /// EWMA of nanoseconds per sweep unit (see
    /// [`remix_xai::XaiBudget::sweep_units`]), read from the XAI verdicts'
    /// `timings.xai`; `0.0` until first measured. Only consulted to *price*
    /// the allowance — never to pick levels — so verdict content stays
    /// deterministic; only which requests get downgraded under pressure
    /// depends on it.
    pub ns_per_unit: f64,
    /// This shard's hot-swap mailbox (shared with the coordinator).
    pub swap: Arc<SwapSlot>,
    /// Artifact hash of the ensemble currently held; keys cache inserts so
    /// a verdict is only ever findable under the generation that produced
    /// it (`0` for a locally-constructed, non-registry ensemble).
    pub artifact_hash: u64,
    /// The swap generation last adopted.
    pub seen_generation: u64,
    /// The streaming drift detector for this shard, when enabled. Strictly
    /// passive: features are folded *after* each verdict is formed and
    /// delivered, so the reply bytes are bit-identical with the detector on
    /// or off.
    pub drift: Option<EngineDrift>,
}

impl Engine {
    /// Runs until the queue closes and drains.
    pub(crate) fn run(mut self, queue: Arc<BatchQueue>) {
        while let Some(batch) = queue.next_batch() {
            self.adopt_pending_swap();
            if !batch.is_empty() {
                self.process(batch);
            }
        }
    }

    /// Adopts a deposited hot-swap, if any. Called between batches, so the
    /// flip is invisible to any batch already being processed.
    fn adopt_pending_swap(&mut self) {
        let generation = self.swap.generation.load(Ordering::Acquire);
        if generation == self.seen_generation {
            return;
        }
        self.seen_generation = generation;
        let pending = self
            .swap
            .pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(swap) = pending {
            self.ensemble = swap.ensemble;
            self.artifact_hash = swap.artifact_hash;
            // A new model generation invalidates the drift baseline: clear
            // the latch and re-learn the reference under the new weights.
            if let Some(drift) = &mut self.drift {
                drift.reset();
            }
        }
    }

    fn process(&mut self, batch: Vec<PendingRequest>) {
        let span = remix_trace::span("serve_batch");
        self.counters.bump_batch(batch.len());
        let images: Vec<Tensor> = batch.iter().map(|r| r.image.clone()).collect();
        // The allowance needs a warm cost model; the pipeline applies it only
        // with a scheduler attached.
        let policy = BatchPolicy {
            deadlines: Some(batch.iter().map(|r| r.deadline).collect()),
            allowance: (!self.latency_budget.is_zero() && self.ns_per_unit > 0.0)
                .then(|| (self.latency_budget.as_nanos() as f64 / self.ns_per_unit) as u64),
        };
        let members = self.ensemble.models.len() as u64;
        let explainer = *self.remix.explainer();
        let (mut xai_ns, mut xai_units) = (0u128, 0u64);
        let Engine {
            remix,
            ensemble,
            cache,
            counters,
            artifact_hash,
            drift,
            ..
        } = self;
        remix.predict_batch(ensemble, &images, &policy, |k, verdict| {
            let request = &batch[k];
            counters.bump_verdict(&verdict);
            if !verdict.details.is_empty() {
                xai_ns += verdict.timings.xai.as_nanos();
                xai_units += explainer.sweep_units_at(verdict.xai_level) * members;
            }
            let fragment: Arc<str> = Arc::from(protocol::verdict_fragment(&verdict));
            // Degraded and downgraded verdicts reflect load, not the input.
            // Inserts are keyed under *this engine's* artifact hash — not the
            // group's currently-published one — so a verdict prepared under
            // version A but finishing after a flip to B can never surface on
            // B's lookups.
            if !verdict.degraded && !verdict.downgraded && !request.no_cache {
                cache.insert(
                    generation_key(request.key, *artifact_hash),
                    request.image.data(),
                    Arc::clone(&fragment),
                );
            }
            request.reply.respond(EngineReply::verdict(
                fragment,
                verdict.degraded,
                verdict.unanimous,
            ));
            if let Some(drift) = drift {
                drift.fold(&verdict_features(&verdict), counters);
            }
        });
        // Refresh the cost model from what the sweeps took. It prices future
        // allowances only, never the verdicts themselves.
        if xai_units > 0 {
            let measured = xai_ns as f64 / xai_units as f64;
            self.ns_per_unit = if self.ns_per_unit > 0.0 {
                COST_EWMA_ALPHA * measured + (1.0 - COST_EWMA_ALPHA) * self.ns_per_unit
            } else {
                measured
            };
        }
        span.finish();
    }
}
