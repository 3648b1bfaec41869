use crate::streams::XaiStreams;
use crate::triage::{plan_downgrades, TriageScheduler, TriageSignals};
use crate::verdict::{ModelDetail, RemixVerdict, StageTimings};
use rand::rngs::StdRng;
use remix_diversity::{sparseness_with_threshold, DiversityMetric};
use remix_ensemble::{majority_with_weights, ModelOutput, Prediction, TrainedEnsemble};
use remix_tensor::Tensor;
use remix_trace::Counter;
use remix_xai::{Explainer, ExplainerConfig, XaiLevel, XaiTechnique};
use std::time::{Duration, Instant};

/// The ReMIX meta-learner (paper §IV): XAI technique + diversity metric +
/// weight-generation parameters.
///
/// Built via [`Remix::builder`]. The paper's preferred configuration —
/// Smooth Gradients, Cosine Distance, α = 20 — is the default.
#[derive(Debug, Clone)]
pub struct Remix {
    explainer: Explainer,
    scheduler: Option<TriageScheduler>,
    metric: DiversityMetric,
    alpha: f32,
    sparseness_threshold: f32,
    majority_threshold: f32,
    keep_feature_matrices: bool,
    fast_path: bool,
    threads: usize,
    streams: XaiStreams,
}

/// The two per-batch decisions a caller of [`Remix::predict_batch`] makes
/// itself; everything else is the pipeline's. `Default` sets neither, which
/// is what [`Remix::predict`] runs with.
#[derive(Debug, Clone, Default)]
pub struct BatchPolicy {
    /// One deadline per input, in input order. A disagreement whose deadline
    /// has passed when triage reaches it skips XAI and returns the
    /// unweighted majority vote, marked [`RemixVerdict::degraded`]. The
    /// clock is read once, right after the prediction stage.
    pub deadlines: Option<Vec<Instant>>,
    /// The batch's XAI allowance in sweep units (see
    /// [`remix_xai::XaiBudget::sweep_units`]), counted over every member.
    /// With a scheduler attached, [`plan_downgrades`] moves the
    /// most-confident disagreements down the ladder until the batch's bill
    /// fits; the moved verdicts are marked [`RemixVerdict::downgraded`].
    /// Ignored without a scheduler.
    pub allowance: Option<u64>,
}

impl Remix {
    /// Starts building a ReMIX instance.
    pub fn builder() -> RemixBuilder {
        RemixBuilder::default()
    }

    /// The configured XAI technique.
    pub fn technique(&self) -> XaiTechnique {
        self.explainer.technique
    }

    /// The configured diversity metric.
    pub fn metric(&self) -> DiversityMetric {
        self.metric
    }

    /// The configured explainer (technique + parameters): its
    /// [`remix_xai::XaiBudget`] sizes serving micro-batches and prices
    /// [`BatchPolicy::allowance`], and a caller that runs the XAI stage
    /// itself reads the technique from here to sweep as
    /// [`Remix::predict_batch`] would.
    pub fn explainer(&self) -> &Explainer {
        &self.explainer
    }

    /// The attached triage scheduler, if any (see
    /// [`RemixBuilder::scheduler`]). [`Remix::predict_batch`] consults it;
    /// a caller that runs the stages itself reads it from here to assign the
    /// same levels.
    pub fn scheduler(&self) -> Option<&TriageScheduler> {
        self.scheduler.as_ref()
    }

    /// The deterministic RNG stream for one model's XAI pass.
    ///
    /// Keyed by the model's *name* (not its index), so the stream a model
    /// receives is invariant under ensemble permutation, and independent of
    /// every other model's stream — the prerequisite for running XAI in
    /// parallel and for verdicts that don't depend on model order. Every
    /// input in a batch starts its own copy of the stream, so a verdict does
    /// not depend on its batchmates either. SmoothGrad reads only the
    /// stream's first standard-normal draws, so this `Remix` (and its
    /// clones) draws them once per model name and every input reads a
    /// prefix.
    pub fn xai_rng(&self, model_name: &str) -> StdRng {
        self.streams.rng(model_name)
    }

    /// Freezes an ensemble for steady-state serving: every model's weight
    /// matrices are prepacked once ([`TrainedEnsemble::freeze_for_inference`])
    /// and reused across every subsequent [`Remix::predict`] — both the
    /// prediction forwards and the XAI perturbation sweeps, which account for
    /// almost all GEMM work on a disagreement. Verdicts are bit-identical to
    /// the unfrozen ensemble; retraining drops the packs automatically, so a
    /// long-lived service re-freezes after any weight update.
    pub fn prepare_ensemble(&self, ensemble: &mut TrainedEnsemble) {
        ensemble.freeze_for_inference();
    }

    /// Runs the five-component ReMIX pipeline on one input: a batch of one
    /// through [`Remix::predict_batch`] with the default [`BatchPolicy`],
    /// under a `predict` trace span.
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is empty or the image does not match the
    /// models' input spec.
    pub fn predict(&self, ensemble: &mut TrainedEnsemble, image: &Tensor) -> RemixVerdict {
        let span = remix_trace::span("predict");
        let mut verdict = None;
        let images = std::slice::from_ref(image);
        self.predict_batch(ensemble, images, &BatchPolicy::default(), |_, v| {
            verdict = Some(v)
        });
        let verdict = verdict.expect("one verdict per input");
        let kind = if verdict.unanimous {
            "verdict_unanimous"
        } else if verdict.details.is_empty() {
            "verdict_skip"
        } else {
            "verdict_weighted"
        };
        remix_trace::record_duration(kind, span.finish());
        verdict
    }

    /// Runs the five-component ReMIX pipeline on a batch of inputs and hands
    /// each verdict to `deliver(input index, verdict)` as soon as it is
    /// decided.
    ///
    /// 1. **Prediction** — each member forwards the whole batch in one
    ///    lane-major [`remix_nn::Model::predict_proba_batch`].
    /// 2. **Triage**, per input in order — a unanimous input takes the fast
    ///    path; a disagreement past its [`BatchPolicy::deadlines`] entry
    ///    degrades to the unweighted majority vote; every other
    ///    disagreement gets its [`TriageSignals`] and a level from the
    ///    attached scheduler (`Full` without one), which
    ///    [`BatchPolicy::allowance`] may lower through [`plan_downgrades`].
    /// 3. **Per rung**, Skip to Full — Skip resolves to the unweighted
    ///    majority vote; on the XAI rungs each member explains the group in
    ///    one [`Explainer::explain_many`] call, each input drawing its own
    ///    copy of the member's [`Remix::xai_rng`] stream (SmoothGrad reads
    ///    the stream's memoised draws through
    ///    [`Explainer::explain_many_with_draws`] instead), and
    ///    [`Remix::resolve_disagreement`] weighs and votes per input.
    ///
    /// So fast-path, degraded and Skip verdicts are all delivered before any
    /// XAI sweep starts, then each rung's group as it resolves, each group
    /// in input order. Members fan out over the `threads` builder option in
    /// the prediction and XAI stages; within a member each technique sweeps
    /// its perturbations in chunks of [`RemixBuilder::xai_batch_size`].
    ///
    /// Every verdict that is neither degraded nor downgraded is
    /// bit-identical to [`Remix::predict`] on its input alone, for any batch
    /// composition, order, thread count or XAI batch size: lane-major
    /// forwards and coalesced sweeps are bit-identical to one-input ones,
    /// every input draws the streams it would draw alone, and the diversity
    /// sums accumulate in a fixed order. The `predictions`, `disagreements`
    /// and `fast_path_hits` trace counters count once per input.
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is empty, an image does not match the models'
    /// input spec, or `policy.deadlines` does not hold one entry per image.
    pub fn predict_batch(
        &self,
        ensemble: &mut TrainedEnsemble,
        images: &[Tensor],
        policy: &BatchPolicy,
        mut deliver: impl FnMut(usize, RemixVerdict),
    ) {
        if images.is_empty() {
            return;
        }
        if let Some(deadlines) = &policy.deadlines {
            assert_eq!(deadlines.len(), images.len(), "one deadline per input");
        }
        let threads = remix_parallel::resolve_threads(self.threads);
        remix_trace::add(Counter::Predictions, images.len() as u64);
        // Each stage runs under a `StageSpan`, which measures wall time
        // whether or not tracing is enabled; `StageTimings` is the view of
        // exactly those measurements, so the struct and the span tree agree.
        let stage = remix_trace::stage_span("prediction");
        let per_model = remix_parallel::map_mut_indexed(&mut ensemble.models, threads, |_, m| {
            m.predict_proba_batch(images)
                .expect("images match the models' input spec")
        });
        let timings = StageTimings {
            prediction: stage.finish() / images.len() as u32,
            threads,
            ..StageTimings::default()
        };
        let outputs = transpose(per_model, images.len(), ModelOutput::from_probs);
        let unweighted = |outs: &[ModelOutput]| {
            let vote = majority_with_weights(outs.iter().map(|o| (o.pred, 1.0)), outs.len() as f32);
            RemixVerdict {
                timings,
                ..RemixVerdict::unweighted(vote)
            }
        };

        // Triage: the fast path first (a unanimous ensemble has no
        // influence, paper §IV), then the deadline against one clock read —
        // the last point before XAI is committed to — then the scheduler.
        let clock = policy.deadlines.as_ref().map(|d| (Instant::now(), d));
        // (input, assigned level, signals) of every disagreement left.
        let mut triaged: Vec<(usize, XaiLevel, TriageSignals)> = Vec::new();
        for (k, outs) in outputs.iter().enumerate() {
            let first = outs[0].pred;
            if self.fast_path && outs.iter().all(|o| o.pred == first) {
                remix_trace::incr(Counter::FastPathHits);
                let verdict = RemixVerdict::unweighted(Prediction::Decided(first));
                deliver(
                    k,
                    RemixVerdict {
                        unanimous: true,
                        timings,
                        ..verdict
                    },
                );
                continue;
            }
            remix_trace::incr(Counter::Disagreements);
            if clock.is_some_and(|(now, deadlines)| now > deadlines[k]) {
                deliver(
                    k,
                    RemixVerdict {
                        degraded: true,
                        ..unweighted(outs)
                    },
                );
                continue;
            }
            triaged.push(match &self.scheduler {
                Some(scheduler) => {
                    let (level, signals) = scheduler.assess(outs);
                    (k, level, signals)
                }
                None => (k, XaiLevel::Full, TriageScheduler::signals(outs)),
            });
        }
        // The allowance may only move levels *down*, so a downgraded verdict
        // is exactly what the scheduler would produce at the lower level.
        let mut levels: Vec<XaiLevel> = triaged.iter().map(|t| t.1).collect();
        if let (Some(allowance), Some(_)) = (policy.allowance, &self.scheduler) {
            let members = ensemble.models.len() as u64;
            let errors: Vec<f32> = triaged.iter().map(|t| t.2.predicted_error).collect();
            let cost = |level| self.explainer.sweep_units_at(level) * members;
            plan_downgrades(&mut levels, &errors, cost, allowance);
        }

        for level in XaiLevel::LADDER {
            let group: Vec<usize> = (0..triaged.len()).filter(|&i| levels[i] == level).collect();
            if group.is_empty() {
                continue;
            }
            // (1) Feature Space Extraction: per member, one coalesced sweep
            // over the group.
            let (per_model, xai) = if level == XaiLevel::Skip {
                (Vec::new(), Duration::ZERO)
            } else {
                let explainer = self.explainer.at_level(level);
                let stage = remix_trace::stage_span("xai");
                let rung = remix_trace::span(match level {
                    XaiLevel::Light => "xai_light",
                    XaiLevel::Standard => "xai_standard",
                    _ => "xai_full",
                });
                // Every input would draw the same prefix of its member's
                // stream, so SmoothGrad members read the memoised draws.
                let draws: Option<Vec<_>> = explainer.noise_draws(images[0].len()).map(|count| {
                    let names = ensemble.models.iter().map(|m| &m.name);
                    names
                        .map(|name| self.streams.normals(name, count))
                        .collect()
                });
                let per_model =
                    remix_parallel::map_mut_indexed(&mut ensemble.models, threads, |m, model| {
                        let items: Vec<(&Tensor, usize)> = group
                            .iter()
                            .map(|&i| (&images[triaged[i].0], outputs[triaged[i].0][m].pred))
                            .collect();
                        match &draws {
                            Some(draws) => {
                                explainer.explain_many_with_draws(model, &items, &draws[m])
                            }
                            None => {
                                let mut rngs: Vec<StdRng> =
                                    group.iter().map(|_| self.xai_rng(&model.name)).collect();
                                explainer.explain_many(model, &items, &mut rngs)
                            }
                        }
                    });
                rung.finish();
                (per_model, stage.finish() / group.len() as u32)
            };
            // (2)–(5) per input; Skip resolves without evidence.
            for (&i, matrices) in group.iter().zip(transpose(per_model, group.len(), |m| m)) {
                let (k, assigned, signals) = triaged[i];
                let mut verdict = if level == XaiLevel::Skip {
                    unweighted(&outputs[k])
                } else {
                    self.resolve_disagreement(ensemble, &outputs[k], &matrices)
                };
                verdict.xai_level = level;
                verdict.downgraded = assigned != level;
                verdict.signals = Some(signals);
                verdict.timings.prediction = timings.prediction;
                verdict.timings.xai = xai;
                deliver(k, verdict);
            }
        }
    }

    /// Runs pipeline stages (2)–(5) — diversity, sparseness, weighting,
    /// weighted vote — on already-computed model outputs and feature
    /// matrices, in the exact float-accumulation order of
    /// [`Remix::predict`].
    ///
    /// This is the verdict-resolution half of [`Remix::predict_batch`],
    /// which calls it once per XAI verdict; it is public so that a caller
    /// running the prediction and XAI stages itself (a staged replay that
    /// times each stage, say) resolves through the same code bit for bit.
    /// The returned verdict is tagged [`XaiLevel::Full`] with no signals,
    /// and its timings cover only the `diversity` and `weighting` stages;
    /// the level, signals, `prediction` and `xai` are the caller's to fill.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` and `matrices` don't both have one entry per
    /// ensemble model, in ensemble order.
    pub fn resolve_disagreement(
        &self,
        ensemble: &TrainedEnsemble,
        outputs: &[ModelOutput],
        matrices: &[Tensor],
    ) -> RemixVerdict {
        assert_eq!(outputs.len(), ensemble.models.len(), "one output per model");
        assert_eq!(
            matrices.len(),
            ensemble.models.len(),
            "one matrix per model"
        );
        let threads = remix_parallel::resolve_threads(self.threads);
        let mut timings = StageTimings {
            threads,
            ..StageTimings::default()
        };
        let stage = remix_trace::stage_span("diversity");
        // (2) Feature-space Diversity: mean pairwise diversity per model,
        // summed in (i, j) order on this thread. A verdict's few pairs cost
        // less than one pool post.
        let n = matrices.len();
        let mut diversity = vec![0.0f32; n];
        if n > 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = self.metric.diversity(&matrices[i], &matrices[j]);
                    diversity[i] += d;
                    diversity[j] += d;
                }
            }
            for d in &mut diversity {
                *d /= (n - 1) as f32;
            }
        }
        timings.diversity = stage.finish();
        let stage = remix_trace::stage_span("weighting");
        // (3) Feature Sparseness, (4) Weight Generation (Eq. 5)
        let mut details = Vec::with_capacity(n);
        for ((model, out), (matrix, &delta)) in ensemble
            .models
            .iter()
            .zip(outputs)
            .zip(matrices.iter().zip(&diversity))
        {
            let sigma = sparseness_with_threshold(matrix, self.sparseness_threshold);
            let weight = out.confidence * delta * (self.alpha * sigma).tanh();
            details.push(ModelDetail {
                name: model.name.clone(),
                pred: out.pred,
                confidence: out.confidence,
                diversity: delta,
                sparseness: sigma,
                weight,
                feature_matrix: self.keep_feature_matrices.then(|| matrix.clone()),
            });
        }
        // (5) Weighted Majority Voting with the 50% threshold
        let total: f32 = details.iter().map(|d| d.weight).sum();
        let mut tally: std::collections::HashMap<usize, f32> = std::collections::HashMap::new();
        for d in &details {
            *tally.entry(d.pred).or_insert(0.0) += d.weight;
        }
        let prediction = tally
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map_or(Prediction::NoMajority, |(class, weight)| {
                if total > 0.0 && weight > self.majority_threshold * total {
                    Prediction::Decided(class)
                } else {
                    Prediction::NoMajority
                }
            });
        timings.weighting = stage.finish();
        RemixVerdict {
            details,
            // The resolution math itself is level-agnostic; callers that ran
            // the XAI stage at a scaled budget overwrite this tag.
            xai_level: XaiLevel::Full,
            timings,
            ..RemixVerdict::unweighted(prediction)
        }
    }
}

/// Regroups per-member, per-input results `per_model[m][k]` into per-input
/// vectors in member order, moving each item through `f`.
fn transpose<T, U>(per_model: Vec<Vec<T>>, inputs: usize, f: impl Fn(T) -> U) -> Vec<Vec<U>> {
    let mut columns: Vec<_> = per_model.into_iter().map(Vec::into_iter).collect();
    (0..inputs)
        .map(|_| {
            columns
                .iter_mut()
                .map(|c| f(c.next().expect("one result per input")))
                .collect()
        })
        .collect()
}

impl Default for Remix {
    fn default() -> Self {
        Remix::builder().build()
    }
}

/// Builder for [`Remix`].
///
/// # Example
///
/// ```
/// use remix_core::Remix;
/// use remix_diversity::DiversityMetric;
/// use remix_xai::XaiTechnique;
///
/// let remix = Remix::builder()
///     .technique(XaiTechnique::Shap)
///     .metric(DiversityMetric::RSquared)
///     .alpha(10.0)
///     .build();
/// assert_eq!(remix.technique(), XaiTechnique::Shap);
/// ```
#[derive(Debug, Clone)]
pub struct RemixBuilder {
    technique: XaiTechnique,
    scheduler: Option<TriageScheduler>,
    explainer_config: ExplainerConfig,
    metric: DiversityMetric,
    alpha: f32,
    sparseness_threshold: f32,
    majority_threshold: f32,
    keep_feature_matrices: bool,
    fast_path: bool,
    seed: u64,
    threads: usize,
}

impl Default for RemixBuilder {
    fn default() -> Self {
        Self {
            technique: XaiTechnique::SmoothGrad,
            scheduler: None,
            explainer_config: ExplainerConfig::default(),
            metric: DiversityMetric::CosineDistance,
            alpha: 20.0,
            // The paper counts entries below 0.01 as zero. Our feature
            // matrices are min-max normalized with a higher noise floor than
            // the authors' full-scale saliency maps, so the equivalent
            // "near-zero" cut sits at 0.2 of the max (see DESIGN.md §3);
            // with it, tanh(20σ) saturates for focused maps and only
            // penalizes extremely dense ones, as intended.
            sparseness_threshold: 0.2,
            majority_threshold: 0.5,
            keep_feature_matrices: false,
            fast_path: true,
            seed: 0,
            threads: 0,
        }
    }
}

impl RemixBuilder {
    /// Sets the XAI technique (default: Smooth Gradients, per RQ3).
    pub fn technique(mut self, technique: XaiTechnique) -> Self {
        self.technique = technique;
        self
    }

    /// Sets the XAI technique parameters.
    pub fn explainer_config(mut self, config: ExplainerConfig) -> Self {
        self.explainer_config = config;
        self
    }

    /// Attaches a [`TriageScheduler`] that maps each disagreement to an
    /// [`XaiLevel`] from its prediction-stage signals (default: none — every
    /// disagreement runs the full budget, the historical behavior, which
    /// `TriageScheduler::pinned(XaiLevel::Full)` reproduces bit-identically).
    pub fn scheduler(mut self, scheduler: TriageScheduler) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets how many perturbed inputs each XAI technique pushes through the
    /// model per forward pass (default: 32; clamped to at least 1).
    ///
    /// Batching is a pure execution-strategy knob: every technique
    /// materializes its perturbations (and all RNG draws) up front, so the
    /// feature matrices — and therefore the verdict — are bit-identical for
    /// every batch size.
    pub fn xai_batch_size(mut self, batch_size: usize) -> Self {
        self.explainer_config.budget.batch_size = batch_size;
        self
    }

    /// Sets the diversity metric (default: Cosine Distance, per RQ4).
    pub fn metric(mut self, metric: DiversityMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the sparseness activation steepness α (default 20, so only
    /// extremely unfocused explanations are penalized).
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 0`.
    pub fn alpha(mut self, alpha: f32) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// Sets the near-zero threshold for sparseness (default 0.2 of the
    /// normalized matrix maximum; the paper's 0.01 assumes unnormalized
    /// saliency scales).
    pub fn sparseness_threshold(mut self, threshold: f32) -> Self {
        self.sparseness_threshold = threshold;
        self
    }

    /// Sets the majority threshold (default 0.5: a class must carry more
    /// than half the total weight).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= threshold < 1.0`.
    pub fn majority_threshold(mut self, threshold: f32) -> Self {
        assert!((0.0..1.0).contains(&threshold));
        self.majority_threshold = threshold;
        self
    }

    /// Keeps each model's feature matrix in the verdict (for visualization;
    /// costs memory).
    pub fn keep_feature_matrices(mut self, keep: bool) -> Self {
        self.keep_feature_matrices = keep;
        self
    }

    /// Enables/disables the unanimous fast path (default on; the ablation
    /// benchmark turns it off).
    pub fn fast_path(mut self, enabled: bool) -> Self {
        self.fast_path = enabled;
        self
    }

    /// Seeds the stochastic XAI techniques (default 0; ReMIX predictions are
    /// deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the worker threads for the prediction and XAI stages
    /// (default `0` = all available cores, honoring `REMIX_THREADS`; `1`
    /// forces sequential execution). Verdicts are bit-identical for any
    /// value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Finalizes the ReMIX instance.
    pub fn build(self) -> Remix {
        Remix {
            explainer: Explainer::with_config(self.technique, self.explainer_config),
            scheduler: self.scheduler,
            metric: self.metric,
            alpha: self.alpha,
            sparseness_threshold: self.sparseness_threshold,
            majority_threshold: self.majority_threshold,
            keep_feature_matrices: self.keep_feature_matrices,
            fast_path: self.fast_path,
            threads: self.threads,
            streams: XaiStreams::new(self.seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use remix_data::SyntheticSpec;
    use remix_ensemble::train_zoo;
    use remix_nn::Arch;

    fn small_ensemble() -> (TrainedEnsemble, remix_data::Dataset) {
        let (train, test) = SyntheticSpec::mnist_like()
            .train_size(150)
            .test_size(30)
            .generate();
        let models = train_zoo(
            &[Arch::ConvNet, Arch::DeconvNet, Arch::MobileNet],
            &train,
            6,
            42,
        );
        (TrainedEnsemble::new(models), test)
    }

    #[test]
    fn fast_path_on_unanimity() {
        let (mut ens, test) = small_ensemble();
        // find an input all three agree on
        for (img, _) in test.iter() {
            let outs = ens.outputs(img);
            if outs.iter().all(|o| o.pred == outs[0].pred) {
                let verdict = Remix::builder().build().predict(&mut ens, img);
                assert!(verdict.unanimous);
                assert_eq!(verdict.prediction, Prediction::Decided(outs[0].pred));
                assert!(verdict.details.is_empty());
                assert_eq!(verdict.timings.xai.as_nanos(), 0);
                return;
            }
        }
        panic!("no unanimous test input found");
    }

    #[test]
    fn disagreement_produces_full_details() {
        let (mut ens, test) = small_ensemble();
        let remix = Remix::builder().keep_feature_matrices(true).build();
        for (img, _) in test.iter() {
            let outs = ens.outputs(img);
            if !outs.iter().all(|o| o.pred == outs[0].pred) {
                let verdict = remix.predict(&mut ens, img);
                assert!(!verdict.unanimous);
                assert_eq!(verdict.details.len(), 3);
                for d in &verdict.details {
                    assert!(d.weight >= 0.0, "weight {}", d.weight);
                    assert!((0.0..=1.0).contains(&d.sparseness));
                    assert!(d.diversity >= 0.0);
                    assert!(d.feature_matrix.is_some());
                }
                assert!(verdict.timings.xai.as_nanos() > 0);
                return;
            }
        }
        panic!("no disagreeing test input found");
    }

    #[test]
    fn weight_formula_matches_eq5() {
        let (mut ens, test) = small_ensemble();
        let alpha = 20.0f32;
        let remix = Remix::builder().alpha(alpha).build();
        for (img, _) in test.iter() {
            let outs = ens.outputs(img);
            if !outs.iter().all(|o| o.pred == outs[0].pred) {
                let verdict = remix.predict(&mut ens, img);
                for d in &verdict.details {
                    let expected = d.confidence * d.diversity * (alpha * d.sparseness).tanh();
                    assert!((d.weight - expected).abs() < 1e-5);
                }
                return;
            }
        }
        panic!("no disagreeing test input found");
    }

    #[test]
    fn predictions_are_deterministic_per_seed() {
        let (mut ens, test) = small_ensemble();
        let remix = Remix::builder().seed(5).build();
        let img = &test.images[0];
        let a = remix.predict(&mut ens, img).prediction;
        let b = remix.predict(&mut ens, img).prediction;
        assert_eq!(a, b);
    }

    #[test]
    fn disabling_fast_path_always_runs_xai() {
        let (mut ens, test) = small_ensemble();
        let remix = Remix::builder().fast_path(false).build();
        let verdict = remix.predict(&mut ens, &test.images[0]);
        assert!(!verdict.unanimous);
        assert_eq!(verdict.details.len(), 3);
    }

    #[test]
    fn builder_validates_parameters() {
        let r = Remix::builder()
            .technique(XaiTechnique::IntegratedGradients)
            .metric(DiversityMetric::Wasserstein)
            .alpha(5.0)
            .majority_threshold(0.4)
            .build();
        assert_eq!(r.technique(), XaiTechnique::IntegratedGradients);
        assert_eq!(r.metric(), DiversityMetric::Wasserstein);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_nonpositive_alpha() {
        Remix::builder().alpha(0.0);
    }

    /// Bitwise-compares the per-model evidence of two verdicts, matching
    /// details by model name so the ensembles may be permutations of each
    /// other.
    fn assert_details_bitwise_equal(a: &RemixVerdict, b: &RemixVerdict) {
        assert_eq!(a.details.len(), b.details.len());
        for d in &a.details {
            let other = b
                .details
                .iter()
                .find(|o| o.name == d.name)
                .unwrap_or_else(|| panic!("model {} missing from verdict", d.name));
            assert_eq!(d.pred, other.pred, "{}", d.name);
            assert_eq!(
                d.confidence.to_bits(),
                other.confidence.to_bits(),
                "{}",
                d.name
            );
            assert_eq!(
                d.diversity.to_bits(),
                other.diversity.to_bits(),
                "{}",
                d.name
            );
            assert_eq!(
                d.sparseness.to_bits(),
                other.sparseness.to_bits(),
                "{}",
                d.name
            );
            assert_eq!(d.weight.to_bits(), other.weight.to_bits(), "{}", d.name);
        }
    }

    #[test]
    fn verdicts_are_invariant_under_model_permutation() {
        // Regression test for the order-dependent XAI RNG: one shared stream
        // threaded through every model's explain() made each model's noise
        // depend on its position. Streams are now keyed by model name.
        let (mut ens, test) = small_ensemble();
        let remix = Remix::builder().fast_path(false).seed(7).build();
        let img = &test.images[0];
        let base = remix.predict(&mut ens, img);
        ens.models.rotate_left(1);
        let rotated = remix.predict(&mut ens, img);
        assert_eq!(base.prediction, rotated.prediction);
        assert_details_bitwise_equal(&base, &rotated);
    }

    #[test]
    fn full_pinned_scheduler_is_bit_identical_to_unscheduled_predict() {
        // The tentpole invariant: a scheduler pinned to `Full` must be
        // byte-equal to the historical `Remix::predict` on every input —
        // unanimous, decided, and no-majority alike.
        let (mut ens, test) = small_ensemble();
        let unscheduled = Remix::builder().seed(9).build();
        let pinned = Remix::builder()
            .seed(9)
            .scheduler(TriageScheduler::pinned(XaiLevel::Full))
            .build();
        let mut saw_disagreement = false;
        for (img, _) in test.iter().take(10) {
            let base = unscheduled.predict(&mut ens, img);
            let scheduled = pinned.predict(&mut ens, img);
            assert_eq!(base.prediction, scheduled.prediction);
            assert_eq!(base.unanimous, scheduled.unanimous);
            assert_eq!(base.xai_level, scheduled.xai_level);
            assert_details_bitwise_equal(&base, &scheduled);
            if !base.unanimous {
                saw_disagreement = true;
                assert_eq!(base.xai_level, XaiLevel::Full);
            }
        }
        assert!(saw_disagreement, "sweep never exercised the XAI path");
    }

    #[test]
    fn skip_scheduler_returns_the_plain_majority_vote() {
        let (mut ens, test) = small_ensemble();
        let skip = Remix::builder()
            .scheduler(TriageScheduler::pinned(XaiLevel::Skip))
            .build();
        for (img, _) in test.iter().take(10) {
            let outs = ens.outputs(img);
            let verdict = skip.predict(&mut ens, img);
            if verdict.unanimous {
                assert_eq!(verdict.xai_level, XaiLevel::Skip);
                continue;
            }
            let expected = remix_ensemble::majority_with_weights(
                outs.iter().map(|o| (o.pred, 1.0)),
                outs.len() as f32,
            );
            assert_eq!(verdict.prediction, expected);
            assert_eq!(verdict.xai_level, XaiLevel::Skip);
            assert!(verdict.details.is_empty(), "Skip must not run XAI");
            assert_eq!(verdict.timings.xai.as_nanos(), 0);
        }
    }

    #[test]
    fn adaptive_triage_is_deterministic_across_thread_counts() {
        // The triage signals accumulate in ensemble order regardless of how
        // the prediction stage was parallelized, so the assigned level — and
        // the verdict below it — must match for every thread count.
        let (mut ens, test) = small_ensemble();
        let build = |threads: usize| {
            Remix::builder()
                .seed(4)
                .threads(threads)
                .scheduler(TriageScheduler::adaptive())
                .build()
        };
        for (img, _) in test.iter().take(8) {
            let serial = build(1).predict(&mut ens, img);
            for threads in [2, 4] {
                let parallel = build(threads).predict(&mut ens, img);
                assert_eq!(serial.xai_level, parallel.xai_level);
                assert_eq!(serial.prediction, parallel.prediction);
                assert_details_bitwise_equal(&serial, &parallel);
            }
        }
    }

    #[test]
    fn scheduled_levels_scale_the_xai_stage_not_the_verdict_shape() {
        // A pinned Light scheduler still produces full per-model evidence —
        // just from a cheaper sweep.
        let (mut ens, test) = small_ensemble();
        let light = Remix::builder()
            .scheduler(TriageScheduler::pinned(XaiLevel::Light))
            .build();
        for (img, _) in test.iter().take(10) {
            let verdict = light.predict(&mut ens, img);
            if verdict.unanimous {
                continue;
            }
            assert_eq!(verdict.xai_level, XaiLevel::Light);
            assert_eq!(verdict.details.len(), 3);
            return;
        }
        panic!("no disagreeing test input found");
    }

    #[test]
    fn parallel_predict_is_bit_identical_to_sequential() {
        let (mut ens, test) = small_ensemble();
        let img = &test.images[0];
        let sequential = Remix::builder()
            .fast_path(false)
            .seed(3)
            .threads(1)
            .build()
            .predict(&mut ens, img);
        assert_eq!(sequential.timings.threads, 1);
        for threads in [2, 4] {
            let parallel = Remix::builder()
                .fast_path(false)
                .seed(3)
                .threads(threads)
                .build()
                .predict(&mut ens, img);
            assert_eq!(parallel.timings.threads, threads);
            assert_eq!(sequential.prediction, parallel.prediction);
            assert_details_bitwise_equal(&sequential, &parallel);
        }
    }

    /// Three untrained, frozen zoo members named `a`, `b` and `c`, at one
    /// input size.
    fn named_members(channels: usize, size: usize) -> TrainedEnsemble {
        let spec = remix_nn::InputSpec {
            channels,
            size,
            num_classes: 5,
        };
        let mut rng = StdRng::seed_from_u64(size as u64);
        let models = [
            ("a", Arch::ConvNet),
            ("b", Arch::MobileNet),
            ("c", Arch::ResNet18),
        ]
        .into_iter()
        .map(|(name, arch)| {
            let net = remix_nn::zoo::build(arch, spec, &mut rng);
            remix_nn::Model::named(net, spec, name)
        })
        .collect();
        let mut ensemble = TrainedEnsemble::new(models);
        ensemble.freeze_for_inference();
        ensemble
    }

    fn inputs(channels: usize, size: usize, n: usize) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(31);
        (0..n)
            .map(|_| Tensor::rand_uniform(&[channels, size, size], 0.0, 1.0, &mut rng))
            .collect()
    }

    /// Every bit of a verdict's evidence, feature matrices included.
    fn evidence_bits(verdict: &RemixVerdict) -> Vec<u32> {
        verdict
            .details
            .iter()
            .flat_map(|d| {
                let matrix = d.feature_matrix.as_ref().expect("kept matrices");
                [d.weight, d.diversity, d.sparseness]
                    .into_iter()
                    .chain(matrix.data().iter().copied())
                    .map(f32::to_bits)
            })
            .collect()
    }

    fn xai_everywhere(seed: u64) -> RemixBuilder {
        Remix::builder()
            .seed(seed)
            .fast_path(false)
            .keep_feature_matrices(true)
    }

    #[test]
    fn memoised_noise_gives_a_fresh_remix_bits_at_every_rung_in_any_order() {
        let mut ensemble = named_members(3, 16);
        let images = inputs(3, 16, 2);
        let shared = xai_everywhere(5).build();
        for level in [XaiLevel::Light, XaiLevel::Full, XaiLevel::Standard] {
            let pinned = Some(TriageScheduler::pinned(level));
            // A clone shares the memo, which the earlier rungs have grown.
            let reused = Remix {
                scheduler: pinned,
                ..shared.clone()
            };
            let fresh = xai_everywhere(5)
                .scheduler(TriageScheduler::pinned(level))
                .build();
            for image in &images {
                let a = reused.predict(&mut ensemble, image);
                let b = fresh.predict(&mut ensemble, image);
                assert_eq!(a.xai_level, level);
                assert_eq!(evidence_bits(&a), evidence_bits(&b), "{level}");
            }
        }
    }

    #[test]
    fn same_named_members_at_two_sizes_match_the_rng_path() {
        let mut small = named_members(1, 8);
        let mut large = named_members(3, 16);
        let remix = xai_everywhere(8).build();
        let explainer = *remix.explainer();
        // Small, then large (the tables grow), then small again (a prefix).
        for (large_input, n) in [(false, 2), (true, 2), (false, 3)] {
            let (ensemble, images) = if large_input {
                (&mut large, inputs(3, 16, n))
            } else {
                (&mut small, inputs(1, 8, n))
            };
            for image in &images {
                let verdict = remix.predict(ensemble, image);
                for (model, detail) in ensemble.models.iter_mut().zip(&verdict.details) {
                    let mut rng = remix.xai_rng(&model.name);
                    let expected = explainer.explain(model, image, detail.pred, &mut rng);
                    assert_eq!(
                        detail.feature_matrix.as_ref().map(Tensor::data),
                        Some(expected.data()),
                        "{} at {:?}",
                        model.name,
                        image.shape()
                    );
                }
            }
        }
        // One table per member name, as long as the largest input's Full
        // budget asks.
        let full = explainer.noise_draws(3 * 16 * 16).expect("SmoothGrad");
        let lengths = remix.streams.lengths();
        assert_eq!(lengths.len(), 3);
        assert!(lengths.values().all(|&len| len == full), "{lengths:?}");
    }

    #[test]
    fn predict_batch_is_bit_identical_across_threads_and_remix_clones() {
        let mut ensemble = named_members(3, 16);
        let images = inputs(3, 16, 4);
        let run = |remix: &Remix, ensemble: &mut TrainedEnsemble| {
            let mut bits = vec![Vec::new(); images.len()];
            remix.predict_batch(ensemble, &images, &BatchPolicy::default(), |k, v| {
                bits[k] = evidence_bits(&v)
            });
            bits
        };
        let serial = xai_everywhere(2).threads(1).build();
        let expected = run(&serial, &mut ensemble);
        for threads in [1, 3] {
            let clone = Remix {
                threads,
                ..serial.clone()
            };
            let fresh = xai_everywhere(2).threads(threads).build();
            assert_eq!(
                run(&clone, &mut ensemble),
                expected,
                "clone, {threads} threads"
            );
            assert_eq!(
                run(&fresh, &mut ensemble),
                expected,
                "fresh, {threads} threads"
            );
        }
        assert_eq!(serial.streams.lengths().len(), ensemble.len());
    }
}
