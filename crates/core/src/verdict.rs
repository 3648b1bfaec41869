use crate::triage::TriageSignals;
use remix_ensemble::Prediction;
use remix_tensor::Tensor;
use remix_xai::XaiLevel;
use std::time::Duration;

/// Per-model evidence ReMIX used for one input.
#[derive(Debug, Clone)]
pub struct ModelDetail {
    /// Model display name.
    pub name: String,
    /// The model's predicted class.
    pub pred: usize,
    /// Prediction confidence `cᵢ`.
    pub confidence: f32,
    /// Mean pairwise feature-space diversity `δᵢ`.
    pub diversity: f32,
    /// Feature sparseness `σᵢ`.
    pub sparseness: f32,
    /// Final voting weight `ωᵢ = cᵢ·δᵢ·tanh(α·σᵢ)`.
    pub weight: f32,
    /// The model's XAI feature matrix (kept only when the builder enables
    /// [`keep_feature_matrices`](crate::RemixBuilder::keep_feature_matrices)).
    pub feature_matrix: Option<Tensor>,
}

/// Wall-clock breakdown of one ReMIX inference (paper RQ2 reports the XAI
/// stage dominating at ~67 %).
///
/// Since the `remix-trace` integration this struct is a compatibility view:
/// each field is the duration measured by the like-named stage span inside
/// [`Remix::predict_batch`](crate::Remix::predict_batch) (`prediction`,
/// `xai`, `diversity`, `weighting`; under the `predict` root when called
/// through [`Remix::predict`](crate::Remix::predict)). With tracing enabled
/// the span tree records bit-identical durations, so the two reports cannot
/// drift apart; with tracing disabled the spans still measure (the struct
/// stays populated) but nothing is recorded.
///
/// The prediction and XAI stages run once for a whole batch, so in a batch
/// of `n` inputs `prediction` is an equal `1/n` share of the batch's
/// prediction stage, and `xai` an equal share of the sweep of the rung group
/// the verdict resolved in. For a batch of one both are the stage itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Running the constituent models (this input's share of the batch).
    pub prediction: Duration,
    /// Feature-space extraction (XAI; this input's share of its rung
    /// group's sweep), zero when no XAI ran.
    pub xai: Duration,
    /// Pairwise feature-space diversity, zero on the fast path.
    pub diversity: Duration,
    /// Sparseness + weight generation + voting.
    pub weighting: Duration,
    /// Worker threads the prediction and XAI stages were allowed to use
    /// (`1` = sequential; the fast path still reports the configured count).
    pub threads: usize,
}

impl StageTimings {
    /// Total inference time.
    pub fn total(&self) -> Duration {
        self.prediction + self.xai + self.diversity + self.weighting
    }
}

/// The full outcome of one ReMIX inference.
#[derive(Debug, Clone)]
pub struct RemixVerdict {
    /// The ensemble decision (a plurality below the majority threshold is
    /// [`Prediction::NoMajority`]).
    pub prediction: Prediction,
    /// Whether the unanimous fast path was taken (no XAI run).
    pub unanimous: bool,
    /// Whether the input's [deadline](crate::BatchPolicy::deadlines) had
    /// passed when triage reached it: the prediction is the unweighted
    /// majority vote, with no details and no signals.
    pub degraded: bool,
    /// Whether the batch's [allowance](crate::BatchPolicy::allowance) moved
    /// this input below the level the scheduler assigned it. The verdict is
    /// exactly what the lower level yields, but it reflects the batch, not
    /// the input alone.
    pub downgraded: bool,
    /// The prediction-stage triage signals of a disagreement (`None` on the
    /// fast path and for degraded verdicts, which never reach triage).
    pub signals: Option<TriageSignals>,
    /// Per-model evidence (empty when no XAI ran).
    pub details: Vec<ModelDetail>,
    /// The XAI budget level this verdict was produced under.
    ///
    /// [`XaiLevel::Full`] is the unscheduled pipeline; [`XaiLevel::Skip`]
    /// means no XAI ran at all — the unanimous fast path, the triage
    /// scheduler's majority-vote admission, an allowance downgrade to the
    /// bottom rung, and the deadline fallback all land here.
    pub xai_level: XaiLevel,
    /// Stage timing breakdown.
    pub timings: StageTimings,
}

impl RemixVerdict {
    /// A verdict decided without XAI: `prediction` with no per-model
    /// evidence, at [`XaiLevel::Skip`], with every flag false, no signals
    /// and zero timings. The pipeline builds its fast-path, Skip and
    /// degraded verdicts from this by setting the fields that differ.
    pub fn unweighted(prediction: Prediction) -> RemixVerdict {
        RemixVerdict {
            prediction,
            unanimous: false,
            degraded: false,
            downgraded: false,
            signals: None,
            details: Vec::new(),
            xai_level: XaiLevel::Skip,
            timings: StageTimings::default(),
        }
    }

    /// Concentration of the ω voting-weight distribution in `[0, 1]`.
    ///
    /// Computed as `1 − H(p) / ln n` where `p` is the ω vector normalized to
    /// a distribution over the `n` voting members: `0.0` means the weights
    /// are spread evenly (every member contributes equally), values near
    /// `1.0` mean one member dominates the vote. Fast-path verdicts (no
    /// details) and all-zero weight vectors return `0.0`.
    ///
    /// This is the "ω weight distribution" feature the streaming drift
    /// detector folds per verdict: a shift in live-data quality shows up as
    /// the weighting stage systematically concentrating or flattening ω
    /// relative to the reference window.
    pub fn weight_spread(&self) -> f32 {
        if self.details.len() < 2 {
            return 0.0;
        }
        let total: f32 = self.details.iter().map(|d| d.weight.max(0.0)).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let mut entropy = 0.0f32;
        for detail in &self.details {
            let p = detail.weight.max(0.0) / total;
            if p > 0.0 {
                entropy -= p * p.ln();
            }
        }
        let max_entropy = (self.details.len() as f32).ln();
        (1.0 - entropy / max_entropy).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict_with_weights(weights: &[f32]) -> RemixVerdict {
        RemixVerdict {
            details: weights
                .iter()
                .enumerate()
                .map(|(i, &w)| ModelDetail {
                    name: format!("m{i}"),
                    pred: 0,
                    confidence: 0.9,
                    diversity: 0.5,
                    sparseness: 0.5,
                    weight: w,
                    feature_matrix: None,
                })
                .collect(),
            xai_level: XaiLevel::Full,
            ..RemixVerdict::unweighted(Prediction::Decided(0))
        }
    }

    #[test]
    fn weight_spread_measures_concentration() {
        // Even weights: no concentration.
        assert_eq!(verdict_with_weights(&[0.5, 0.5, 0.5]).weight_spread(), 0.0);
        // One dominant member: near-total concentration.
        let dominated = verdict_with_weights(&[1.0, 1e-6, 1e-6]).weight_spread();
        assert!(dominated > 0.9, "dominated spread {dominated}");
        // Monotone in concentration.
        let mild = verdict_with_weights(&[0.6, 0.3, 0.1]).weight_spread();
        assert!(mild > 0.0 && mild < dominated);
        // Degenerate inputs are defined as 0.
        assert_eq!(verdict_with_weights(&[]).weight_spread(), 0.0);
        assert_eq!(verdict_with_weights(&[1.0]).weight_spread(), 0.0);
        assert_eq!(verdict_with_weights(&[0.0, 0.0]).weight_spread(), 0.0);
        assert_eq!(verdict_with_weights(&[-1.0, -2.0]).weight_spread(), 0.0);
    }

    #[test]
    fn timings_total_sums_stages() {
        let t = StageTimings {
            prediction: Duration::from_millis(10),
            xai: Duration::from_millis(60),
            diversity: Duration::from_millis(8),
            weighting: Duration::from_millis(5),
            threads: 4,
        };
        assert_eq!(t.total(), Duration::from_millis(83));
    }
}
