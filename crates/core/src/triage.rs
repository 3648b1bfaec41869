//! Triage: decide how much XAI a disagreement deserves *before* paying for
//! it.
//!
//! PR 1–2 profiling puts the XAI stage at ~95 % of disagreement-path
//! latency, yet most disagreements are lopsided — two of three models agree
//! and the ensemble's mean distribution is peaked. The scheduler reads the
//! signals that are already free after the prediction stage (vote margin and
//! the normalized Shannon entropy of the mean class distribution, the same
//! Eq. 1 quantity `remix-diversity` uses for output-space diversity) and
//! converts them into a *predicted-error bound* via Fano's inequality, in
//! the spirit of the ensemble error bounds of *Rethinking Fano's Inequality
//! in Ensemble Learning*: a conditional entropy of `H` admits no classifier
//! with error below the `e` solving `H(e) + e·ln(S−1) = H`. That bound is
//! then mapped through fixed thresholds onto the [`XaiLevel`] ladder.
//!
//! Everything here is a pure function of the model outputs: fixed-order f32
//! accumulation, fixed-iteration bisection, no wall-clock — so the level a
//! request receives is bit-identical across thread counts, shard counts, and
//! batch compositions, and verdicts stay reproducible.

use remix_ensemble::ModelOutput;
use remix_xai::XaiLevel;

/// The per-request evidence the scheduler derived from the prediction stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriageSignals {
    /// Vote margin: (top vote count − runner-up count) / models, in `[0, 1]`.
    /// `1` means unanimity, `0` a perfect split.
    pub margin: f32,
    /// Normalized Shannon entropy of the ensemble's mean class distribution,
    /// in `[0, 1]` (paper Eq. 1 applied to the pooled posterior).
    pub entropy: f32,
    /// Fano-style lower bound on the error probability consistent with the
    /// observed disagreement, in `[0, (S−1)/S]`.
    pub predicted_error: f32,
}

/// Predicted-error cut points mapping [`TriageSignals::predicted_error`]
/// onto the budget ladder: `pe ≤ skip_max` ⇒ Skip, `≤ light_max` ⇒ Light,
/// `≤ standard_max` ⇒ Standard, else Full.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriageThresholds {
    /// Highest predicted error that still skips XAI entirely.
    pub skip_max: f32,
    /// Highest predicted error served with the quarter budget.
    pub light_max: f32,
    /// Highest predicted error served with the half budget.
    pub standard_max: f32,
}

impl Default for TriageThresholds {
    fn default() -> Self {
        // Calibrated on the mislabelled-ensemble workload
        // (`bench_xai_sched`). The Fano bound of the *most* confident
        // 2-of-3 split with near-zero softmax entropy is ≈ 0.31 at six
        // classes, so `skip_max = 0.30` skips only votes the bound deems
        // safer than any real disagreement there; typical lopsided splits
        // land in (0.31, 0.60] ⇒ Light. Standard is reserved for deep
        // ambiguity (> 0.60) and Full for near-uniform chaos (> 0.75,
        // approaching the bound's (S−1)/S cap) — the Pareto sweep shows
        // those are rare enough (≈ 1 % of the stream) to keep p99 on the
        // cheap path.
        Self {
            skip_max: 0.30,
            light_max: 0.60,
            standard_max: 0.75,
        }
    }
}

impl TriageThresholds {
    /// The ladder level for one predicted-error bound.
    pub fn level_for(&self, predicted_error: f32) -> XaiLevel {
        if predicted_error <= self.skip_max {
            XaiLevel::Skip
        } else if predicted_error <= self.light_max {
            XaiLevel::Light
        } else if predicted_error <= self.standard_max {
            XaiLevel::Standard
        } else {
            XaiLevel::Full
        }
    }
}

/// How the scheduler chooses levels.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Map the Fano bound through [`TriageThresholds`].
    Adaptive(TriageThresholds),
    /// Every disagreement gets the same level. `Pinned(Full)` is the
    /// bit-identity anchor: it must reproduce the unscheduled pipeline
    /// byte for byte.
    Pinned(XaiLevel),
}

/// Maps each disagreement to an [`XaiLevel`] from its prediction-stage
/// signals. Attach to a pipeline with
/// [`RemixBuilder::scheduler`](crate::RemixBuilder::scheduler).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriageScheduler {
    mode: Mode,
}

impl TriageScheduler {
    /// Adaptive scheduling with the default thresholds.
    pub fn adaptive() -> Self {
        Self {
            mode: Mode::Adaptive(TriageThresholds::default()),
        }
    }

    /// Adaptive scheduling with explicit thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ skip_max ≤ light_max ≤ standard_max`.
    pub fn with_thresholds(thresholds: TriageThresholds) -> Self {
        assert!(
            0.0 <= thresholds.skip_max
                && thresholds.skip_max <= thresholds.light_max
                && thresholds.light_max <= thresholds.standard_max,
            "thresholds must be ordered"
        );
        Self {
            mode: Mode::Adaptive(thresholds),
        }
    }

    /// Pins every disagreement to one level (`Pinned(Full)` reproduces the
    /// unscheduled pipeline bit-identically; `Pinned(Skip)` is the
    /// always-majority-vote baseline).
    pub fn pinned(level: XaiLevel) -> Self {
        Self {
            mode: Mode::Pinned(level),
        }
    }

    /// The signals for one set of model outputs, independent of mode.
    ///
    /// Fixed-order accumulation over `outputs` (ensemble order), so the
    /// result is bit-identical however the caller parallelized the
    /// prediction stage.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is empty.
    pub fn signals(outputs: &[ModelOutput]) -> TriageSignals {
        assert!(!outputs.is_empty(), "triage needs at least one output");
        let n = outputs.len();
        let num_classes = outputs[0].probs.len();
        // Pooled posterior: mean of the per-model softmax vectors, summed in
        // ensemble order.
        let mut mean = vec![0.0f32; num_classes];
        for out in outputs {
            for (m, &p) in mean.iter_mut().zip(out.probs.data()) {
                *m += p;
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }
        let entropy = remix_diversity::shannon_entropy(&mean);
        // Vote margin from the hard predictions.
        let mut votes = vec![0usize; num_classes];
        for out in outputs {
            votes[out.pred.min(num_classes - 1)] += 1;
        }
        let mut top = 0usize;
        let mut runner_up = 0usize;
        for &v in &votes {
            if v > top {
                runner_up = top;
                top = v;
            } else if v > runner_up {
                runner_up = v;
            }
        }
        let margin = (top - runner_up) as f32 / n as f32;
        // Risk: equal parts vote disagreement and posterior spread, scaled
        // to a conditional entropy in nats for the Fano inversion.
        let risk = 0.5 * (1.0 - margin) + 0.5 * entropy;
        let predicted_error = fano_error_bound(risk, num_classes);
        TriageSignals {
            margin,
            entropy,
            predicted_error,
        }
    }

    /// The budget level and signals for one set of model outputs.
    pub fn assess(&self, outputs: &[ModelOutput]) -> (XaiLevel, TriageSignals) {
        let signals = Self::signals(outputs);
        let level = match self.mode {
            Mode::Adaptive(thresholds) => thresholds.level_for(signals.predicted_error),
            Mode::Pinned(level) => level,
        };
        (level, signals)
    }
}

/// Inverts Fano's inequality: the smallest error probability `e` consistent
/// with a normalized conditional entropy of `risk` over `num_classes`
/// classes, i.e. the solution of `H(e) + e·ln(S−1) = risk·ln S` on
/// `[0, (S−1)/S]`, where `H` is the binary entropy in nats.
///
/// The left side is strictly increasing on that interval (it peaks at
/// `e = (S−1)/S`, where it equals `ln S`), so a fixed 24-iteration bisection
/// converges well below f32 resolution and — being branch-fixed — returns
/// bit-identical results everywhere.
pub fn fano_error_bound(risk: f32, num_classes: usize) -> f32 {
    if num_classes < 2 {
        return 0.0;
    }
    let risk = risk.clamp(0.0, 1.0);
    let s = num_classes as f32;
    let target = risk * s.ln();
    if target <= 0.0 {
        return 0.0;
    }
    let penalty = (s - 1.0).ln();
    let binary_entropy = |e: f32| -> f32 {
        let mut h = 0.0f32;
        if e > 0.0 {
            h -= e * e.ln();
        }
        let q = 1.0 - e;
        if q > 0.0 {
            h -= q * q.ln();
        }
        h
    };
    let mut lo = 0.0f32;
    let mut hi = (s - 1.0) / s;
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        if binary_entropy(mid) + mid * penalty < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Downgrades the most-confident requests first until the batch fits a
/// sweep-unit budget.
///
/// `levels[i]` is request `i`'s assigned level and is rewritten in place;
/// `predicted_errors[i]` is its Fano bound; `unit_cost(level)` prices one
/// request at `level` (see [`remix_xai::XaiBudget::sweep_units`]). One step
/// at a time, the non-`Skip` request with the *lowest* predicted error — the
/// one XAI is least likely to change — drops a rung (ties break toward the
/// lower index), until total cost is within `budget_units` or everything is
/// `Skip`. Returns the number of downgrade steps applied.
///
/// Purely deterministic in its inputs: [`Remix::predict_batch`] feeds it a
/// batch's triaged disagreements in input order, so the same batch under the
/// same allowance always downgrades the same inputs, in contrast to the
/// wall-clock deadline fallback.
///
/// [`Remix::predict_batch`]: crate::Remix::predict_batch
pub fn plan_downgrades(
    levels: &mut [XaiLevel],
    predicted_errors: &[f32],
    unit_cost: impl Fn(XaiLevel) -> u64,
    budget_units: u64,
) -> usize {
    assert_eq!(levels.len(), predicted_errors.len(), "one bound per level");
    let mut total: u64 = levels.iter().map(|&l| unit_cost(l)).sum();
    let mut steps = 0usize;
    while total > budget_units {
        let victim = levels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l != XaiLevel::Skip)
            .min_by(|(i, _), (j, _)| {
                predicted_errors[*i]
                    .total_cmp(&predicted_errors[*j])
                    .then(i.cmp(j))
            })
            .map(|(i, _)| i);
        let Some(i) = victim else { break };
        let lower = levels[i].downgrade().expect("non-Skip always downgrades");
        total -= unit_cost(levels[i]) - unit_cost(lower);
        levels[i] = lower;
        steps += 1;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_tensor::Tensor;

    fn output(probs: &[f32]) -> ModelOutput {
        ModelOutput::from_probs(Tensor::from_slice(probs))
    }

    #[test]
    fn fano_bound_endpoints_and_monotonicity() {
        // Zero conditional entropy admits zero error.
        assert_eq!(fano_error_bound(0.0, 4), 0.0);
        // Full entropy forces the maximal error (S−1)/S. The curve is flat
        // at its peak, so f32 bisection resolves the endpoint only to ~1e-3.
        assert!((fano_error_bound(1.0, 4) - 0.75).abs() < 1e-3);
        assert!((fano_error_bound(1.0, 2) - 0.5).abs() < 1e-3);
        // Monotone in the risk.
        let mut prev = -1.0f32;
        for i in 0..=20 {
            let e = fano_error_bound(i as f32 / 20.0, 4);
            assert!(e >= prev, "not monotone at {i}");
            prev = e;
        }
        // Degenerate class counts are total, not panicking.
        assert_eq!(fano_error_bound(0.7, 1), 0.0);
        assert_eq!(fano_error_bound(0.7, 0), 0.0);
    }

    #[test]
    fn fano_bound_is_stable_at_the_risk_extremes() {
        // Vanishingly small but non-zero risk: the bound must stay finite,
        // non-negative, and vanish smoothly rather than jump.
        for &tiny in &[f32::MIN_POSITIVE, 1e-12, 1e-7, 1e-4] {
            let e = fano_error_bound(tiny, 4);
            assert!(e.is_finite() && e >= 0.0, "risk {tiny} gave {e}");
            assert!(
                e < 0.05,
                "risk {tiny} should admit near-zero error, got {e}"
            );
        }
        // Risk approaching 1 from below converges to the (S−1)/S cap without
        // overshooting it.
        for &near in &[1.0 - 1e-6, 1.0 - 1e-4, 0.9999] {
            let e = fano_error_bound(near, 4);
            assert!(e <= 0.75 + 1e-6, "risk {near} overshot the cap: {e}");
            assert!(
                (e - 0.75).abs() < 1e-2,
                "risk {near} should be near the cap, got {e}"
            );
        }
        // Out-of-range risks clamp instead of extrapolating.
        assert_eq!(fano_error_bound(-0.3, 4), fano_error_bound(0.0, 4));
        let clamped_high = fano_error_bound(7.5, 4);
        assert!((clamped_high - fano_error_bound(1.0, 4)).abs() < 1e-6);
        assert!(
            fano_error_bound(f32::NAN, 4) >= 0.0,
            "NaN risk must not poison the bound"
        );
    }

    #[test]
    fn accepts_custom_ordered_thresholds() {
        let thresholds = TriageThresholds {
            skip_max: 0.1,
            light_max: 0.2,
            standard_max: 0.9,
        };
        // Construction must accept any ordered combination, not just the
        // defaults...
        let _scheduler = TriageScheduler::with_thresholds(thresholds);
        // ...and the custom boundaries drive the level mapping.
        assert_eq!(thresholds.level_for(0.05), XaiLevel::Skip);
        assert_eq!(thresholds.level_for(0.15), XaiLevel::Light);
        assert_eq!(thresholds.level_for(0.5), XaiLevel::Standard);
        assert_eq!(thresholds.level_for(0.95), XaiLevel::Full);
    }

    #[test]
    #[should_panic(expected = "thresholds must be ordered")]
    fn rejects_skip_above_light() {
        TriageScheduler::with_thresholds(TriageThresholds {
            skip_max: 0.4,
            light_max: 0.2,
            standard_max: 0.8,
        });
    }

    #[test]
    #[should_panic(expected = "thresholds must be ordered")]
    fn rejects_light_above_standard() {
        TriageScheduler::with_thresholds(TriageThresholds {
            skip_max: 0.1,
            light_max: 0.9,
            standard_max: 0.8,
        });
    }

    #[test]
    #[should_panic(expected = "thresholds must be ordered")]
    fn rejects_negative_skip_threshold() {
        TriageScheduler::with_thresholds(TriageThresholds {
            skip_max: -0.1,
            light_max: 0.2,
            standard_max: 0.8,
        });
    }

    #[test]
    fn signals_separate_confident_from_ambiguous_disagreements() {
        // 2-of-3 with peaked posteriors: high margin, low entropy.
        let confident = [
            output(&[0.9, 0.05, 0.03, 0.02]),
            output(&[0.85, 0.1, 0.03, 0.02]),
            output(&[0.1, 0.8, 0.05, 0.05]),
        ];
        // Perfect split with flat posteriors: zero margin, high entropy.
        let ambiguous = [
            output(&[0.4, 0.3, 0.2, 0.1]),
            output(&[0.2, 0.35, 0.3, 0.15]),
            output(&[0.25, 0.2, 0.25, 0.3]),
        ];
        let c = TriageScheduler::signals(&confident);
        let a = TriageScheduler::signals(&ambiguous);
        assert!((c.margin - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.margin, 0.0);
        assert!(c.entropy < a.entropy);
        assert!(
            c.predicted_error < a.predicted_error,
            "confident {} vs ambiguous {}",
            c.predicted_error,
            a.predicted_error
        );
        let adaptive = TriageScheduler::adaptive();
        let (lc, _) = adaptive.assess(&confident);
        let (la, _) = adaptive.assess(&ambiguous);
        assert!(lc < la, "confident {lc} should rank below ambiguous {la}");
    }

    #[test]
    fn pinned_mode_ignores_signals() {
        let outputs = [
            output(&[0.4, 0.3, 0.2, 0.1]),
            output(&[0.2, 0.35, 0.3, 0.15]),
        ];
        for level in XaiLevel::LADDER {
            let (got, signals) = TriageScheduler::pinned(level).assess(&outputs);
            assert_eq!(got, level);
            // Signals are still reported for observability.
            assert!(signals.predicted_error > 0.0);
        }
    }

    #[test]
    fn thresholds_partition_the_error_axis() {
        let t = TriageThresholds::default();
        assert_eq!(t.level_for(0.0), XaiLevel::Skip);
        assert_eq!(t.level_for(t.skip_max), XaiLevel::Skip);
        assert_eq!(t.level_for(t.light_max), XaiLevel::Light);
        assert_eq!(t.level_for(t.standard_max), XaiLevel::Standard);
        assert_eq!(t.level_for(1.0), XaiLevel::Full);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn rejects_unordered_thresholds() {
        TriageScheduler::with_thresholds(TriageThresholds {
            skip_max: 0.5,
            light_max: 0.3,
            standard_max: 0.6,
        });
    }

    #[test]
    fn downgrades_take_the_most_confident_requests_first() {
        let cost = |l: XaiLevel| match l {
            XaiLevel::Skip => 0,
            XaiLevel::Light => 1,
            XaiLevel::Standard => 2,
            XaiLevel::Full => 4,
        };
        let mut levels = [XaiLevel::Full, XaiLevel::Full, XaiLevel::Standard];
        let errors = [0.7, 0.2, 0.5];
        // 10 units assigned, 7 allowed: request 1 (lowest bound) pays.
        let steps = plan_downgrades(&mut levels, &errors, cost, 7);
        assert_eq!(steps, 2);
        assert_eq!(
            levels,
            [XaiLevel::Full, XaiLevel::Light, XaiLevel::Standard]
        );
        // Zero budget degrades everything to Skip, then stops.
        let steps = plan_downgrades(&mut levels, &errors, cost, 0);
        assert_eq!(levels, [XaiLevel::Skip; 3]);
        assert!(steps > 0);
        assert_eq!(plan_downgrades(&mut levels, &errors, cost, 0), 0);
    }

    #[test]
    fn generous_budget_downgrades_nothing() {
        let mut levels = [XaiLevel::Full, XaiLevel::Light];
        let errors = [0.6, 0.3];
        let steps = plan_downgrades(&mut levels, &errors, |_| 1, 10);
        assert_eq!(steps, 0);
        assert_eq!(levels, [XaiLevel::Full, XaiLevel::Light]);
    }
}
