use crate::{cfe, intgrad, lime, shap, smoothgrad};
use rand::Rng;
use remix_nn::Model;
use remix_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The five XAI techniques shortlisted by the paper (§II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum XaiTechnique {
    /// Smooth Gradients — gradients averaged over Gaussian-noised inputs.
    SmoothGrad,
    /// Integrated Gradients — gradients accumulated along a baseline path.
    IntegratedGradients,
    /// SHAP — permutation-sampling Shapley values over patch segments.
    Shap,
    /// LIME — ridge-regression surrogate over random segment masks.
    Lime,
    /// Counterfactual Explanations — minimal label-flipping perturbation.
    Counterfactual,
    /// NoiseGrad — gradients under model-weight noise (Discussion §runtime).
    NoiseGrad,
    /// FusionGrad — NoiseGrad + SmoothGrad combined (Discussion §runtime).
    FusionGrad,
}

impl XaiTechnique {
    /// The paper's five shortlisted techniques in Fig. 9 order.
    pub const ALL: [XaiTechnique; 5] = [
        XaiTechnique::Counterfactual,
        XaiTechnique::IntegratedGradients,
        XaiTechnique::Lime,
        XaiTechnique::SmoothGrad,
        XaiTechnique::Shap,
    ];

    /// The Discussion-section optimized variants (not part of Fig. 9).
    pub const OPTIMIZED: [XaiTechnique; 2] = [XaiTechnique::NoiseGrad, XaiTechnique::FusionGrad];

    /// Abbreviation used in the paper's figures.
    pub fn abbrev(&self) -> &'static str {
        match self {
            XaiTechnique::SmoothGrad => "SG",
            XaiTechnique::IntegratedGradients => "IG",
            XaiTechnique::Shap => "SHAP",
            XaiTechnique::Lime => "LIME",
            XaiTechnique::Counterfactual => "CFE",
            XaiTechnique::NoiseGrad => "NG",
            XaiTechnique::FusionGrad => "FG",
        }
    }

    /// Whether the technique requires a differentiable model (paper's
    /// *model-dependent* class).
    pub fn is_model_dependent(&self) -> bool {
        matches!(
            self,
            XaiTechnique::SmoothGrad
                | XaiTechnique::IntegratedGradients
                | XaiTechnique::NoiseGrad
                | XaiTechnique::FusionGrad
        )
    }
}

impl fmt::Display for XaiTechnique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// One rung of the fixed XAI budget ladder.
///
/// The triage scheduler (`remix-core`) maps each disagreement to a level;
/// [`XaiBudget::scale`] derives the level's per-technique counts from the
/// `Full` budget with fixed integer arithmetic, so the same input always
/// receives the same perturbation stream — no wall-clock enters the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum XaiLevel {
    /// No XAI at all: the verdict is the deterministic unweighted majority
    /// vote over the constituent predictions.
    Skip,
    /// A quarter of the full perturbation counts (rounded up, at least one).
    Light,
    /// Half of the full perturbation counts (rounded up, at least one).
    Standard,
    /// The full budget — bit-identical to the unscheduled pipeline.
    Full,
}

impl XaiLevel {
    /// The ladder from cheapest to most expensive.
    pub const LADDER: [XaiLevel; 4] = [
        XaiLevel::Skip,
        XaiLevel::Light,
        XaiLevel::Standard,
        XaiLevel::Full,
    ];

    /// Wire/label name (`"skip"`, `"light"`, `"standard"`, `"full"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            XaiLevel::Skip => "skip",
            XaiLevel::Light => "light",
            XaiLevel::Standard => "standard",
            XaiLevel::Full => "full",
        }
    }

    /// Parses a wire/label name back into a level.
    pub fn parse(name: &str) -> Option<XaiLevel> {
        XaiLevel::LADDER.into_iter().find(|l| l.as_str() == name)
    }

    /// The next cheaper rung (`Skip` has none).
    pub fn downgrade(&self) -> Option<XaiLevel> {
        match self {
            XaiLevel::Skip => None,
            XaiLevel::Light => Some(XaiLevel::Skip),
            XaiLevel::Standard => Some(XaiLevel::Light),
            XaiLevel::Full => Some(XaiLevel::Standard),
        }
    }

    /// Numerator of the fixed count fraction this level applies (over 4).
    fn quarters(&self) -> usize {
        match self {
            XaiLevel::Skip => 0,
            XaiLevel::Light => 1,
            XaiLevel::Standard => 2,
            XaiLevel::Full => 4,
        }
    }
}

impl fmt::Display for XaiLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Execution budget for the batched inference engine: the per-technique
/// perturbation/path/coalition counts plus the batched sweep width.
///
/// The counts are what the budget ladder scales ([`XaiBudget::scale`]);
/// `batch_size` is a pure execution-strategy knob, and every technique's
/// result is bit-identical for every batch size:
/// - SmoothGrad, Integrated Gradients, SHAP and LIME materialize their
///   perturbed inputs (noise draws, path points, coalition masks) and
///   evaluate them `batch_size` at a time through the model's batched
///   forward/backward sweeps;
/// - CFE's steps are sequential, so only each step's gradient pair shares
///   one two-lane pass, when `batch_size` is at least 2;
/// - NoiseGrad and FusionGrad evaluate a differently-noised model per
///   sample, one input gradient at a time, and ignore `batch_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct XaiBudget {
    /// Number of perturbed inputs evaluated per batched model sweep.
    /// `1` reproduces the per-sample execution path exactly; `0` is treated
    /// as `1`. Not scaled by the ladder.
    pub batch_size: usize,
    /// SmoothGrad / NoiseGrad / FusionGrad: number of noisy samples.
    pub sg_samples: usize,
    /// Integrated Gradients: number of interpolation path points.
    pub ig_steps: usize,
    /// SHAP: number of sampled coalition permutations.
    pub shap_permutations: usize,
    /// LIME: number of random coalition samples.
    pub lime_samples: usize,
    /// CFE: maximum gradient-pair perturbation steps before giving up.
    pub cfe_max_steps: usize,
}

impl Default for XaiBudget {
    fn default() -> Self {
        Self {
            batch_size: 32,
            sg_samples: 8,
            ig_steps: 12,
            shap_permutations: 4,
            lime_samples: 40,
            cfe_max_steps: 40,
        }
    }
}

impl XaiBudget {
    /// Batch size clamped to at least one.
    pub fn effective_batch_size(&self) -> usize {
        self.batch_size.max(1)
    }

    /// Derives the budget for one ladder level with fixed integer
    /// arithmetic: `Full` returns `self` unchanged (the bit-identity
    /// anchor), `Standard`/`Light` keep half/a quarter of every count
    /// (rounded up, at least one), and `Skip` zeroes them — the pipeline
    /// never invokes an explainer at `Skip`, so the zeros only matter to the
    /// cost model. `batch_size` is never scaled.
    pub fn scale(&self, level: XaiLevel) -> XaiBudget {
        if level == XaiLevel::Full {
            return *self;
        }
        let q = level.quarters();
        let part = |count: usize| {
            if q == 0 {
                0
            } else {
                (count * q).div_ceil(4).max(1)
            }
        };
        XaiBudget {
            batch_size: self.batch_size,
            sg_samples: part(self.sg_samples),
            ig_steps: part(self.ig_steps),
            shap_permutations: part(self.shap_permutations),
            lime_samples: part(self.lime_samples),
            cfe_max_steps: part(self.cfe_max_steps),
        }
    }

    /// Coarse cost of one model's pass under `technique`, in perturbation
    /// units (model sweeps). Drives the serving layer's latency-budget
    /// downgrades; the ordering across levels is what matters, not the
    /// absolute calibration.
    pub fn sweep_units(&self, technique: XaiTechnique) -> u64 {
        (match technique {
            XaiTechnique::SmoothGrad | XaiTechnique::NoiseGrad => self.sg_samples,
            // FusionGrad runs NoiseGrad's model-noise loop and SmoothGrad's
            // input-noise loop per noisy model.
            XaiTechnique::FusionGrad => self.sg_samples * (1 + self.sg_samples),
            XaiTechnique::IntegratedGradients => self.ig_steps,
            XaiTechnique::Shap => self.shap_permutations,
            XaiTechnique::Lime => self.lime_samples,
            XaiTechnique::Counterfactual => self.cfe_max_steps,
        }) as u64
    }
}

/// Tunable parameters for all techniques. The perturbation *counts* live in
/// [`XaiBudget`] (so the budget ladder can scale them); only the shape/noise
/// parameters that never change across ladder levels live here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExplainerConfig {
    /// SmoothGrad: noise standard deviation (input range is `[0, 1]`).
    pub sg_sigma: f32,
    /// Segment (patch) side for SHAP/LIME.
    pub segment: usize,
    /// LIME: ridge regularization strength.
    pub lime_ridge: f32,
    /// CFE: per-step perturbation magnitude.
    pub cfe_step: f32,
    /// Masking baseline value for "removed" features.
    pub baseline: f32,
    /// Perturbation counts and batched-execution budget shared by all
    /// techniques.
    pub budget: XaiBudget,
}

impl Default for ExplainerConfig {
    fn default() -> Self {
        Self {
            sg_sigma: 0.1,
            segment: 4,
            lime_ridge: 1.0,
            cfe_step: 0.08,
            baseline: 0.0,
            budget: XaiBudget::default(),
        }
    }
}

impl ExplainerConfig {
    /// The same config with the budget counts scaled to `level`
    /// ([`XaiBudget::scale`]); `Full` is the identity.
    pub fn at_level(&self, level: XaiLevel) -> ExplainerConfig {
        ExplainerConfig {
            budget: self.budget.scale(level),
            ..*self
        }
    }
}

/// Applies an [`XaiTechnique`] to a model and input, yielding a `[H, W]`
/// feature matrix in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Explainer {
    /// The technique to apply.
    pub technique: XaiTechnique,
    /// Its parameters.
    pub config: ExplainerConfig,
}

impl Explainer {
    /// Creates an explainer with default parameters.
    pub fn new(technique: XaiTechnique) -> Self {
        Self {
            technique,
            config: ExplainerConfig::default(),
        }
    }

    /// Creates an explainer with explicit parameters.
    pub fn with_config(technique: XaiTechnique, config: ExplainerConfig) -> Self {
        Self { technique, config }
    }

    /// The same explainer with its budget counts scaled to `level`; `Full`
    /// returns `self` bit-identically.
    pub fn at_level(&self, level: XaiLevel) -> Explainer {
        Explainer {
            technique: self.technique,
            config: self.config.at_level(level),
        }
    }

    /// Coarse per-model cost of this explainer in perturbation units at
    /// `level` (see [`XaiBudget::sweep_units`]).
    pub fn sweep_units_at(&self, level: XaiLevel) -> u64 {
        self.config.budget.scale(level).sweep_units(self.technique)
    }

    /// Extracts the feature matrix explaining why `model` assigns `class` to
    /// `image` (paper workflow step 1, "Feature Space Extraction").
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the model's input spec or `class` is
    /// out of range.
    pub fn explain(
        &self,
        model: &mut Model,
        image: &Tensor,
        class: usize,
        rng: &mut impl Rng,
    ) -> Tensor {
        assert!(class < model.num_classes(), "class out of range");
        self.traced(|| self.dispatch(model, image, class, rng))
    }

    /// Extracts feature matrices for several `(image, class)` items against
    /// the same model, with one independent `rng` per item.
    ///
    /// Every per-item result is bit-identical to calling [`Explainer::explain`]
    /// with that item's rng. For [`XaiTechnique::SmoothGrad`] each item draws
    /// its noise from its own rng, in item order, and the items' noisy copies
    /// share lane-major gradient sweeps — the serving layer's micro-batching
    /// lever — which only re-chunks the copies; the gradient math is
    /// chunk-invariant. Other techniques run item by item.
    ///
    /// # Panics
    ///
    /// Panics if `items` and `rngs` differ in length, or any item fails the
    /// [`Explainer::explain`] preconditions.
    pub fn explain_many<R: Rng>(
        &self,
        model: &mut Model,
        items: &[(&Tensor, usize)],
        rngs: &mut [R],
    ) -> Vec<Tensor> {
        assert_eq!(items.len(), rngs.len(), "one rng per item");
        if self.technique != XaiTechnique::SmoothGrad {
            return items
                .iter()
                .zip(rngs.iter_mut())
                .map(|((image, class), rng)| self.explain(model, image, *class, rng))
                .collect();
        }
        self.traced(|| {
            let draws: Vec<Vec<f32>> = items
                .iter()
                .zip(rngs.iter_mut())
                .map(|((image, _), rng)| self.draw_noise(image.len(), rng))
                .collect();
            let draws: Vec<&[f32]> = draws.iter().map(Vec::as_slice).collect();
            smoothgrad::sweep(model, items, &draws, &self.config)
        })
    }

    /// The standard-normal draws one [`XaiTechnique::SmoothGrad`] item of
    /// `image_len` values reads, `sg_samples × image_len`, or `None` for the
    /// other techniques, whose rng use is not a fixed run of such draws.
    ///
    /// Every SmoothGrad item reads the *first* draws of its rng, so the
    /// draws for a smaller budget or a smaller input are a prefix of those
    /// for a larger one; [`Explainer::explain_many_with_draws`] takes them.
    pub fn noise_draws(&self, image_len: usize) -> Option<usize> {
        (self.technique == XaiTechnique::SmoothGrad)
            .then(|| self.config.budget.sg_samples.max(1) * image_len)
    }

    /// SmoothGrad feature matrices for several `(image, class)` items that
    /// all read the same standard-normal `draws`, in shared lane-major
    /// gradient sweeps.
    ///
    /// If `draws` starts with the first [`Explainer::noise_draws`] values of
    /// [`remix_tensor::Tensor::randn`] (σ = 1) from an rng, every result is
    /// bit-identical to [`Explainer::explain`] on that item with a fresh copy
    /// of the rng: an item's draws are a pure function of its rng, so a
    /// caller that gives every item the same stream can draw it once.
    ///
    /// # Panics
    ///
    /// Panics unless the technique is [`XaiTechnique::SmoothGrad`], if
    /// `draws` is shorter than [`Explainer::noise_draws`] asks, or if any
    /// item fails the [`Explainer::explain`] preconditions.
    pub fn explain_many_with_draws(
        &self,
        model: &mut Model,
        items: &[(&Tensor, usize)],
        draws: &[f32],
    ) -> Vec<Tensor> {
        assert_eq!(
            self.technique,
            XaiTechnique::SmoothGrad,
            "only SmoothGrad reads shared draws"
        );
        self.traced(|| smoothgrad::sweep(model, items, &vec![draws; items.len()], &self.config))
    }

    /// Runs one call's model work under a span named after the technique,
    /// and records its duration: one histogram sample per call, whether it
    /// explains one item or a coalesced group.
    fn traced<T>(&self, work: impl FnOnce() -> T) -> T {
        let span = remix_trace::span(self.technique.abbrev());
        let out = work();
        // Zero when tracing is disabled, in which case record_duration is a
        // no-op too — the whole block is inert.
        remix_trace::record_duration(self.technique.abbrev(), span.finish());
        out
    }

    /// One SmoothGrad item's standard-normal draws from `rng`.
    fn draw_noise(&self, image_len: usize, rng: &mut impl Rng) -> Vec<f32> {
        let count = self.noise_draws(image_len).expect("a SmoothGrad explainer");
        Tensor::randn(&[count], 1.0, rng).into_vec()
    }

    fn dispatch(
        &self,
        model: &mut Model,
        image: &Tensor,
        class: usize,
        rng: &mut impl Rng,
    ) -> Tensor {
        match self.technique {
            XaiTechnique::SmoothGrad => {
                let draws = self.draw_noise(image.len(), rng);
                smoothgrad::sweep(model, &[(image, class)], &[&draws], &self.config)
                    .pop()
                    .expect("one matrix per item")
            }
            XaiTechnique::IntegratedGradients => {
                intgrad::explain(model, image, class, &self.config)
            }
            XaiTechnique::Shap => shap::explain(model, image, class, &self.config, rng),
            XaiTechnique::Lime => lime::explain(model, image, class, &self.config, rng),
            XaiTechnique::Counterfactual => cfe::explain(model, image, class, &self.config),
            XaiTechnique::NoiseGrad => {
                crate::noisegrad::noisegrad(model, image, class, &self.config, rng)
            }
            XaiTechnique::FusionGrad => {
                crate::noisegrad::fusiongrad(model, image, class, &self.config, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use remix_nn::{zoo, Arch, InputSpec};

    #[test]
    fn all_techniques_produce_unit_range_matrices() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = InputSpec {
            channels: 1,
            size: 8,
            num_classes: 3,
        };
        let mut model = Model::new(zoo::build(Arch::ConvNet, spec, &mut rng), spec);
        let image = Tensor::rand_uniform(&[1, 8, 8], 0.0, 1.0, &mut rng);
        for technique in XaiTechnique::ALL.into_iter().chain(XaiTechnique::OPTIMIZED) {
            let m = Explainer::new(technique).explain(&mut model, &image, 1, &mut rng);
            assert_eq!(m.shape(), &[8, 8], "{technique}");
            assert!(!m.has_non_finite(), "{technique} NaN");
            let max = m.max().unwrap();
            let min = m.min().unwrap();
            assert!(
                (0.0..=1.0).contains(&min) && max <= 1.0,
                "{technique} range"
            );
        }
    }

    #[test]
    fn explain_many_is_bit_identical_to_per_item_explain() {
        let mut rng = StdRng::seed_from_u64(5);
        let spec = InputSpec {
            channels: 1,
            size: 8,
            num_classes: 3,
        };
        let mut model = Model::new(zoo::build(Arch::ConvNet, spec, &mut rng), spec);
        let images: Vec<Tensor> = (0..5)
            .map(|_| Tensor::rand_uniform(&[1, 8, 8], 0.0, 1.0, &mut rng))
            .collect();
        let items: Vec<(&Tensor, usize)> =
            images.iter().enumerate().map(|(i, t)| (t, i % 3)).collect();
        for technique in XaiTechnique::ALL.into_iter().chain(XaiTechnique::OPTIMIZED) {
            // Small batch size so the coalesced sweep chunks across item
            // boundaries — the case the bit-identity claim is about. Every
            // call must also leave the model as it found it, or the solo
            // calls after the batched one would see other weights.
            let explainer = Explainer::with_config(
                technique,
                ExplainerConfig {
                    budget: XaiBudget {
                        batch_size: 5,
                        ..XaiBudget::default()
                    },
                    ..ExplainerConfig::default()
                },
            );
            let mut rngs: Vec<StdRng> = (0..items.len())
                .map(|i| StdRng::seed_from_u64(100 + i as u64))
                .collect();
            let many = explainer.explain_many(&mut model, &items, &mut rngs);
            for (i, (image, class)) in items.iter().enumerate() {
                let mut solo_rng = StdRng::seed_from_u64(100 + i as u64);
                let solo = explainer.explain(&mut model, image, *class, &mut solo_rng);
                assert_eq!(many[i], solo, "{technique} item {i}");
            }
        }
    }

    #[test]
    fn classification_of_techniques_matches_paper() {
        assert!(XaiTechnique::SmoothGrad.is_model_dependent());
        assert!(XaiTechnique::IntegratedGradients.is_model_dependent());
        assert!(!XaiTechnique::Shap.is_model_dependent());
        assert!(!XaiTechnique::Lime.is_model_dependent());
        assert!(!XaiTechnique::Counterfactual.is_model_dependent());
    }

    #[test]
    fn full_scale_is_identity_and_lower_levels_shrink_monotonically() {
        let budget = XaiBudget::default();
        assert_eq!(budget.scale(XaiLevel::Full), budget);
        for technique in XaiTechnique::ALL.into_iter().chain(XaiTechnique::OPTIMIZED) {
            let units: Vec<u64> = XaiLevel::LADDER
                .iter()
                .map(|&l| budget.scale(l).sweep_units(technique))
                .collect();
            assert!(
                units.windows(2).all(|w| w[0] <= w[1]),
                "{technique}: {units:?} not monotone over the ladder"
            );
            assert_eq!(units[0], 0, "{technique}: Skip must cost nothing");
            assert!(units[3] > 0, "{technique}: Full must cost something");
        }
        // Scaled counts never hit zero above Skip, even from count 1.
        let tiny = XaiBudget {
            sg_samples: 1,
            ig_steps: 1,
            shap_permutations: 1,
            lime_samples: 1,
            cfe_max_steps: 1,
            batch_size: 1,
        };
        let light = tiny.scale(XaiLevel::Light);
        assert_eq!(light.sg_samples, 1);
        assert_eq!(light.cfe_max_steps, 1);
    }

    #[test]
    fn ladder_names_round_trip_and_downgrade_walks_to_skip() {
        for level in XaiLevel::LADDER {
            assert_eq!(XaiLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(XaiLevel::parse("bogus"), None);
        let mut level = XaiLevel::Full;
        let mut hops = 0;
        while let Some(next) = level.downgrade() {
            assert!(next < level);
            level = next;
            hops += 1;
        }
        assert_eq!(level, XaiLevel::Skip);
        assert_eq!(hops, 3);
    }

    #[test]
    fn at_level_standard_halves_the_sampled_counts() {
        let explainer = Explainer::new(XaiTechnique::SmoothGrad);
        let std = explainer.at_level(XaiLevel::Standard);
        assert_eq!(std.config.budget.sg_samples, 4);
        assert_eq!(std.config.budget.lime_samples, 20);
        assert_eq!(std.config.budget.batch_size, 32, "batch_size never scales");
        assert_eq!(std.config.sg_sigma, explainer.config.sg_sigma);
        assert_eq!(
            explainer.at_level(XaiLevel::Full).config,
            explainer.config,
            "Full must be the identity"
        );
    }

    #[test]
    #[should_panic(expected = "class out of range")]
    fn rejects_bad_class() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = InputSpec {
            channels: 1,
            size: 8,
            num_classes: 2,
        };
        let mut model = Model::new(zoo::build(Arch::ConvNet, spec, &mut rng), spec);
        Explainer::new(XaiTechnique::SmoothGrad).explain(
            &mut model,
            &Tensor::zeros(&[1, 8, 8]),
            5,
            &mut rng,
        );
    }
}
