//! ReMIX — resilience for ML ensembles using XAI at inference (DSN 2025).
//!
//! ReMIX is a *meta-learner* over an ensemble of independently trained
//! classifiers. When the constituent models disagree on an input, it:
//!
//! 1. **extracts** each model's local feature space with a post-hoc XAI
//!    technique (`remix-xai`),
//! 2. **compares** the feature matrices pairwise with a diversity metric
//!    (`remix-diversity`) and averages each model's pairwise diversities
//!    into δᵢ,
//! 3. **measures** each model's feature sparseness σᵢ,
//! 4. **generates** the weight `ωᵢ = cᵢ · δᵢ · tanh(α·σᵢ)` (Eq. 5), where
//!    `cᵢ` is the prediction confidence,
//! 5. **votes** by weighted majority with a 50 % threshold (pluralities
//!    below the threshold are treated as mispredictions, i.e. safe
//!    disengagement).
//!
//! When all models agree, ReMIX short-circuits to that label — the paper's
//! efficiency fast path.
//!
//! [`Remix::predict_batch`] is the one implementation of these stages: it
//! runs them across a batch of inputs, under an optional deadline per input
//! and an optional XAI allowance ([`BatchPolicy`]), and [`Remix::predict`]
//! is a batch of one.
//!
//! # Example
//!
//! ```no_run
//! use remix_core::Remix;
//! use remix_data::SyntheticSpec;
//! use remix_ensemble::{train_zoo, TrainedEnsemble};
//! use remix_nn::Arch;
//!
//! let (train, test) = SyntheticSpec::gtsrb_like().generate();
//! let models = train_zoo(&[Arch::ConvNet, Arch::ResNet50, Arch::Vgg11], &train, 8, 1);
//! let mut ensemble = TrainedEnsemble::new(models);
//! let remix = Remix::builder().build();
//! let verdict = remix.predict(&mut ensemble, &test.images[0]);
//! println!("ReMIX says: {:?}", verdict.prediction);
//! ```

#![warn(missing_docs)]

mod remix;
mod streams;
mod triage;
mod verdict;
mod voter;

pub use remix::{BatchPolicy, Remix, RemixBuilder};
pub use triage::{
    fano_error_bound, plan_downgrades, TriageScheduler, TriageSignals, TriageThresholds,
};
pub use verdict::{ModelDetail, RemixVerdict, StageTimings};
pub use voter::RemixVoter;
