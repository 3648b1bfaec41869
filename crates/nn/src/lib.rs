//! From-scratch trainable neural-network stack for the ReMIX reproduction.
//!
//! The paper trains nine TensorFlow architectures (Table III). This crate
//! provides the equivalent substrate in pure Rust:
//!
//! * a [`Layer`] trait whose backward pass propagates gradients **to the
//!   input** as well as to the weights — the property the gradient-based XAI
//!   techniques (Integrated Gradients, SmoothGrad) in `remix-xai` rely on;
//! * the layer set needed by the zoo: dense, convolution (lowered to GEMMs
//!   that pack from and fold onto the images), depthwise convolution, max/average/global pooling, batch-norm
//!   (running-statistics variant), dropout, residual blocks with optional
//!   projection shortcuts, and squeeze-and-excitation;
//! * [`Sequential`] composition, softmax cross-entropy loss, SGD (momentum)
//!   and Adam optimizers, and a mini-batch [`Trainer`] with per-sample weights
//!   (needed by AdaBoost in `remix-ensemble`);
//! * a model [`zoo`] with scaled-down but structurally faithful versions of
//!   ConvNet, DeconvNet, VGG11, VGG16, ResNet18, ResNet50, MobileNet and
//!   EfficientNetV2-B0/B1;
//! * a tiny self-attention pooling head ([`attention`]) used by the Fig. 12
//!   ViT discussion demo.
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use remix_nn::{zoo, Arch, InputSpec, Model};
//! use remix_tensor::Tensor;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let spec = InputSpec { channels: 1, size: 12, num_classes: 3 };
//! let mut model = Model::new(zoo::build(Arch::ConvNet, spec, &mut rng), spec);
//! let image = Tensor::zeros(&[1, 12, 12]);
//! let probs = model.predict_proba(&image);
//! assert_eq!(probs.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod attention;
mod layer;
pub mod layers;
mod loss;
mod model;
mod optim;
pub mod quantize;
mod sequential;
pub mod state;
mod trainer;
pub mod zoo;

pub use layer::{Layer, Mode, Wants};
pub use loss::cross_entropy;
pub use model::Model;
pub use optim::{Adam, Optimizer, Sgd};
pub use sequential::Sequential;
pub use trainer::{OptimizerKind, Trainer, TrainerConfig};
pub use zoo::{Arch, InputSpec};
