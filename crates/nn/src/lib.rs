//! # teamnet-nn
//!
//! Neural-network layers, model builders, losses, optimizers and metrics
//! for the TeamNet (ICDCS 2019) reproduction — the stand-in for the
//! TensorFlow stack the paper ran on.
//!
//! Two model families from the paper are provided out of the box:
//!
//! * [`ModelSpec::mlp`] — the MLP-2 / MLP-4 / MLP-8 digit classifiers;
//! * [`ModelSpec::shake_shake`] — the SS-8 / SS-14 / SS-26 Shake-Shake
//!   CNNs for image classification.
//!
//! Every layer implements [`Layer`] with an exact hand-written backward
//! pass (verified against finite differences in the tests), and exposes
//! FLOP counts so the edge-device cost model in `teamnet-simnet` can price
//! a forward pass on simulated hardware.
//!
//! # Examples
//!
//! ```
//! use teamnet_nn::{softmax_cross_entropy, Layer, Mode, ModelSpec, Sgd};
//! use teamnet_tensor::Tensor;
//!
//! // Build the paper's 2-layer expert MLP and take one SGD step.
//! let mut model = ModelSpec::mlp(2, 32).build(0);
//! let mut opt = Sgd::with_momentum(0.1, 0.9);
//! let x = Tensor::zeros([4, 784]);
//! let labels = [0usize, 1, 2, 3];
//!
//! let logits = model.forward(&x, Mode::Train);
//! let out = softmax_cross_entropy(&logits, &labels);
//! model.zero_grad();
//! model.backward(&out.grad);
//! opt.step(&mut model);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv_layer;
pub mod cost;
mod layer;
mod loss;
mod metrics;
mod models;
mod norm;
mod optim;
mod sequential;
mod shake;
pub mod shape_check;
mod state;

pub use conv_layer::{AvgPool2d, Conv2d, GlobalAvgPool};
pub use cost::{expert_cost, tensor_bytes, CostNode, ExpertCost, LayerCost, WireModel};
pub use layer::{param_count, Dense, Flatten, Layer, Mode, Relu, TanhLayer};
pub use loss::{mse, softmax_cross_entropy, LossOutput};
pub use metrics::{accuracy, ConfusionMatrix};
pub use models::{with_flatten, ModelSpec};
pub use norm::BatchNorm2d;
pub use optim::{Adam, Sgd};
pub use sequential::{LayerProfile, Sequential};
pub use shake::ShakeShakeBlock;
pub use shape_check::{check_model, ShapeError};
pub use state::{load_state, state_bytes, state_vec};
