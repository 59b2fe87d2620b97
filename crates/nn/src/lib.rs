//! # om-nn
//!
//! Neural-network building blocks on top of [`om_tensor`], covering exactly
//! the architecture OmniMatch (EDBT 2025) needs:
//!
//! * layers — [`Linear`], [`Embedding`], [`TextCnn`] (multi-width
//!   convolution + max-over-time, §4.2 of the paper), [`Dropout`], [`Mlp`],
//!   and a small [`TransformerEncoder`] for the `OmniMatch-BERT` ablation;
//! * losses — softmax cross-entropy (on the tensor), [`mse_loss`], and the
//!   supervised contrastive loss [`supcon_loss`] of Khosla et al. (Eq. 13);
//! * optimizers — [`Adadelta`] (the paper's optimizer, §5.4), plus
//!   [`Sgd`] and [`Adam`];
//! * checkpointing — binary save/load of parameter sets via `bytes`;
//! * serving — [`inference_mode`], an RAII scope that disables tape
//!   allocation and forces [`Dropout`] to the identity for read-only
//!   forwards (used by `om-serve`).

pub mod dropout;
pub mod embedding;
pub mod inference;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod module;
pub mod optim;
pub mod serialize;
pub mod textcnn;
pub mod transformer;

pub use dropout::Dropout;
pub use embedding::Embedding;
pub use inference::{inference_mode, is_inference, InferenceGuard};
pub use linear::Linear;
pub use loss::{mse_loss, supcon_loss, SupConBatch};
pub use mlp::Mlp;
pub use module::HasParams;
pub use optim::{Adadelta, Adam, OptSlot, OptState, Optimizer, Sgd, StepStats};
pub use serialize::{CheckpointError, CheckpointV2};
pub use textcnn::TextCnn;
pub use transformer::TransformerEncoder;
