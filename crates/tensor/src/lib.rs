//! # h2o-tensor — minimal dense NN substrate for H2O-NAS
//!
//! A small, dependency-light neural-network framework providing exactly what
//! the H2O-NAS reproduction needs:
//!
//! * [`Matrix`] — dense row-major `f32` linear algebra.
//! * [`Activation`] — the activations searchable in the paper's spaces,
//!   including **Squared ReLU** (Table 3).
//! * [`MaskedDense`] / [`LowRankDense`] — fine-grained weight-sharing and
//!   searchable-rank factorised layers (Fig. 3 ③/④); a `MaskedDense` at
//!   full shape is a plain dense layer.
//! * [`EmbeddingTable`] / [`SharedEmbeddingBank`] — width-masked and
//!   per-vocabulary embedding sharing (Fig. 3 ①/②).
//! * [`loss`] — MSE / BCE / softmax-CE plus the AUC and NRMSE metrics the
//!   paper reports.
//! * [`Optimizer`] / [`Mlp`] — Adam at a learning rate with the
//!   conventional β1/β2/ε for dense weights (embedding rows take sparse
//!   SGD), and an MLP container used by the two-phase performance model
//!   (§6.2).
//!
//! The paper trains on TPUs with TensorFlow/XLA; this crate is the
//! CPU-friendly substitute documented in `DESIGN.md`. It intentionally
//! implements *dense 2-D* math only — sufficient for DLRM super-networks and
//! MLP performance models, which are the parts of H2O-NAS that train for
//! real in this reproduction.
//!
//! # Examples
//!
//! ```
//! use h2o_tensor::{Mlp, Activation, Matrix};
//! use rand::SeedableRng;
//!
//! # fn main() {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net = Mlp::new(&[2, 8, 1], Activation::Relu, 0.01, &mut rng);
//! let x = Matrix::from_rows(&[&[0.5, -0.5]]);
//! let y = Matrix::from_rows(&[&[1.0]]);
//! let loss_before = net.train_step_mse(&x, &y);
//! assert!(loss_before.is_finite());
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::todo, clippy::unreachable)]
#![warn(clippy::dbg_macro, clippy::print_stderr, clippy::print_stdout)]
#![warn(clippy::expect_used, clippy::panic, clippy::unwrap_used)]

mod activation;
mod embedding;
mod layers;
pub mod loss;
mod matrix;
mod mlp;
mod optim;
mod state;
#[cfg(test)]
mod testkit;

pub use activation::Activation;
pub use embedding::{EmbeddingTable, SharedEmbeddingBank};
pub use layers::{LowRankDense, LowRankTape, MaskedDense};
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpTape};
pub use optim::{Optimizer, Slot, Update};
pub use state::{StateError, StateReader, StateWriter};
