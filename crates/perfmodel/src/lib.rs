//! # h2o-perfmodel — scalable ML-driven performance model
//!
//! The paper's third pillar, half one: one-shot NAS needs performance
//! signals at every search step (10–100 ms budgets), but sub-networks never
//! exist physically to measure, and simulators are too slow in the loop
//! (§6.2). H2O-NAS therefore trains an **MLP performance model** in two
//! phases:
//!
//! 1. **Pre-train** on ~1 M simulator-generated samples ([`PerfModel::pretrain`]).
//! 2. **Fine-tune** on ~20 real-hardware measurements
//!    ([`PerfModel::finetune`]), cutting production NRMSE by ~10×
//!    (Table 1: 14.7–42.9 % → 1.05–3.08 %).
//!
//! The model is dual-headed (training + serving performance); model *size*
//! is computed analytically from the architecture (no learning needed), as
//! in §6.2.1 — see `h2o_space::DlrmArch::model_size_bytes`.
//!
//! # Examples
//!
//! ```
//! use h2o_perfmodel::{Featurizer, PerfModel, PerfTargets, TrainConfig};
//! use h2o_space::{SearchSpace, Decision};
//!
//! let mut space = SearchSpace::new("toy");
//! space.push(Decision::new("width", 8));
//! let featurizer = Featurizer::from_space(&space);
//! let mut model = PerfModel::new(featurizer.dim(), &[32], 0);
//! let xs: Vec<Vec<f32>> = (0..8).map(|c| featurizer.featurize(&vec![c])).collect();
//! let ys: Vec<PerfTargets> = (0..8)
//!     .map(|c| PerfTargets { training: 1e-3 * (c + 1) as f64, serving: 1e-4 * (c + 1) as f64 })
//!     .collect();
//! model.pretrain(&xs, &ys, TrainConfig { epochs: 30, batch_size: 4, lr: 1e-3 });
//! assert!(model.predict(&xs[7]).training > model.predict(&xs[0]).training);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::todo, clippy::unreachable)]
#![warn(clippy::dbg_macro, clippy::print_stderr, clippy::print_stdout)]
#![warn(clippy::expect_used, clippy::panic, clippy::unwrap_used)]

mod features;
mod model;

pub use features::Featurizer;
pub use model::{BatchPrediction, Head, PerfModel, PerfPrediction, PerfTargets, TrainConfig};
