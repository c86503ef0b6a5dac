//! # h2o-space — hardware-optimized search spaces & super-networks
//!
//! The paper's second pillar (§5): search spaces are "the key link to
//! connect neural architectures with hardware architectures". This crate
//! provides:
//!
//! * [`SearchSpace`] / [`Decision`] / [`ArchSample`] — the categorical
//!   abstraction the RL controller operates on, with log-space size
//!   arithmetic (the DLRM space holds ~10²⁸² candidates).
//! * [`CnnSpace`] — the convolutional space of Table 5 with per-block
//!   **dynamic MBConv fusion** (Fig. 4), ≈ O(10³⁹).
//! * [`VitSpace`] — the transformer (≈ O(10⁸)) and hybrid-ViT (≈ O(10²¹))
//!   spaces, including Squared-ReLU, sequence pooling, Primer options and a
//!   searchable convolutional stem.
//! * [`DlrmSpace`] — the first DLRM search space for RL-based one-shot NAS
//!   (§5.1): joint embedding (width × vocabulary) and MLP (width × depth ×
//!   low-rank) optimisation, ≈ O(10²⁸²) at production scale.
//! * [`DlrmSupernet`] — the trainable weight-sharing super-network with the
//!   paper's **hybrid fine/coarse-grained sharing** (Fig. 3): masked
//!   embedding widths ①, per-vocabulary tables ②, masked MLP sub-matrices
//!   ③ and shared low-rank factors ④.
//!
//! Every decoded architecture builds an `h2o_graph::Graph` for the hardware
//! simulator, and the DLRM super-network trains for real on synthetic
//! traffic via `h2o-tensor`.
//!
//! # Examples
//!
//! ```
//! use h2o_space::{DlrmSpace, DlrmSpaceConfig};
//!
//! let space = DlrmSpace::new(DlrmSpaceConfig::production());
//! // Table 5: O(10^282) candidates.
//! assert!(space.space().log10_size() > 280.0);
//! let arch = space.decode(&space.baseline());
//! let graph = arch.build_graph(1024, 128);
//! assert!(graph.param_count() > 1e6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cnn;
mod decision;
pub mod dlrm;
mod supernet;
pub mod vision_supernet;
pub mod vit;

pub use cnn::{CnnArch, CnnSpace, CnnSpaceConfig};
pub use decision::{ArchSample, Decision, SampleError, SearchSpace};
pub use dlrm::{DlrmArch, DlrmSpace, DlrmSpaceConfig};
pub use supernet::{DlrmBatch, DlrmSupernet};
pub use vision_supernet::{VisionSupernet, VisionSupernetConfig};
pub use vit::{VitArch, VitSpace, VitSpaceConfig};
