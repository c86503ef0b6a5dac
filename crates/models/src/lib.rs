//! # h2o-models — model families & quality surrogates
//!
//! The concrete model families evaluated in §7 of the paper, plus the
//! calibrated quality surrogates the search consumes:
//!
//! * [`coatnet`] — the CoAtNet baselines (C0–C5) and the H2O-NAS-designed
//!   CoAtNet-H family: deeper convolution, resolution shrink, Squared-ReLU
//!   (Table 3's ablation ladder; Figs. 6 and 7).
//! * [`efficientnet`] — EfficientNet-X (B0–B7) and EfficientNet-H with the
//!   4/6 expansion mixture on B5–B7 (Table 4).
//! * [`dlrm`] — a production-style baseline DLRM (MLP-dominated step time)
//!   and the rebalanced DLRM-H (Fig. 8).
//! * [`quality`] — the analytic quality surrogates, calibrated against
//!   Table 3 (vision) and Fig. 8 (DLRM). See DESIGN.md for why surrogates
//!   stand in for real vision training.
//! * [`production`] — the Fig. 10 synthetic production fleet (CV1–CV5,
//!   DLRM1–DLRM3).
//!
//! # Examples
//!
//! ```
//! use h2o_models::coatnet::CoAtNet;
//!
//! let c5 = CoAtNet::family().pop().unwrap();
//! let h5 = CoAtNet::h_family().pop().unwrap();
//! // CoAtNet-H5 halves the compute at slightly more parameters (Fig. 7).
//! assert!(h5.flops_b() < 0.7 * c5.flops_b());
//! assert!(h5.params_m() > c5.params_m());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::todo, clippy::unreachable)]
#![warn(clippy::dbg_macro, clippy::print_stderr, clippy::print_stdout)]
#![warn(clippy::expect_used, clippy::panic, clippy::unwrap_used)]

pub mod coatnet;
pub mod dlrm;
pub mod efficientnet;
pub mod production;
pub mod quality;
