//! # h2o-bench — the experiment harness
//!
//! One experiment module per table and figure of the paper's evaluation
//! (§6–§7), each regenerating the corresponding rows/series from this
//! repository's implementation. The `repro_all` binary runs them all
//! (producing the content of EXPERIMENTS.md), or only the ones named on
//! its command line (`repro_all fig4_roofline`).
//!
//! Experiment budgets are minutes-scale on a laptop CPU; each module keeps
//! its budget (steps, samples, tables) in constants at its top.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
