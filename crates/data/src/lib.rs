//! # h2o-data — in-memory use-once data pipeline & synthetic traffic
//!
//! The reproduction of the paper's pure in-memory data pipeline (① in
//! Fig. 1, §4.1): production traffic may not be persisted for privacy, each
//! sample is used **once**, and within each search step the data must reach
//! **policy (α) learning before weight (W) training** — the property that
//! lets H2O-NAS unify training and validation on a single stream.
//!
//! * [`InMemoryPipeline`] — stamps batches, enforces the α-before-W
//!   ordering and single consumption, keeps audit statistics, and shares a
//!   stream safely across parallel search shards.
//! * [`CtrTraffic`] — synthetic recommendation traffic with a planted
//!   factorized logistic ground truth and Zipf-distributed ids (the
//!   production-traffic substitute documented in DESIGN.md).
//! * [`VisionTraffic`] — a synthetic classification stream.
//! * [`RuntimeStats`] — embedding-access statistics measured from live
//!   traffic (the paper simulator's input 3, §6.2.3).
//!
//! # Examples
//!
//! ```
//! use h2o_data::{InMemoryPipeline, CtrTraffic, CtrTrafficConfig, PipelineError};
//!
//! let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 1));
//! let batch = pipeline.next_batch(32);
//! // Weight training may not touch data the policy has not seen:
//! assert_eq!(
//!     pipeline.mark_weights_use(batch.seq),
//!     Err(PipelineError::WeightsBeforePolicy(batch.seq)),
//! );
//! pipeline.mark_policy_use(batch.seq).unwrap();
//! pipeline.mark_weights_use(batch.seq).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::todo, clippy::unreachable)]
#![warn(clippy::dbg_macro, clippy::print_stderr, clippy::print_stdout)]
#![warn(clippy::expect_used, clippy::panic, clippy::unwrap_used)]

mod pipeline;
mod stats;
mod traffic;

pub use pipeline::{InMemoryPipeline, PipelineError, PipelineStats, StampedBatch};
pub use stats::{RuntimeStats, TableAccessStats};
pub use traffic::{CtrTraffic, CtrTrafficConfig, TrafficSource, VisionBatch, VisionTraffic, Zipf};
