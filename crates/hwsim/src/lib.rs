//! # h2o-hwsim — roofline hardware performance & power simulator
//!
//! The reproduction of the paper's in-house ML performance simulator
//! (§6.2.3) and of the hardware analyses in Figs. 4, 7 and 9:
//!
//! * [`HardwareConfig`] — per-chip platform models with presets for
//!   **TPUv4** (training), **TPUv4i** (serving) and **GPU V100**, each with
//!   matrix units, vector units, an HBM + on-chip CMEM memory hierarchy, an
//!   inter-chip interconnect, and an energy model where CMEM bytes are ~10×
//!   cheaper than HBM bytes.
//! * [`roofline`] — per-operator timing: `max` over compute / vector /
//!   memory / network rails, with an MXU tiling-efficiency model that makes
//!   small channel counts strand matrix-unit lanes. The MBConv vs
//!   Fused-MBConv latency crossover of Fig. 4c *emerges* from this model
//!   rather than being hard-coded.
//! * [`Simulator`] — whole-graph critical-path simulation with hardware
//!   counters (achieved FLOPS, HBM/CMEM traffic and bandwidth), training
//!   step modelling (fwd+bwd+all-reduce) and the power/energy model used by
//!   Fig. 9.
//! * [`ProductionHardware`] — the deployed-hardware stand-in (systematic
//!   distortions + measurement noise) that the two-phase performance model
//!   fine-tunes against (Table 1). See DESIGN.md for the substitution
//!   rationale.
//!
//! # Examples
//!
//! ```
//! use h2o_hwsim::{Simulator, HardwareConfig, SystemConfig};
//! use h2o_graph::{Graph, OpKind, DType};
//!
//! let mut g = Graph::new("mlp", DType::Bf16);
//! let a = g.add(OpKind::MatMul { m: 4096, k: 1024, n: 1024 }, &[]);
//! g.add(OpKind::Elementwise { elems: 4096 * 1024, ops_per_elem: 1.0, label: "relu".into() }, &[a]);
//!
//! let sim = Simulator::new(HardwareConfig::tpu_v4());
//! let step = sim.simulate_training(&g, &SystemConfig::training_pod());
//! println!("step time {:.3} ms at {:.0} W", step.time * 1e3, step.avg_power);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cache;
mod config;
mod production;
pub mod roofline;
mod simulator;
pub mod sweep;

pub use cache::{arch_key, context_key, CacheStats, CachedSimulator, EvalCache, EvalCost};
pub use config::{HardwareConfig, SystemConfig};
pub use production::{DistortionProfile, ProductionHardware};
pub use roofline::{mxu_efficiency, roofline_envelope, OpTiming, RooflinePoint};
pub use simulator::{SimReport, Simulator};
