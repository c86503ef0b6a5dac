//! # h2o-graph — HLO-like operator graph IR for H2O-NAS
//!
//! The intermediate representation the hardware simulator consumes
//! (§6.2.3 of the paper: the in-house simulator takes "a TensorFlow graph
//! or a high level operation (HLO) graph of the target ML model" and walks
//! it op by op). This crate provides:
//!
//! * [`OpKind`] / [`OpCost`] — the operator vocabulary with FLOPs / bytes /
//!   VPU / network / parameter accounting.
//! * [`Graph`] — a DAG with topological construction, an XLA-style
//!   elementwise-fusion pass, and critical-path analysis (independent
//!   branches overlap, giving DLRM's `max(embedding, MLP)` step time).
//! * [`blocks`] — reusable macro-block builders: MBConv and Fused-MBConv
//!   (Fig. 4a), transformer encoder blocks, and MLP stacks, each exposing
//!   the searchable knobs of Table 5.
//!
//! # Examples
//!
//! ```
//! use h2o_graph::{Graph, DType, blocks::{MbConvConfig, mbconv}};
//! use h2o_graph::OpKind;
//!
//! let mut g = Graph::new("one-block", DType::Bf16);
//! let input = g.add(OpKind::Reshape { elems: 1 }, &[]);
//! let cfg = MbConvConfig::square(56, 64, 8);
//! mbconv(&mut g, &cfg, input);
//! g.fuse_elementwise();
//! assert!(g.total_flops() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod blocks;
mod graph;
mod op;
pub mod text;

pub use graph::{Graph, Node, NodeId};
pub use op::{DType, OpCost, OpKind};
