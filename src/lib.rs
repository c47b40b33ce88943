//! # hrviz — visual analytics for large-scale high-radix networks
//!
//! A Rust reproduction of *"Visual Analytics Techniques for Exploring the
//! Design Space of Large-Scale High-Radix Networks"* (IEEE CLUSTER 2017):
//! an interactive-analysis stack for packet-level Dragonfly network
//! simulations.
//!
//! The facade re-exports the workspace crates:
//!
//! * [`pdes`] — ROSS-style discrete-event engine: one sequential engine
//!   with checkpoints and an absolute virtual-time run grid.
//! * [`network`] — CODES-style Dragonfly model: topology, VC flow control,
//!   minimal/Valiant/UGAL/PAR routing, full metric instrumentation.
//! * [`workloads`] — synthetic patterns, AMG / AMR Boxlib / MiniFE trace
//!   proxies, and job placement policies.
//! * [`core`] — the paper's contribution: entity trees, hierarchical
//!   aggregation, projection-view scripts, detail/timeline views,
//!   brushing, and cross-run comparison.
//! * [`render`] — SVG renderings of every view model.
//! * [`fattree`] — the k-ary Fat-Tree model named as future work in the
//!   paper's conclusion, feeding the same analytics.
//! * [`obs`] — structured run telemetry: counters, spans, JSONL traces,
//!   and run/perf manifests (see README "Observability").
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![forbid(unsafe_code)]
pub use hrviz_core as core;
pub use hrviz_fattree as fattree;
pub use hrviz_network as network;
pub use hrviz_obs as obs;
pub use hrviz_pdes as pdes;
pub use hrviz_render as render;
pub use hrviz_workloads as workloads;
