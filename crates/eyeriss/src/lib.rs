//! An Eyeriss-style row-stationary baseline accelerator model.
//!
//! The GANAX paper compares against EYERISS [Chen et al., ISCA 2016]: a 16 × 16
//! spatial array running a row-stationary dataflow with zero gating (a PE that
//! sees a zero operand suppresses the arithmetic to save energy, but still
//! spends the cycle). When the baseline executes a *transposed* convolution it
//! has no choice but to run the conventional convolution dataflow over the
//! zero-inserted input: every inserted zero costs a cycle and most of an
//! operand fetch, which is exactly the inefficiency GANAX removes.
//!
//! This crate provides that baseline: per-layer and per-network cycle counts,
//! activity counts and Table II energy, computed from the same
//! [`ScheduleEstimate`](ganax_dataflow::ScheduleEstimate) machinery the GANAX
//! model uses — only the dataflow mode differs.
//!
//! # Example
//!
//! ```
//! use ganax_eyeriss::EyerissModel;
//! use ganax_models::zoo;
//!
//! let model = EyerissModel::paper();
//! let stats = model.run_network(&zoo::dcgan().generator).unwrap();
//! assert!(stats.total_cycles() > 0);
//! assert!(stats.total_energy().total_pj() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod model;
mod stats;
mod traffic;

pub use config::AcceleratorConfig;
pub use model::EyerissModel;
pub use stats::{LayerStats, NetworkStats};
pub use traffic::{MemoryTraffic, TrafficModel};
