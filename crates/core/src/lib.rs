//! GANAX: a unified MIMD-SIMD accelerator for generative adversarial networks.
//!
//! This crate is the primary contribution of the reproduction: the GANAX
//! accelerator model itself, built on the substrates of the sibling crates.
//!
//! * [`compiler`](GanaxCompiler) lowers a layer description into the µop
//!   program of Section IV: access-engine configurations, per-PV local µop
//!   images and the global SIMD / MIMD-SIMD µop sequence.
//! * [`machine`](GanaxMachine) executes layers cycle-by-cycle on the
//!   decoupled access-execute PE array of `ganax-sim`, producing actual output
//!   feature maps that are validated against the `ganax-tensor` references.
//! * [`network`] runs whole generators on a fresh engine —
//!   [`GanaxMachine::execute_network`] returns a [`NetworkExecution`] report
//!   with per-layer cycles, counters and wall-clock, cross-checkable against
//!   the analytic models.
//! * [`engine`](InferenceEngine) is the compile-once, run-many serving path:
//!   [`CompiledNetwork`] hoists every layer's plan into an immutable
//!   artifact, and [`InferenceEngine`] runs it (single requests or whole
//!   batches) on a persistent worker pool whose PEs and buffers are reset in
//!   place between inferences. It is the one fast execution path: the
//!   per-layer and one-shot machine APIs run on it too.
//! * [`serve`](serve::Server) is the async serving front-end over the engine:
//!   a submit/poll ticket API, an admission queue that coalesces same-model
//!   requests into dynamically sized batches, and multi-model residency via
//!   an LRU plan cache — many client threads, many models, one worker pool.
//! * [`perf`](GanaxModel) is the layer-level performance and energy model that
//!   evaluates full GAN workloads (the counterpart of
//!   [`EyerissModel`](ganax_eyeriss::EyerissModel)).
//! * [`compare`](compare::ModelComparison) runs a GAN on both accelerators and
//!   derives every number the paper's evaluation section reports: speedup,
//!   energy reduction, runtime/energy breakdowns and PE utilization —
//!   analytically ([`ModelComparison`](compare::ModelComparison)) and from
//!   measured machine activity
//!   ([`SimulatedComparison`](compare::SimulatedComparison)).
//! * [`config`](GanaxConfig) is the validated, JSON-round-trippable
//!   description of the accelerator geometry (PE rows and SIMD lanes, clock,
//!   energies, storage sizing) every model above is parameterized by.
//! * [`sweep`](sweep::SweepSpec) explores the design space: a grid of
//!   [`GanaxConfig`] points × Table I networks evaluated in parallel, with a
//!   Pareto front over (speedup, energy reduction) against the same-budget
//!   Eyeriss baseline at every point.
//!
//! # Example
//!
//! ```
//! use ganax::compare::ModelComparison;
//! use ganax_models::zoo;
//!
//! let report = ModelComparison::compare(&zoo::dcgan()).unwrap();
//! // DCGAN's generator is dominated by stride-2 transposed convolutions, so
//! // GANAX speeds it up substantially while the discriminator is unaffected.
//! assert!(report.generator_speedup() > 2.0);
//! assert!((report.discriminator_speedup() - 1.0).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
mod compiler;
mod config;
pub mod engine;
mod machine;
pub mod network;
mod perf;
pub mod serve;
pub mod sweep;

pub use compiler::GanaxCompiler;
pub use config::{ConfigError, GanaxConfig, IntegrityMode};
pub use engine::{BatchExecution, CompiledNetwork, InferenceEngine};
pub use ganax_sim::{FaultKind, FaultPlan, FaultSpec};
pub use machine::{GanaxMachine, MachineError, MachineRun};
pub use network::{LayerExecution, NetworkExecution, NetworkWeights};
pub use perf::{AblationVariant, GanaxModel, LayerCrossCheck};
pub use serve::{
    CircuitState, ModelHandle, ModelHealth, Response, ServeConfig, ServeError, ServeStats, Server,
    ServerHealth, Ticket,
};
pub use sweep::{DesignPoint, DesignSummary, SweepCell, SweepError, SweepResult, SweepSpec};
