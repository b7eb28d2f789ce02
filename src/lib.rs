//! Umbrella crate for the GANAX reproduction workspace.
//!
//! This crate exists to host the repository-level examples (`examples/`) and
//! cross-crate integration tests (`tests/`); it simply re-exports the
//! workspace's public crates so the examples can use one coherent namespace.
//!
//! * [`tensor`] — dense tensors and reference (transposed) convolutions.
//! * [`models`] — the Table I GAN workload zoo.
//! * [`isa`] — the GANAX µop ISA and µop buffers.
//! * [`dataflow`] — zero-pattern analysis, reorganization and schedules.
//! * [`energy`] — the Table II energy and Table III area models.
//! * [`sim`] — cycle-level decoupled access-execute building blocks.
//! * [`eyeriss`] — the Eyeriss-style baseline accelerator model.
//! * [`ganax`] — the GANAX accelerator: compiler, machine, perf model and
//!   comparison reports.
//!
//! ```
//! use ganax_repro::prelude::*;
//!
//! let report = ModelComparison::compare(&zoo::dcgan()).unwrap();
//! assert!(report.generator_speedup() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ganax;
pub use ganax_dataflow as dataflow;
pub use ganax_energy as energy;
pub use ganax_eyeriss as eyeriss;
pub use ganax_isa as isa;
pub use ganax_models as models;
pub use ganax_sim as sim;
pub use ganax_tensor as tensor;

/// Convenience prelude pulling in the types most examples need.
pub mod prelude {
    pub use ganax::compare::ModelComparison;
    pub use ganax::{GanaxCompiler, GanaxConfig, GanaxMachine, GanaxModel};
    pub use ganax_eyeriss::EyerissModel;
    pub use ganax_models::{zoo, Activation, GanModel, NetworkBuilder};
    pub use ganax_tensor::{ConvParams, Shape, Tensor};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let cfg = GanaxConfig::paper();
        assert_eq!(cfg.array().total_pes(), 256);
        assert_eq!(zoo::all_models().len(), 6);
    }
}
