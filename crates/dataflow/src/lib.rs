//! GANAX flow-of-data analysis and transformations (Section II of the paper).
//!
//! A transposed convolution executed with a conventional convolution dataflow
//! wastes compute on the zeros inserted between input elements. This crate
//! provides the structural analysis GANAX builds on:
//!
//! * [`AxisPhases`] — for one spatial axis, which kernel taps are
//!   *consequential* (land on original data) as a function of the output
//!   position's *phase* (its index modulo the upsampling stride). The paper's
//!   Figure 4 observation that "there are only two distinct patterns" is the
//!   two-phase case.
//! * [`OutputRowGroups`] — the *output-row reorganization* of Figure 5(a):
//!   output rows with identical phases are grouped so they can be placed on
//!   adjacent processing vectors, and the *filter-row reorganization* of
//!   Figure 5(b) falls out as each group's list of consequential filter rows.
//! * [`LayerGeometry`] + [`ScheduleEstimate`] — the mapping of a whole layer
//!   onto a processing-element array under either the conventional (dense)
//!   dataflow or the reorganized GANAX dataflow, yielding cycle counts, PE
//!   utilization and data-movement events that the accelerator models charge
//!   against the Table II energy model.
//!
//! # Example: the paper's worked example (Figure 4/5)
//!
//! ```
//! use ganax_dataflow::{AxisPhases, OutputRowGroups};
//! use ganax_tensor::ConvParams;
//!
//! // 4x4 input, 5x5 filter, one row/column of zeros inserted (upsample 2).
//! let params = ConvParams::transposed_2d(5, 2, 2);
//! let phases = AxisPhases::vertical(&params, 4).unwrap();
//! // Even-phase output rows use three filter rows, odd-phase rows use two.
//! assert_eq!(phases.consequential_taps(0).len(), 3);
//! assert_eq!(phases.consequential_taps(1).len(), 2);
//!
//! let groups = OutputRowGroups::new(&phases, 7);
//! assert_eq!(groups.groups().len(), 2);
//! // Reorganization raises compute-node utilization from ~50% to 100%.
//! assert!((groups.conventional_utilization() - 0.5).abs() < 0.08);
//! assert_eq!(groups.reorganized_utilization(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod geometry;
mod phase;
mod reorg;
mod schedule;

pub use geometry::{FilterRowTap, LayerGeometry, RowKind};
pub use phase::AxisPhases;
pub use reorg::{OutputRowGroup, OutputRowGroups};
pub use schedule::{ArrayConfig, DataflowMode, ScheduleEstimate};
