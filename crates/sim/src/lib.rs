//! Cycle-level microarchitecture building blocks of the GANAX accelerator
//! (Section III.B of the paper).
//!
//! Each GANAX processing engine (PE) is split into a decoupled **access
//! µ-engine** and **execute µ-engine**:
//!
//! * the access µ-engine owns three [`StridedIndexGenerator`]s (input, weight,
//!   output) that each produce one operand address per cycle according to a
//!   preloaded `Addr`/`Offset`/`Step`/`End`/`Repeat` configuration, pushing the
//!   addresses into bounded [`AddrFifo`]s;
//! * the execute µ-engine pops addresses from those FIFOs, reads operands from
//!   the PE's scratchpad buffers, performs the operation named by the current
//!   execute µop (`mac`, `add`, `act`, …) and writes results back.
//!
//! The FIFOs provide the synchronization the paper describes: a full FIFO
//! stalls its index generator, an empty FIFO stalls the execute engine.
//! Every data movement increments the PE's [`EventCounts`](ganax_energy::EventCounts)
//! so the Table II energy model can be applied to a simulation run.
//!
//! # Example: one PE computing a dot product
//!
//! ```
//! use ganax_isa::{AccessReg, AddrGenKind, ExecUop};
//! use ganax_sim::{PeConfig, ProcessingEngine};
//!
//! let mut pe = ProcessingEngine::new(PeConfig::paper());
//! pe.load_input(&[1.0, 2.0, 3.0, 4.0]);
//! pe.load_weights(&[0.5, 0.5, 0.5, 0.5]);
//!
//! // Stream the four input/weight pairs into a single accumulated output.
//! pe.configure_linear(AddrGenKind::Input, 0, 1, 4, 1);
//! pe.configure_linear(AddrGenKind::Weight, 0, 1, 4, 1);
//! pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
//! pe.start_all();
//! pe.set_repeat(4);
//! pe.push_uop(ExecUop::Repeat);
//! pe.push_uop(ExecUop::Mac);
//!
//! let cycles = pe.run_until_idle(100);
//! assert!(cycles < 100);
//! assert_eq!(pe.read_output(0), 0.5 * (1.0 + 2.0 + 3.0 + 4.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod execute;
mod fault;
mod fifo;
mod index_gen;
mod pe;
mod scratchpad;

pub use access::AccessEngine;
pub use execute::{ActivationKind, ExecuteEngine};
pub use fault::{
    EmitFault, FaultInjector, FaultKind, FaultPlan, FaultSpec, LayerFaults, WorkerFault,
    STALL_MILLIS,
};
pub use fifo::{AddrFifo, FifoError, UopFifo};
pub use index_gen::{GeneratorConfig, StridedIndexGenerator};
pub use pe::{PeConfig, ProcessingEngine};
pub use scratchpad::Scratchpad;
