//! The compile-once, run-many inference engine.
//!
//! GANAX's premise is that the expensive part of serving a generator — the
//! Figure 5 phase decomposition and the operand layout for the MIMD-SIMD
//! array — is done **once per layer shape** and reused for every inference.
//! This module is that split, made explicit:
//!
//! * [`CompiledNetwork`] validates a network's weights once and hoists every
//!   layer's plan (row taps, phase chunks, one phase-major copy of the
//!   flipped kernel rows, the phase-major dispatch order) into an immutable,
//!   `Arc`-shared artifact;
//! * [`InferenceEngine`] owns a **persistent worker pool**: long-lived
//!   threads fed through a shard queue, each owning one worker PE that is
//!   [reset in place](ganax_sim::ProcessingEngine::reset) between dispatch
//!   batches, plus recycled operand/output buffers — so the serving steady
//!   state performs no planning and no allocation churn;
//! * [`InferenceEngine::execute_batch`] shards *batch × phase-major output
//!   rows* across the pool and amortizes gathered weight streams across every
//!   resident row of every batch element.
//!
//! The engine is the workspace's one fast execution path: the per-layer
//! [`GanaxMachine::execute_layer_threaded`] and the one-shot
//! [`GanaxMachine::execute_network_threaded`] run on a fresh engine too. It is
//! checked against two oracles: the seed single-step
//! [`GanaxMachine::execute_layer_reference`], which it matches **bit for
//! bit** (outputs, busy cycles, counters) at every pool size, and the
//! `ganax_tensor` chain ([`reference_network_forward`](crate::network::reference_network_forward)).
//!
//! The pool is **supervised**: every worker body runs under
//! [`std::panic::catch_unwind`], a panicking worker reports a typed
//! [`MachineError::WorkerPanic`] for its shard and terminates, and the
//! dispatcher respawns a replacement (never after
//! [`InferenceEngine::shut_down_pool`]) and requeues the lost shard — so a
//! mid-batch worker crash completes bit-identically, it never hangs and never
//! poisons the queue. Fault injection ([`ganax_sim::FaultSpec`] on the
//! machine's configuration) drives exactly this machinery on purpose.
//!
//! # Example
//!
//! ```
//! use ganax::{CompiledNetwork, GanaxMachine, InferenceEngine, NetworkWeights};
//! use ganax_models::{Activation, NetworkBuilder};
//! use ganax_tensor::{ConvParams, Shape, Tensor};
//!
//! let net = NetworkBuilder::new("toy", Shape::new_2d(1, 4, 4))
//!     .tconv("up", 1, ConvParams::transposed_2d(5, 2, 2), Activation::Relu)
//!     .build()
//!     .unwrap();
//! let weights =
//!     NetworkWeights::new(&net, vec![Tensor::filled_filter(1, 1, 1, 5, 5, 0.5)]).unwrap();
//! let engine = InferenceEngine::new(GanaxMachine::paper(), 2);
//! let compiled = engine.compile(&net, &weights).unwrap();
//!
//! // Compile once, run many: every request reuses the cached plans.
//! let input = Tensor::filled(net.input_shape(), 1.0);
//! let a = engine.execute(&compiled, &input).unwrap();
//! let b = engine.execute(&compiled, &input).unwrap();
//! assert_eq!(a.output, b.output);
//! assert_eq!(a.plan_seconds, 0.0, "warm runs never plan");
//!
//! // Batched execution is bit-identical to one-at-a-time execution.
//! let batch = engine.execute_batch(&compiled, &[input.clone(), input]).unwrap();
//! assert_eq!(batch.outputs[0], a.output);
//! assert_eq!(batch.outputs[1], a.output);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ganax_energy::{EnergyBreakdown, EnergyModel, EventCounts};
use ganax_models::{Layer, LayerOp, Network};
use ganax_sim::{
    FaultInjector, FaultKind, LayerFaults, ProcessingEngine, WorkerFault, STALL_MILLIS,
};
use ganax_tensor::Tensor;

use crate::config::IntegrityMode;
use crate::machine::{
    add_slots, dispatch_group, dispatch_ordinal_base, fold_input_checksums, gather_streams,
    load_dispatch_weights, row_checksum_ok, shard_for_position, Dispatch, GanaxMachine, LayerPlan,
    MachineError, MachineRun, PlannedLayer, RowChecksum, MAX_HEAL_ROUNDS,
};
use crate::network::{
    finish_layer_output, host_projection, LayerExecution, NetworkExecution, NetworkWeights,
};

/// One layer of a [`CompiledNetwork`]: a host-executed projection, or a
/// PE-array layer with its hoisted plan shared read-only with the pool.
enum CompiledLayer {
    /// Fully-connected projection, executed on the host.
    Host,
    /// Conv/tconv layer executed on the PE array from a cached plan.
    Machine {
        /// The layer description, shared with worker threads.
        layer: Arc<Layer>,
        /// The hoisted plan (taps, chunks, phase-major flipped kernel rows).
        plan: Arc<PlannedLayer>,
    },
}

/// A network compiled for repeated execution: weights validated once, every
/// PE-array layer's [`plan`](GanaxMachine) hoisted into an immutable artifact
/// that [`InferenceEngine`] runs without any per-request planning.
pub struct CompiledNetwork {
    network: Network,
    weights: NetworkWeights,
    layers: Vec<CompiledLayer>,
    machine: GanaxMachine,
    plan_seconds: f64,
}

impl CompiledNetwork {
    /// Validates the network/weight bundle and builds every PE-array layer's
    /// plan for `machine`'s configuration.
    ///
    /// # Errors
    /// Returns [`MachineError::ShapeMismatch`] when the weight bundle does
    /// not match the network, [`MachineError::Unsupported`] for layers the
    /// cycle-level machine cannot execute, and [`MachineError::Config`] when
    /// the machine's configuration fails validation.
    pub fn compile(
        machine: &GanaxMachine,
        network: &Network,
        weights: &NetworkWeights,
    ) -> Result<Self, MachineError> {
        let start = Instant::now();
        let net_layers = network.layers();
        if weights.len() != net_layers.len() {
            return Err(MachineError::ShapeMismatch {
                detail: format!(
                    "{} weight tensors for {} layers",
                    weights.len(),
                    net_layers.len()
                ),
            });
        }
        let mut layers = Vec::with_capacity(net_layers.len());
        for (i, layer) in net_layers.iter().enumerate() {
            let weight = weights.weight(i);
            let expected = NetworkWeights::expected_shape(layer);
            if weight.shape() != expected {
                return Err(MachineError::ShapeMismatch {
                    detail: format!(
                        "layer `{}` weights {} != expected {}",
                        layer.name,
                        weight.shape(),
                        expected
                    ),
                });
            }
            if matches!(layer.op, LayerOp::Projection) {
                layers.push(CompiledLayer::Host);
            } else {
                let planned = machine.plan_layer(layer, weight)?;
                layers.push(CompiledLayer::Machine {
                    layer: Arc::new(layer.clone()),
                    plan: Arc::new(planned),
                });
            }
        }
        Ok(CompiledNetwork {
            network: network.clone(),
            weights: weights.clone(),
            layers,
            machine: *machine,
            plan_seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// The network this artifact was compiled from.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The validated weight bundle baked into the artifact.
    pub fn weights(&self) -> &NetworkWeights {
        &self.weights
    }

    /// The machine configuration the plans were built for.
    pub fn machine(&self) -> &GanaxMachine {
        &self.machine
    }

    /// Wall-clock seconds spent validating and planning at compile time.
    pub fn plan_seconds(&self) -> f64 {
        self.plan_seconds
    }

    /// Heap bytes held by the compiled layer plans (kernel rows, checksum
    /// sums and addressing tables of every PE-array layer), excluding the
    /// shared raw [`weights`](Self::weights).
    pub fn plan_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                CompiledLayer::Host => 0,
                CompiledLayer::Machine { plan, .. } => plan.plan.heap_bytes(),
            })
            .sum()
    }

    /// Number of layers that execute on the PE array (the rest are host
    /// projections).
    pub fn machine_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l, CompiledLayer::Machine { .. }))
            .count()
    }
}

/// The report of one [`InferenceEngine::execute_batch`] call: per-element
/// outputs plus activity aggregated over the whole batch.
#[derive(Debug, Clone)]
pub struct BatchExecution {
    /// Network name.
    pub network: String,
    /// Worker threads in the engine's pool.
    pub threads: usize,
    /// Final outputs, one per batch element, in input order (bias and
    /// activation applied; bit-identical to executing each element alone).
    pub outputs: Vec<Tensor>,
    /// Busy PE cycles summed over every element and layer.
    pub busy_pe_cycles: u64,
    /// Activity counters summed over every element and layer.
    pub counts: EventCounts,
    /// Work units summed over every element and layer.
    pub work_units: u64,
    /// Total wall-clock seconds for the batch.
    pub wall_seconds: f64,
}

impl BatchExecution {
    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.outputs.len()
    }

    /// Completed inferences per wall-clock second — the serving throughput.
    pub fn inferences_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.outputs.len() as f64 / self.wall_seconds
    }

    /// Energy of the batch's simulated activity under a Table II model.
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        model.energy(&self.counts)
    }
}

/// Times one shard may execute (the first attempt plus requeues after worker
/// panics) before its [`MachineError::WorkerPanic`] becomes final. A
/// `persistent` worker-panic fault fires on every attempt, so a hard fault
/// exhausts this cap and surfaces as a typed error instead of looping.
const MAX_SHARD_ATTEMPTS: u32 = 3;

/// Locks a mutex, recovering the guard from a poisoned lock. Pool state is
/// written only under short, panic-free critical sections; a poisoned lock
/// here means a *worker* panicked while holding it mid-`push`/`pop`, and the
/// queue itself (a [`VecDeque`] of owned tasks) is still structurally sound —
/// so the serving stack keeps running instead of cascading panics through
/// every thread that touches the pool.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unit of PE-array work handed to the pool: one shard of output rows of
/// one layer, executed for every inference in the batch.
struct ShardTask {
    /// Index of this task within its dispatch wave.
    task_id: usize,
    /// The dispatch wave this task belongs to, so an abandoned wave can purge
    /// its queued tasks when the pool dies.
    wave: u64,
    /// The layer being executed.
    layer: Arc<Layer>,
    /// The layer's cached plan.
    plan: Arc<PlannedLayer>,
    /// The network-level index of the layer (the fault `layer` coordinate).
    layer_index: usize,
    /// The engine's fault injector, shared so every worker sees one fired-map.
    injector: Arc<FaultInjector>,
    /// Current input feature maps, one per batch element.
    inputs: Arc<Vec<Arc<Tensor>>>,
    /// Output rows (`oy` values) this shard owns, ascending. Shared with the
    /// dispatcher's reduction metadata (and any requeue after a worker
    /// crash), so publishing a task never copies the row list.
    rows: Arc<Vec<usize>>,
    /// Whether the worker accumulates ABFT row checksums alongside the shard
    /// (set when the machine's [`IntegrityMode`] verifies).
    verify: bool,
    /// Where the worker reports the shard result.
    reply: Sender<TaskReply>,
}

/// What a worker hands back for one [`ShardTask`].
struct TaskReply {
    task_id: usize,
    result: Result<ShardOutput, MachineError>,
}

/// A completed shard: accumulated output rows plus the worker PE's activity.
struct ShardOutput {
    /// Accumulated rows, laid out `[element][row slot][row word]`; each
    /// row is dispatch-major, `[dispatch][channel][column]` with the
    /// inconsequential columns trailing ([`LayerPlan::column_words`]).
    buffer: Vec<f32>,
    busy_pe_cycles: u64,
    counts: EventCounts,
    work_units: u64,
    /// ABFT checksum triple per accumulated row, indexed
    /// `element * rows.len() + row slot` (empty unless the task verified).
    checks: Vec<RowChecksum>,
}

/// The queue state shared between the engine and its workers.
#[derive(Default)]
struct PoolState {
    tasks: VecDeque<ShardTask>,
    shutdown: bool,
}

/// Everything the pool shares: the task queue, its wakeup, and the recycled
/// shard-output buffers that keep the steady state allocation-free.
struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
    buffers: Mutex<Vec<Vec<f32>>>,
}

impl PoolShared {
    fn recycle(&self, buffer: Vec<f32>) {
        lock_unpoisoned(&self.buffers).push(buffer);
    }
}

/// The long-lived body of one pool worker: pop shard tasks until shutdown,
/// keeping one [`ProcessingEngine`] resident and resetting it in place
/// between tasks instead of reconstructing it.
///
/// The shard execution runs under [`catch_unwind`]: a panic (injected or
/// genuine) drops the resident PE — it may be mid-dispatch with inconsistent
/// µ-engine state — reports a typed [`MachineError::WorkerPanic`] for the
/// shard, and **terminates the worker**, modelling a crashed core. The
/// dispatcher's supervisor respawns a replacement and requeues the shard.
fn worker_loop(shared: Arc<PoolShared>) {
    let mut resident: Option<ProcessingEngine> = None;
    loop {
        let task = {
            let mut state = lock_unpoisoned(&shared.state);
            loop {
                if let Some(task) = state.tasks.pop_front() {
                    break Some(task);
                }
                if state.shutdown {
                    break None;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(task) = task else { return };
        let config = task.plan.pe_config;
        let mut buffer = lock_unpoisoned(&shared.buffers).pop().unwrap_or_default();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let pe = match resident.as_mut() {
                Some(pe) if pe.config() == config => {
                    pe.reset();
                    pe
                }
                _ => resident.insert(ProcessingEngine::new(config)),
            };
            run_resident_shard(&task, pe, &mut buffer)
        }));
        match outcome {
            Ok(Ok((busy_pe_cycles, counts, work_units, checks))) => {
                let _ = task.reply.send(TaskReply {
                    task_id: task.task_id,
                    result: Ok(ShardOutput {
                        buffer,
                        busy_pe_cycles,
                        counts,
                        work_units,
                        checks,
                    }),
                });
            }
            Ok(Err(error)) => {
                shared.recycle(buffer);
                let _ = task.reply.send(TaskReply {
                    task_id: task.task_id,
                    result: Err(error),
                });
            }
            Err(_) => {
                shared.recycle(buffer);
                let _ = task.reply.send(TaskReply {
                    task_id: task.task_id,
                    result: Err(MachineError::WorkerPanic {
                        layer: task.layer.name.clone(),
                    }),
                });
                return;
            }
        }
    }
}

/// Executes one shard — `task.rows` output rows × every batch element — on a
/// resident worker PE, accumulating into `buffer` (layout `[element][row
/// slot][row word]`, zeroed here in place; each row is dispatch-major,
/// `[dispatch][channel][column]`, as [`column_words`] maps it).
///
/// The loop nests `ky → ci → dispatch → row block → channel group` so a
/// gathered weight stream, staged once per `(dispatch, group)`, serves every
/// resident row of every batch element, and a whole block of gathered input
/// streams stays resident in the input scratchpad across all channel groups.
/// Each `(dispatch, group, block)` makes one PE call: `dispatch_group` arms
/// the dispatch at the block's first stream, and
/// [`ProcessingEngine::retire_block`] retires every row of the block,
/// moving the input generator's offset one stream per row, proving the
/// dispatch shape and settling the counters once. Its sink adds each row's
/// produced run into the shard buffer ([`add_slots`], or [`emit_faulty`]
/// under armed emit faults). A dispatch bundles every equal-tap chunk of the
/// row, and the row keeps each dispatch's channels side by side, so a row's
/// whole `group × cols` run of partial sums lands with one contiguous add.
///
/// Per column and channel this performs exactly the single-step reference's
/// traffic (`taps` input + `taps` weight reads, two µop fetches, one
/// write-back, `taps` busy cycles), so busy cycles, counters and the f32
/// accumulation order per output element are bit-identical to
/// [`GanaxMachine::execute_layer_reference`]; bulk scratchpad loads are
/// excluded from the counts, as the reference excludes its own per-unit
/// loads. The output scratchpad is not cleared between dispatches: every
/// program overwrites its output word before it is read back. Fault sites
/// stay keyed by chunk (see [`load_dispatch_weights`] and [`emit_faulty`]).
///
/// Under `task.verify`, each `(ky, ci)` first folds the clean input streams
/// of every row instance reading the tap into their checksums in one pass
/// ([`fold_input_checksums`]: chunk → column → tap outside, rows inside, so
/// each weight-checksum pair is loaded once per lane of rows), and the
/// shard ends with one observed-side fold per row. Every row's checksum
/// triple, like its outputs, depends on the row alone, not on which other
/// rows share the shard.
///
/// [`column_words`]: crate::machine::LayerPlan::column_words
fn run_resident_shard(
    task: &ShardTask,
    pe: &mut ProcessingEngine,
    buffer: &mut Vec<f32>,
) -> Result<(u64, EventCounts, u64, Vec<RowChecksum>), MachineError> {
    let layer = &*task.layer;
    let plan = &task.plan.plan;
    let pe_config = &task.plan.pe_config;
    let elements = task.inputs.len();
    let rows = &task.rows;
    let co_count = layer.output.channels;
    let ci_count = layer.input.channels;
    let width = layer.output.width;
    let row_stride = co_count * width;
    buffer.clear();
    buffer.resize(elements * rows.len() * row_stride, 0.0);

    // Settle once per shard which site families can fire in this layer (a
    // family that cannot takes the clean path and asks no per-site question)
    // and fold each live kind's layer-level hash prefix.
    let faults = task.injector.layer(task.layer_index);
    let input_faults = faults.may_fire(FaultKind::INPUT_SITES);
    let weight_faults = faults.may_fire(FaultKind::WEIGHT_SITES);
    let emit_faults = faults.may_fire(FaultKind::EMIT_SITES);
    let faults_on = input_faults || weight_faults || emit_faults;
    // Worker-fault sites are keyed `(layer, row)` — decide them for every row
    // the shard owns before any work. A panic here is genuine: it unwinds
    // into the worker's `catch_unwind` so supervision, respawn and requeue
    // are exercised for real.
    for &oy in rows.iter() {
        match faults.worker_fault(oy) {
            Some(WorkerFault::Panic) => panic!(
                "injected worker panic (layer `{}`, output row {oy})",
                layer.name
            ),
            Some(WorkerFault::Stall) => {
                std::thread::sleep(Duration::from_millis(STALL_MILLIS));
            }
            None => {}
        }
    }

    let mut load_words = 0u64;
    let mut work_units = 0u64;
    // ABFT checksum triples, one per `(element, row slot)` accumulated row.
    // The predicted/magnitude terms are folded in `ky → ci → chunk →
    // element` order per row, so the triples — and therefore the verdicts —
    // are bit-identical at every pool size.
    let mut checks: Vec<RowChecksum> = if task.verify {
        vec![RowChecksum::default(); elements * rows.len()]
    } else {
        Vec::new()
    };
    // `(element, row slot, input row)` instances whose row reads vertical tap
    // `ky` — rebuilt per tap, reusing the allocation.
    let mut instances: Vec<(usize, usize, usize)> = Vec::new();
    // `(checksum index, input row)` of each instance at the current `ci`.
    let mut folds: Vec<(usize, &[f32])> = Vec::new();
    // Per chunk of the current dispatch, its dispatch ordinal base (filled
    // only when some site family can fire).
    let mut ordinals: Vec<u64> = Vec::new();

    for ky in 0..plan.kernel_h {
        instances.clear();
        for e in 0..elements {
            for (slot, &oy) in rows.iter().enumerate() {
                if let Some(&(_, iy)) = plan.row_taps[oy].iter().find(|&&(tap, _)| tap == ky) {
                    instances.push((e, slot, iy));
                }
            }
        }
        if instances.is_empty() {
            continue;
        }
        for ci in 0..ci_count {
            work_units += instances.len() as u64 * co_count as u64;
            if task.verify {
                // The predicted side folds each chunk's *clean* stream in
                // chunk order, independent of how chunks bundle into
                // dispatches, for every instance of the tap in one pass.
                folds.clear();
                folds.extend(
                    instances.iter().map(|&(e, slot, iy)| {
                        (e * rows.len() + slot, task.inputs[e].row_2d(ci, iy))
                    }),
                );
                fold_input_checksums(plan, ky, ci, &folds, &mut checks);
            }
            for (d, dispatch) in plan.dispatches.iter().enumerate() {
                let stream = dispatch.taps * dispatch.cols;
                ordinals.clear();
                if faults_on {
                    ordinals.extend(
                        dispatch
                            .chunks
                            .iter()
                            .map(|&idx| dispatch_ordinal_base(plan, layer, ky, ci, idx)),
                    );
                }
                // A block is bounded by the input scratchpad *and* by u16
                // generator addressing: every resident stream's window
                // (`input_base + stream`) must stay below 2^16, or the
                // offset register would silently wrap into another slot's
                // stream on configs with very large input scratchpads.
                let block_cap = (pe_config.input_words / stream)
                    .min((u16::MAX as usize + 1) / stream)
                    .max(1);
                for block in instances.chunks(block_cap) {
                    pe.load_input_with(block.len() * stream, |buf| {
                        for (&(e, slot, iy), sub) in block.iter().zip(buf.chunks_exact_mut(stream))
                        {
                            let input_row = task.inputs[e].row_2d(ci, iy);
                            gather_streams(
                                dispatch.taps,
                                &dispatch.input_starts,
                                input_row,
                                input_row.len(),
                                sub,
                            );
                            if !input_faults {
                                continue;
                            }
                            // Each chunk's piece keeps the chunk's own
                            // input-fault sites.
                            for (&idx, &ordinal) in dispatch.chunks.iter().zip(&ordinals) {
                                let chunk = &plan.chunks[idx];
                                let at = chunk.dispatch_col * chunk.taps;
                                faults.corrupt_inputs(
                                    rows[slot],
                                    ordinal,
                                    &mut sub[at..at + chunk.taps * chunk.cols],
                                );
                            }
                        }
                    });
                    load_words += (block.len() * stream) as u64;

                    let mut co0 = 0;
                    while co0 < co_count {
                        let group = dispatch.group_max.min(co_count - co0);
                        load_words += load_dispatch_weights(
                            pe,
                            plan,
                            d,
                            group,
                            co0,
                            ci,
                            ky,
                            weight_faults.then_some((&faults, ordinals.as_slice())),
                        );
                        dispatch_group(pe, dispatch.taps, dispatch.cols, group, layer)?;
                        let retired = pe.retire_block(block.len(), stream, |b, produced| {
                            let (e, slot, _iy) = block[b];
                            let base = (e * rows.len() + slot) * row_stride
                                + dispatch.word
                                + co0 * dispatch.cols;
                            let out = &mut buffer[base..][..produced.len()];
                            if !emit_faults {
                                add_slots(out, produced, None);
                                return;
                            }
                            let runs = out
                                .chunks_exact_mut(dispatch.cols)
                                .zip(produced.chunks_exact(dispatch.cols));
                            for (k, (out, produced)) in runs.enumerate() {
                                emit_faulty(
                                    plan,
                                    dispatch,
                                    &ordinals,
                                    &faults,
                                    rows[slot],
                                    co0 + k,
                                    out,
                                    produced,
                                );
                            }
                        });
                        // Every dispatch the plan issues has the canonical
                        // shape; a refused block means that contract broke,
                        // and is reported rather than single-stepped.
                        if !retired {
                            return Err(MachineError::Timeout {
                                layer: layer.name.clone(),
                            });
                        }
                        co0 += group;
                    }
                }
            }
        }
    }

    if task.verify {
        // Observed side: a linear f64 fold over each accumulated row, walked
        // channel-major with columns in ascending order (through the word
        // map), whatever the pool size.
        for (i, check) in checks.iter_mut().enumerate() {
            let row = &buffer[i * row_stride..(i + 1) * row_stride];
            for co in 0..co_count {
                for &(base, stride) in &plan.column_words {
                    check.observed += f64::from(row[base + co * stride]);
                }
            }
        }
    }

    let mut counts = pe.counts();
    counts.register_file_writes -= load_words;
    Ok((pe.busy_cycles(), counts, work_units, checks))
}

/// Adds channel `co`'s produced run of one dispatch into its output words
/// under armed faults: each carried chunk's piece consults the chunk's own
/// emit-fault site (`(row, ordinal + g0, co)`, with `g0` the start of the
/// channel group that chunk alone would dispatch `co` in).
#[allow(clippy::too_many_arguments)]
fn emit_faulty(
    plan: &LayerPlan,
    dispatch: &Dispatch,
    ordinals: &[u64],
    faults: &LayerFaults<'_>,
    row: usize,
    co: usize,
    out: &mut [f32],
    produced: &[f32],
) {
    for (&idx, &ordinal) in dispatch.chunks.iter().zip(ordinals) {
        let chunk = &plan.chunks[idx];
        let g0 = co - co % chunk.group_max;
        let piece = chunk.dispatch_col..chunk.dispatch_col + chunk.cols;
        let fault = faults.emit_fault(row, ordinal + g0 as u64, co);
        add_slots(&mut out[piece.clone()], &produced[piece], fault);
    }
}

/// The compile-once, run-many inference engine: a persistent worker pool plus
/// the machine configuration requests are executed under.
///
/// See the [module docs](self) for the serving model and the bit-identity
/// guarantees. Dropping the engine shuts the pool down and joins every
/// worker.
pub struct InferenceEngine {
    machine: GanaxMachine,
    threads: usize,
    shared: Arc<PoolShared>,
    /// Live worker handles, behind a lock so the dispatcher can reap and
    /// respawn crashed workers from `&self`.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The engine-owned realization of the machine's fault schedule; one
    /// injector (one fired-map) shared by every worker and every wave, with
    /// its epoch advanced per `execute`/`execute_batch` call.
    injector: Arc<FaultInjector>,
    /// Workers respawned after a crash, over the engine's lifetime.
    respawns: AtomicU64,
    /// Shards requeued after their worker panicked mid-task.
    requeued_shards: AtomicU64,
    /// Monotonic dispatch-wave id, used to purge an abandoned wave's tasks.
    wave_counter: AtomicU64,
    /// ABFT row-slice checksum verifications performed (0 under
    /// [`IntegrityMode::Off`]).
    integrity_checks: AtomicU64,
    /// Row-slice verifications that failed — every failed verdict counts, so
    /// a persistent fault re-flagged across healing rounds counts each round.
    integrity_violations: AtomicU64,
    /// Row slices surgically re-executed and merged back by healing.
    rows_healed: AtomicU64,
    /// Corruptions that escaped past ABFT verification and were only caught
    /// downstream (the non-finite output guard) — the residual-risk tripwire.
    integrity_undetected: AtomicU64,
}

impl InferenceEngine {
    /// Spawns an engine with `threads` long-lived pool workers (at least 1).
    pub fn new(machine: GanaxMachine, threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            available: Condvar::new(),
            buffers: Mutex::new(Vec::new()),
        });
        let handles = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        InferenceEngine {
            machine,
            threads,
            shared,
            handles: Mutex::new(handles),
            injector: Arc::new(FaultInjector::new(machine.config().fault)),
            respawns: AtomicU64::new(0),
            requeued_shards: AtomicU64::new(0),
            wave_counter: AtomicU64::new(0),
            integrity_checks: AtomicU64::new(0),
            integrity_violations: AtomicU64::new(0),
            rows_healed: AtomicU64::new(0),
            integrity_undetected: AtomicU64::new(0),
        }
    }

    /// Spawns an engine sized from [`std::thread::available_parallelism`].
    pub fn with_available_parallelism(machine: GanaxMachine) -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::new(machine, threads)
    }

    /// Pool workers owned by the engine.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the worker pool can still execute dispatches: at least one
    /// worker thread is alive. `false` after [`InferenceEngine::shut_down_pool`]
    /// or if every worker died (a panic mid-task) before the supervisor
    /// respawned replacements.
    pub fn pool_is_alive(&self) -> bool {
        let handles = lock_unpoisoned(&self.handles);
        !handles.is_empty() && !handles.iter().all(std::thread::JoinHandle::is_finished)
    }

    /// Workers respawned by the supervisor after crashes, over the engine's
    /// lifetime.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Shards requeued after their worker panicked mid-task, over the
    /// engine's lifetime.
    pub fn requeued_shards(&self) -> u64 {
        self.requeued_shards.load(Ordering::Relaxed)
    }

    /// Faults the engine's injector has fired so far (0 when the machine's
    /// [`FaultSpec`](ganax_sim::FaultSpec) is disabled).
    pub fn injected_faults(&self) -> u64 {
        self.injector.injected_faults()
    }

    /// Overrides the machine's ABFT computation-integrity policy in place.
    ///
    /// Call this before compiling artifacts: the compiled artifact records
    /// the machine configuration (the integrity mode is part of its
    /// fingerprint), so artifacts compiled under a different mode are
    /// rejected by [`InferenceEngine::execute`] afterwards.
    pub fn set_integrity(&mut self, integrity: IntegrityMode) {
        self.machine.set_integrity(integrity);
    }

    /// ABFT row-slice checksum verifications performed over the engine's
    /// lifetime (0 under [`IntegrityMode::Off`]).
    pub fn integrity_checks(&self) -> u64 {
        self.integrity_checks.load(Ordering::Relaxed)
    }

    /// Row-slice checksum verifications that failed, over the engine's
    /// lifetime. Every failed verdict counts, so a persistent fault that is
    /// re-flagged across healing rounds contributes once per round.
    pub fn integrity_violations(&self) -> u64 {
        self.integrity_violations.load(Ordering::Relaxed)
    }

    /// Row slices surgically re-executed and merged back by
    /// [`IntegrityMode::VerifyAndHeal`], over the engine's lifetime.
    pub fn rows_healed(&self) -> u64 {
        self.rows_healed.load(Ordering::Relaxed)
    }

    /// Corruptions that escaped ABFT verification and were only caught by
    /// the downstream non-finite guard, over the engine's lifetime. Always 0
    /// under [`IntegrityMode::Off`] (nothing is being verified, so nothing
    /// can *escape* verification).
    pub fn integrity_undetected(&self) -> u64 {
        self.integrity_undetected.load(Ordering::Relaxed)
    }

    /// [`check_finite`] for a PE-array layer that already passed ABFT
    /// verification (or ran with it off): a non-finite value surfacing here
    /// under an active integrity mode is corruption the checksums missed, so
    /// it also trips the `integrity_undetected` counter. Callers check the
    /// raw accumulated output, before bias and activation: ReLU's
    /// `max(0.0)` would flush a poisoned NaN into a silently wrong zero.
    fn check_verified_finite(&self, layer: &str, output: &Tensor) -> Result<(), MachineError> {
        let result = check_finite(layer, output);
        if result.is_err() && self.machine.config().integrity.verifies() {
            self.integrity_undetected.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Joins and removes every finished worker handle.
    fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let handle = handles.swap_remove(i);
                let _ = handle.join();
            } else {
                i += 1;
            }
        }
    }

    /// Reaps finished worker handles and — unless the pool has been shut
    /// down — respawns replacements up to the pool's target size, counting
    /// each respawn. Returns the number of live workers afterwards.
    fn supervise_pool(&self) -> usize {
        let shutdown = lock_unpoisoned(&self.shared.state).shutdown;
        let mut handles = lock_unpoisoned(&self.handles);
        Self::reap_finished(&mut handles);
        if shutdown {
            return handles.len();
        }
        while handles.len() < self.threads {
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || worker_loop(shared)));
            self.respawns.fetch_add(1, Ordering::Relaxed);
        }
        handles.len()
    }

    /// Spawns exactly one replacement worker in response to a
    /// [`MachineError::WorkerPanic`] reply — a reliable death notice: the
    /// worker sends it and immediately terminates, though its handle may not
    /// test as finished yet. Reaps whatever already has; a briefly
    /// over-length handle list (one dying worker plus its replacement)
    /// shrinks back on the next reap. Never respawns after shutdown.
    fn replace_crashed_worker(&self) {
        let shutdown = lock_unpoisoned(&self.shared.state).shutdown;
        let mut handles = lock_unpoisoned(&self.handles);
        Self::reap_finished(&mut handles);
        if shutdown {
            return;
        }
        let shared = Arc::clone(&self.shared);
        handles.push(std::thread::spawn(move || worker_loop(shared)));
        self.respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Shuts the worker pool down in place and joins every worker, leaving
    /// the engine alive but unable to execute PE-array layers.
    ///
    /// This is the pool-death fault-injection hook: the serving stack must
    /// stay *live* when the pool dies, so after this call any dispatch
    /// resolves with a typed [`MachineError::PoolUnavailable`] through the
    /// same timeout path that guards against mid-task worker panics — it must
    /// never hang, and the supervisor never resurrects a deliberately
    /// shut-down pool. The async front-end's liveness tests ([`crate::serve`])
    /// drive this directly. Workers drain tasks already queued before
    /// exiting; calling this between requests (no tasks in flight) is
    /// deterministic.
    pub fn shut_down_pool(&mut self) {
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in lock_unpoisoned(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }

    /// The machine configuration requests execute under.
    pub fn machine(&self) -> &GanaxMachine {
        &self.machine
    }

    /// Compiles a network for this engine's configuration — sugar for
    /// [`CompiledNetwork::compile`].
    ///
    /// # Errors
    /// As [`CompiledNetwork::compile`].
    pub fn compile(
        &self,
        network: &Network,
        weights: &NetworkWeights,
    ) -> Result<CompiledNetwork, MachineError> {
        CompiledNetwork::compile(&self.machine, network, weights)
    }

    /// Checks an artifact was compiled for this engine's configuration.
    fn check_compiled(&self, compiled: &CompiledNetwork) -> Result<(), MachineError> {
        if compiled.machine != self.machine {
            return Err(MachineError::Unsupported {
                detail: "network was compiled for a different machine configuration".into(),
            });
        }
        Ok(())
    }

    /// Executes one inference from a compiled artifact — the warm serving
    /// path: no planning, no worker spawning, PEs and buffers reused in
    /// place. Bit-identical to [`GanaxMachine::execute_network`] on the same
    /// inputs (which itself compiles and then calls this).
    ///
    /// # Errors
    /// Returns [`MachineError::ShapeMismatch`] when the input does not match
    /// the network, [`MachineError::Unsupported`] when the artifact was
    /// compiled for a different configuration, and propagates worker errors.
    pub fn execute(
        &self,
        compiled: &CompiledNetwork,
        input: &Tensor,
    ) -> Result<NetworkExecution, MachineError> {
        self.check_compiled(compiled)?;
        if input.shape() != compiled.network.input_shape() {
            return Err(MachineError::ShapeMismatch {
                detail: format!(
                    "input {} != network input {}",
                    input.shape(),
                    compiled.network.input_shape()
                ),
            });
        }
        let start = Instant::now();
        // One execution = one fault epoch: non-persistent corruption armed in
        // this epoch fires deterministically here, and a *retry* (the next
        // epoch) runs clean — transient-fault semantics the serving layer's
        // retry path relies on.
        self.injector.begin_epoch();
        let mut reports = Vec::with_capacity(compiled.layers.len());
        let mut current = Arc::new(input.clone());
        for (i, layer) in compiled.network.layers().iter().enumerate() {
            let layer_start = Instant::now();
            match &compiled.layers[i] {
                CompiledLayer::Host => {
                    let mut out = host_projection(layer, &current, compiled.weights.weight(i))?;
                    finish_layer_output(layer, &mut out, compiled.weights.bias(i));
                    check_finite(&layer.name, &out)?;
                    current = Arc::new(out);
                    reports.push(LayerExecution {
                        name: layer.name.clone(),
                        is_tconv: false,
                        host: true,
                        busy_pe_cycles: 0,
                        work_units: 0,
                        counts: EventCounts::default(),
                        balance: 1.0,
                        wall_seconds: layer_start.elapsed().as_secs_f64(),
                    });
                }
                CompiledLayer::Machine {
                    layer: shared,
                    plan,
                } => {
                    let inputs = Arc::new(vec![Arc::clone(&current)]);
                    let run = self.run_layer(shared, plan, i, inputs)?;
                    let mut outputs = run.outputs;
                    let Some(mut out) = outputs.pop() else {
                        return Err(MachineError::PoolUnavailable {
                            detail: "single-element batch produced no output".into(),
                        });
                    };
                    let max_shard = run.shard_busy.iter().copied().max().unwrap_or(0);
                    let balance = if max_shard == 0 {
                        1.0
                    } else {
                        run.busy_pe_cycles as f64 / (run.shard_busy.len() as u64 * max_shard) as f64
                    };
                    self.check_verified_finite(&layer.name, &out)?;
                    finish_layer_output(layer, &mut out, compiled.weights.bias(i));
                    current = Arc::new(out);
                    reports.push(LayerExecution {
                        name: layer.name.clone(),
                        is_tconv: layer.is_tconv(),
                        host: false,
                        busy_pe_cycles: run.busy_pe_cycles,
                        work_units: run.work_units,
                        counts: run.counts,
                        balance,
                        wall_seconds: layer_start.elapsed().as_secs_f64(),
                    });
                }
            }
        }
        Ok(NetworkExecution {
            network: compiled.network.name().to_string(),
            threads: self.threads,
            layers: reports,
            output: Arc::try_unwrap(current).unwrap_or_else(|arc| (*arc).clone()),
            wall_seconds: start.elapsed().as_secs_f64(),
            // True by construction: `CompiledLayer::Machine` always carries
            // its plan, so this path contains no planning code. CONTRACT for
            // future changes: any replan-on-miss path added here MUST add
            // its measured time to this field — `bench_serve`, the CI
            // serve-bench job and `tests/serve.rs` gate on it staying zero
            // for warm requests.
            plan_seconds: 0.0,
        })
    }

    /// Executes a whole batch of inferences from a compiled artifact,
    /// sharding *batch × phase-major output rows* across the pool. Every
    /// element's output is bit-identical to running it alone through
    /// [`InferenceEngine::execute`] (at any thread count), and the aggregate
    /// activity equals the sum of the per-element runs.
    ///
    /// # Errors
    /// As [`InferenceEngine::execute`]; additionally rejects an empty batch.
    pub fn execute_batch(
        &self,
        compiled: &CompiledNetwork,
        inputs: &[Tensor],
    ) -> Result<BatchExecution, MachineError> {
        self.check_compiled(compiled)?;
        if inputs.is_empty() {
            return Err(MachineError::ShapeMismatch {
                detail: "empty inference batch".into(),
            });
        }
        for input in inputs {
            if input.shape() != compiled.network.input_shape() {
                return Err(MachineError::ShapeMismatch {
                    detail: format!(
                        "input {} != network input {}",
                        input.shape(),
                        compiled.network.input_shape()
                    ),
                });
            }
        }
        let start = Instant::now();
        // One batch = one fault epoch (see `execute`): a retried batch runs
        // clean of non-persistent corruption.
        self.injector.begin_epoch();
        let mut currents: Vec<Arc<Tensor>> = inputs.iter().map(|t| Arc::new(t.clone())).collect();
        let mut busy_pe_cycles = 0u64;
        let mut counts = EventCounts::default();
        let mut work_units = 0u64;
        for (i, layer) in compiled.network.layers().iter().enumerate() {
            match &compiled.layers[i] {
                CompiledLayer::Host => {
                    for current in currents.iter_mut() {
                        let mut out = host_projection(layer, current, compiled.weights.weight(i))?;
                        finish_layer_output(layer, &mut out, compiled.weights.bias(i));
                        check_finite(&layer.name, &out)?;
                        *current = Arc::new(out);
                    }
                }
                CompiledLayer::Machine {
                    layer: shared,
                    plan,
                } => {
                    let layer_inputs = Arc::new(currents.clone());
                    let run = self.run_layer(shared, plan, i, layer_inputs)?;
                    for (current, mut out) in currents.iter_mut().zip(run.outputs) {
                        self.check_verified_finite(&layer.name, &out)?;
                        finish_layer_output(layer, &mut out, compiled.weights.bias(i));
                        *current = Arc::new(out);
                    }
                    busy_pe_cycles += run.busy_pe_cycles;
                    counts += run.counts;
                    work_units += run.work_units;
                }
            }
        }
        Ok(BatchExecution {
            network: compiled.network.name().to_string(),
            threads: self.threads,
            outputs: currents
                .into_iter()
                .map(|arc| Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()))
                .collect(),
            busy_pe_cycles,
            counts,
            work_units,
            wall_seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Plans one layer and runs it once through the pool as network layer 0,
    /// in one fresh fault epoch, returning the raw accumulated output (no
    /// bias, no activation, no non-finite guard) — the body of
    /// [`GanaxMachine::execute_layer_threaded`].
    pub(crate) fn execute_layer(
        &self,
        layer: &Layer,
        input: &Tensor,
        weights: &Tensor,
    ) -> Result<MachineRun, MachineError> {
        let plan = Arc::new(self.machine.plan_layer(layer, weights)?);
        self.injector.begin_epoch();
        let inputs = Arc::new(vec![Arc::new(input.clone())]);
        let mut run = self.run_layer(&Arc::new(layer.clone()), &plan, 0, inputs)?;
        let output = run
            .outputs
            .pop()
            .ok_or_else(|| MachineError::PoolUnavailable {
                detail: "single-element batch produced no output".into(),
            })?;
        Ok(MachineRun {
            output,
            busy_pe_cycles: run.busy_pe_cycles,
            counts: run.counts,
            work_units: run.work_units,
        })
    }

    /// Runs one PE-array layer for every element of `inputs` through the
    /// pool: rows are carved into wide phase-major slices over the plan's row
    /// order via [`shard_for_position`], each shard task covers all batch
    /// elements, and results reduce in task-index order.
    ///
    /// This is also the pool's **supervisor**: a worker that panics reports a
    /// typed [`MachineError::WorkerPanic`] and terminates, whereupon this
    /// dispatcher respawns a replacement and requeues the lost shard (up to
    /// [`MAX_SHARD_ATTEMPTS`]) — the requeued shard re-executes in the same
    /// fault epoch, so the wave's result stays bit-identical to an
    /// uninterrupted run. Only a deliberately shut-down pool is never
    /// restarted; then missing shards resolve as
    /// [`MachineError::PoolUnavailable`].
    fn run_layer(
        &self,
        layer: &Arc<Layer>,
        plan: &Arc<PlannedLayer>,
        layer_index: usize,
        inputs: Arc<Vec<Arc<Tensor>>>,
    ) -> Result<LayerRun, MachineError> {
        for input in inputs.iter() {
            if input.shape() != layer.input {
                return Err(MachineError::ShapeMismatch {
                    detail: format!("input {} != layer input {}", input.shape(), layer.input),
                });
            }
        }
        let height = layer.output.height;
        let width = layer.output.width;
        let co_count = layer.output.channels;
        let shards = self.threads.clamp(1, height.max(1));
        // Wide slices over the phase-major row order: contiguous row-order
        // blocks stripe across shards, so each shard walks long runs of
        // adjacent phases while still receiving the same mix of shallow- and
        // deep-phase rows (assigning by raw `oy` would hand one worker every
        // deep-phase row whenever the pool size divides the phase stride).
        let mut position = vec![0usize; height];
        for (pos, &oy) in plan.plan.row_order.iter().enumerate() {
            position[oy] = pos;
        }
        let mut shard_rows: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
        for oy in 0..height {
            shard_rows[shard_for_position(position[oy], height, shards)].push(oy);
        }

        let meta: Vec<Arc<Vec<usize>>> = shard_rows.into_iter().map(Arc::new).collect();
        let verify = self.machine.config().integrity.verifies();
        let all: Vec<usize> = (0..meta.len()).collect();
        let replies = self.dispatch_wave(layer, plan, layer_index, &inputs, &meta, &all, verify);
        let mut shard_outputs: Vec<ShardOutput> = Vec::with_capacity(meta.len());
        for reply in replies {
            shard_outputs.push(reply.ok_or_else(|| MachineError::PoolUnavailable {
                detail: "the worker pool shut down before reporting a shard".into(),
            })??);
        }
        // Verify ABFT checksums (and heal) before any shard buffer is
        // recycled or copied out — corrupted rows must never reach assembly.
        if verify {
            self.verify_and_heal(layer, plan, layer_index, &inputs, &meta, &mut shard_outputs)?;
        }

        let elements = inputs.len();
        let mut outputs: Vec<Tensor> = (0..elements).map(|_| Tensor::zeros(layer.output)).collect();
        let row_stride = co_count * width;
        let column_words = &plan.plan.column_words;
        let mut busy_pe_cycles = 0u64;
        let mut counts = EventCounts::default();
        let mut work_units = 0u64;
        let mut shard_busy = Vec::with_capacity(meta.len());
        for (task_id, shard) in shard_outputs.into_iter().enumerate() {
            let rows = &meta[task_id];
            for (e, output) in outputs.iter_mut().enumerate() {
                let data = output.data_mut();
                for (slot, &oy) in rows.iter().enumerate() {
                    let src = (e * rows.len() + slot) * row_stride;
                    let row = &shard.buffer[src..src + row_stride];
                    for co in 0..co_count {
                        // Shard rows are laid out dispatch-major; map them
                        // back to `[channel][column]` order.
                        let dst = (co * height + oy) * width;
                        let words = data[dst..dst + width].iter_mut().zip(column_words);
                        for (out, &(base, stride)) in words {
                            *out = row[base + co * stride];
                        }
                    }
                }
            }
            busy_pe_cycles += shard.busy_pe_cycles;
            counts += shard.counts;
            work_units += shard.work_units;
            shard_busy.push(shard.busy_pe_cycles);
            self.shared.recycle(shard.buffer);
        }
        // Horizontal accumulation of each node's partial sums into the output
        // row (one hop per produced element) — charged once per layer.
        counts.inter_pe_transfers += work_units * width as u64;
        Ok(LayerRun {
            outputs,
            busy_pe_cycles,
            counts,
            work_units,
            shard_busy,
        })
    }

    /// Publishes one dispatch wave — the shards named by `ids` (indices into
    /// `meta`) — and collects their replies, supervising worker panics with
    /// respawn + same-epoch requeue exactly as described on
    /// [`InferenceEngine::run_layer`]. Reply `i` corresponds to `ids[i]`;
    /// `None` means the pool shut down before reporting that shard.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_wave(
        &self,
        layer: &Arc<Layer>,
        plan: &Arc<PlannedLayer>,
        layer_index: usize,
        inputs: &Arc<Vec<Arc<Tensor>>>,
        meta: &[Arc<Vec<usize>>],
        ids: &[usize],
        verify: bool,
    ) -> Vec<Option<Result<ShardOutput, MachineError>>> {
        let (reply_tx, reply_rx) = channel();
        let wave = self.wave_counter.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            for (task_id, &shard) in ids.iter().enumerate() {
                state.tasks.push_back(ShardTask {
                    task_id,
                    wave,
                    layer: Arc::clone(layer),
                    plan: Arc::clone(plan),
                    layer_index,
                    injector: Arc::clone(&self.injector),
                    inputs: Arc::clone(inputs),
                    rows: Arc::clone(&meta[shard]),
                    verify,
                    reply: reply_tx.clone(),
                });
            }
        }
        // One wakeup per task when the wave cannot occupy the whole pool;
        // otherwise a single broadcast. Either way no worker is woken only to
        // find the queue already drained by its siblings.
        if ids.len() < self.threads {
            for _ in 0..ids.len() {
                self.shared.available.notify_one();
            }
        } else {
            self.shared.available.notify_all();
        }

        let mut replies: Vec<Option<Result<ShardOutput, MachineError>>> =
            (0..ids.len()).map(|_| None).collect();
        let mut attempts = vec![1u32; ids.len()];
        let mut received = 0;
        while received < ids.len() {
            match reply_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(reply) => {
                    let task_id = reply.task_id;
                    match reply.result {
                        Err(MachineError::WorkerPanic { .. })
                            if attempts[task_id] < MAX_SHARD_ATTEMPTS =>
                        {
                            // The worker that owned this shard crashed and
                            // terminated itself. Bring the pool back to
                            // strength, then hand the shard back to the
                            // queue: it restarts from a zeroed buffer in the
                            // same fault epoch, so recovery is bit-identical.
                            attempts[task_id] += 1;
                            self.replace_crashed_worker();
                            self.requeued_shards.fetch_add(1, Ordering::Relaxed);
                            {
                                let mut state = lock_unpoisoned(&self.shared.state);
                                state.tasks.push_back(ShardTask {
                                    task_id,
                                    wave,
                                    layer: Arc::clone(layer),
                                    plan: Arc::clone(plan),
                                    layer_index,
                                    injector: Arc::clone(&self.injector),
                                    inputs: Arc::clone(inputs),
                                    rows: Arc::clone(&meta[ids[task_id]]),
                                    verify,
                                    reply: reply_tx.clone(),
                                });
                            }
                            // A single requeued shard needs exactly one worker.
                            self.shared.available.notify_one();
                        }
                        result => {
                            if matches!(result, Err(MachineError::WorkerPanic { .. })) {
                                // Attempt cap exhausted (a persistent fault):
                                // restore the pool, surface the typed error.
                                self.replace_crashed_worker();
                            }
                            replies[task_id] = Some(result);
                            received += 1;
                        }
                    }
                }
                // We hold `reply_tx`, so the channel cannot disconnect; a
                // timeout means workers are busy — or dead. Reap crashed
                // workers and respawn replacements; if none are live and none
                // may be spawned (the pool was shut down), waiting any longer
                // would hang forever. Bail out; the `None` replies turn into
                // a typed error at the call site.
                Err(RecvTimeoutError::Timeout) => {
                    if self.supervise_pool() == 0 {
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        drop(reply_tx);
        if received < ids.len() {
            // Abandoning the wave: purge its queued tasks so a dead pool's
            // queue does not accumulate stale shards (and their input Arcs).
            let mut state = lock_unpoisoned(&self.shared.state);
            state.tasks.retain(|t| t.wave != wave);
        }
        replies
    }

    /// Verifies every shard's ABFT row checksums and — under
    /// [`IntegrityMode::VerifyAndHeal`] — surgically re-executes only the
    /// flagged rows in a fresh fault epoch: one heal task per flagged shard,
    /// owning the distinct output rows behind its flagged `(element, slot)`
    /// indices, whose `(element, heal slot)` row slices (and checksums) are
    /// merged back into the originals. The clean rows, and every activity
    /// counter, are untouched: healing repairs *data*, so a healed layer
    /// reports the same busy cycles and event counts as the corrupted run —
    /// which are themselves identical to a fault-free run at every pool size.
    ///
    /// Re-executing a subset of a shard's rows heals exactly what re-running
    /// the whole shard would: a row's arithmetic, its fault sites (keyed by
    /// [`dispatch_ordinal_base`] and the row coordinate, as
    /// [`shard_for_position`] argues) and its checksum triple are functions
    /// of the row alone, and every site of a re-executed row was reached in
    /// the failed epoch, so the fresh epoch fires for it exactly what it
    /// fired in a whole-shard rerun. (A persistent schedule fires again on
    /// every site a heal reaches, so [`InferenceEngine::injected_faults`]
    /// counts only the sites the healed rows reach.)
    ///
    /// Verdicts come from [`row_checksum_ok`]'s deterministic
    /// geometry-scaled tolerance over checksum triples folded in a fixed
    /// order, so the same corruption is flagged (or passed) identically at
    /// every pool size. A mismatch that survives [`MAX_HEAL_ROUNDS`] healing
    /// rounds — or any mismatch under plain [`IntegrityMode::Verify`] — is
    /// reported as the persistent, non-transient
    /// [`MachineError::IntegrityViolation`].
    fn verify_and_heal(
        &self,
        layer: &Arc<Layer>,
        plan: &Arc<PlannedLayer>,
        layer_index: usize,
        inputs: &Arc<Vec<Arc<Tensor>>>,
        meta: &[Arc<Vec<usize>>],
        shards: &mut [ShardOutput],
    ) -> Result<(), MachineError> {
        let heals = self.machine.config().integrity.heals();
        let row_stride = layer.output.channels * layer.output.width;
        let mut rounds = 0u32;
        loop {
            // Flagged `(shard, flat (element, row slot) indices)` pairs.
            let mut flagged: Vec<(usize, Vec<usize>)> = Vec::new();
            for (shard_id, shard) in shards.iter().enumerate() {
                let rows = &meta[shard_id];
                let mut bad = Vec::new();
                for (i, check) in shard.checks.iter().enumerate() {
                    self.integrity_checks.fetch_add(1, Ordering::Relaxed);
                    if !row_checksum_ok(&plan.plan, rows[i % rows.len()], check) {
                        bad.push(i);
                    }
                }
                if !bad.is_empty() {
                    flagged.push((shard_id, bad));
                }
            }
            if flagged.is_empty() {
                return Ok(());
            }
            let slices: u64 = flagged.iter().map(|(_, bad)| bad.len() as u64).sum();
            self.integrity_violations
                .fetch_add(slices, Ordering::Relaxed);
            if !heals || rounds >= MAX_HEAL_ROUNDS {
                let mut rows_out: Vec<usize> = flagged
                    .iter()
                    .flat_map(|(shard_id, bad)| {
                        let rows = &meta[*shard_id];
                        bad.iter().map(move |i| rows[i % rows.len()])
                    })
                    .collect();
                rows_out.sort_unstable();
                rows_out.dedup();
                return Err(MachineError::IntegrityViolation {
                    layer: layer.name.clone(),
                    rows: rows_out,
                });
            }
            rounds += 1;
            // A fresh epoch: non-persistent corruption armed in the failed
            // epoch stays consumed in the injector's fired-map, so the
            // re-execution runs clean of it — while a persistent fault fires
            // again, fails verification again, and exhausts the round cap.
            self.injector.begin_epoch();
            // One heal task per flagged shard: the distinct rows behind its
            // flagged indices, ascending.
            let heal_meta: Vec<Arc<Vec<usize>>> = flagged
                .iter()
                .map(|(shard_id, bad)| {
                    let rows = &meta[*shard_id];
                    let mut heal_rows: Vec<usize> =
                        bad.iter().map(|i| rows[i % rows.len()]).collect();
                    heal_rows.sort_unstable();
                    heal_rows.dedup();
                    Arc::new(heal_rows)
                })
                .collect();
            let ids: Vec<usize> = (0..heal_meta.len()).collect();
            let healed =
                self.dispatch_wave(layer, plan, layer_index, inputs, &heal_meta, &ids, true);
            for (((shard_id, bad), heal_rows), reply) in flagged.iter().zip(&heal_meta).zip(healed)
            {
                let fresh = reply.ok_or_else(|| MachineError::PoolUnavailable {
                    detail: "the worker pool shut down before reporting a healed shard".into(),
                })??;
                let rows = &meta[*shard_id];
                let shard = &mut shards[*shard_id];
                for &i in bad {
                    // `(element, slot)` in the shard is `(element, heal slot)`
                    // in the heal task.
                    let (e, oy) = (i / rows.len(), rows[i % rows.len()]);
                    let j = e * heal_rows.len() + heal_rows.partition_point(|&r| r < oy);
                    shard.buffer[i * row_stride..][..row_stride]
                        .copy_from_slice(&fresh.buffer[j * row_stride..][..row_stride]);
                    shard.checks[i] = fresh.checks[j];
                }
                self.rows_healed
                    .fetch_add(bad.len() as u64, Ordering::Relaxed);
                self.shared.recycle(fresh.buffer);
            }
        }
    }
}

impl Drop for InferenceEngine {
    fn drop(&mut self) {
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in lock_unpoisoned(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Rejects a finished layer output containing NaN or ±inf with a typed
/// [`MachineError::NonFiniteOutput`] naming the layer and the first offending
/// element — the guard that turns silently-poisoned activations (a
/// [`FaultKind::NAN_POISON`](ganax_sim::FaultKind) hit, or a genuine numeric
/// blow-up) into a typed, retryable failure instead of corrupt responses.
fn check_finite(layer: &str, output: &Tensor) -> Result<(), MachineError> {
    if let Some(index) = output.data().iter().position(|v| !v.is_finite()) {
        return Err(MachineError::NonFiniteOutput {
            layer: layer.to_string(),
            index,
        });
    }
    Ok(())
}

/// The pooled execution of one layer across a batch.
struct LayerRun {
    outputs: Vec<Tensor>,
    busy_pe_cycles: u64,
    counts: EventCounts,
    work_units: u64,
    shard_busy: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_models::{Activation, NetworkBuilder};
    use ganax_tensor::{ConvParams, Shape};

    fn toy_network() -> Network {
        NetworkBuilder::new("toy-generator", Shape::new_2d(8, 1, 1))
            .projection("project", Shape::new_2d(4, 4, 4), Activation::Relu)
            .tconv(
                "up1",
                3,
                ConvParams::transposed_2d(4, 2, 1),
                Activation::Relu,
            )
            .conv("smooth", 2, ConvParams::conv_2d(3, 1, 1), Activation::Tanh)
            .build()
            .unwrap()
    }

    fn toy_weights(network: &Network, seed: u64) -> NetworkWeights {
        let tensors = network
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| Tensor::deterministic(NetworkWeights::expected_shape(l), seed + i as u64))
            .collect();
        NetworkWeights::new(network, tensors).unwrap()
    }

    /// A transposed convolution whose padding reaches its kernel crops its
    /// output (tensor maps tconv k3 s2 p3 on 2×4×4 to 3×3); its
    /// zero-insertion border would be negative. Every machine entry point
    /// refuses it with a typed error at plan/compile time, in debug builds
    /// (which used to panic on the `usize` underflow) and release builds
    /// (which used to return wrong outputs).
    #[test]
    fn cropping_transposed_convolutions_are_refused_at_plan_time() {
        let net = NetworkBuilder::new("crop", Shape::new_2d(2, 4, 4))
            .tconv(
                "crop",
                2,
                ConvParams::transposed_2d(3, 2, 3),
                Activation::None,
            )
            .build()
            .unwrap();
        let layer = &net.layers()[0];
        assert_eq!(layer.output, Shape::new_2d(2, 3, 3));
        let weights = toy_weights(&net, 5);
        let input = Tensor::deterministic(layer.input, 7);
        let machine = GanaxMachine::paper();
        let unsupported = |result: Result<(), MachineError>, what: &str| {
            assert!(
                matches!(result, Err(MachineError::Unsupported { .. })),
                "{what}: {result:?}"
            );
        };
        unsupported(
            machine.plan_layer(layer, weights.weight(0)).map(drop),
            "plan_layer",
        );
        unsupported(
            machine
                .execute_layer_reference(layer, &input, weights.weight(0))
                .map(drop),
            "execute_layer_reference",
        );
        unsupported(
            machine
                .execute_layer(layer, &input, weights.weight(0))
                .map(drop),
            "execute_layer",
        );
        let engine = InferenceEngine::new(machine, 1);
        unsupported(engine.compile(&net, &weights).map(drop), "compile");
    }

    #[test]
    fn compiled_network_is_reused_without_replanning() {
        let net = toy_network();
        let weights = toy_weights(&net, 7);
        let engine = InferenceEngine::new(GanaxMachine::paper(), 3);
        let compiled = engine.compile(&net, &weights).unwrap();
        assert!(compiled.plan_seconds() > 0.0);
        assert_eq!(compiled.machine_layer_count(), 2);
        let input = Tensor::deterministic(net.input_shape(), 13);
        let first = engine.execute(&compiled, &input).unwrap();
        let second = engine.execute(&compiled, &input).unwrap();
        assert_eq!(first.output, second.output);
        assert_eq!(first.plan_seconds, 0.0);
        assert_eq!(second.plan_seconds, 0.0);
        assert_eq!(first.total_counts(), second.total_counts());
    }

    /// A compiled plan holds one phase-major copy of each kernel row plus
    /// per-`(ky, ci, kx')` checksum sums, not a weight stream per dispatch
    /// column: on every reduced zoo generator at 64 channels its heap bytes
    /// stay within 1.5× the raw weights of the PE-array layers. The artifact
    /// shares the caller's weight tensors instead of copying them.
    #[test]
    fn compiled_plans_stay_near_raw_weight_size() {
        for model in ganax_models::zoo::all_models() {
            let net = ganax_models::zoo::reduced_generator(&model.name, 64).unwrap();
            let weights = toy_weights(&net, 3);
            let compiled =
                CompiledNetwork::compile(&GanaxMachine::paper(), &net, &weights).unwrap();
            let raw_bytes: usize = net
                .layers()
                .iter()
                .enumerate()
                .filter(|(_, l)| !matches!(l.op, LayerOp::Projection))
                .map(|(i, _)| weights.weight(i).len() * std::mem::size_of::<f32>())
                .sum();
            let plan_bytes = compiled.plan_bytes();
            assert!(
                plan_bytes as f64 <= 1.5 * raw_bytes as f64,
                "{}: plans hold {plan_bytes} bytes against {raw_bytes} raw",
                model.name
            );
            assert!(std::ptr::eq(
                compiled.weights().weight(0),
                weights.weight(0)
            ));
        }
    }

    /// `net` chained layer by layer through the single-step reference (host
    /// projections on the host), with the machine's epilogue between layers:
    /// the final output plus total counts, busy cycles and work units.
    fn reference_chain(
        machine: &GanaxMachine,
        net: &Network,
        weights: &NetworkWeights,
        input: &Tensor,
    ) -> (Tensor, EventCounts, u64, u64) {
        let mut current = input.clone();
        let (mut counts, mut busy, mut units) = (EventCounts::default(), 0, 0);
        for (i, layer) in net.layers().iter().enumerate() {
            let mut out = if matches!(layer.op, LayerOp::Projection) {
                host_projection(layer, &current, weights.weight(i)).unwrap()
            } else {
                let run = machine
                    .execute_layer_reference(layer, &current, weights.weight(i))
                    .unwrap();
                counts += run.counts;
                busy += run.busy_pe_cycles;
                units += run.work_units;
                run.output
            };
            finish_layer_output(layer, &mut out, weights.bias(i));
            current = out;
        }
        (current, counts, busy, units)
    }

    #[test]
    fn engine_matches_reference_chains() {
        let net = toy_network();
        let weights = toy_weights(&net, 19);
        let machine = GanaxMachine::paper();
        for seed in [23, 29] {
            let input = Tensor::deterministic(net.input_shape(), seed);
            let (output, counts, busy, units) = reference_chain(&machine, &net, &weights, &input);
            let tensor = crate::network::reference_network_forward(&net, &input, &weights).unwrap();
            for threads in [1, 2, 5] {
                let engine = InferenceEngine::new(machine, threads);
                let compiled = engine.compile(&net, &weights).unwrap();
                let run = engine.execute(&compiled, &input).unwrap();
                assert_eq!(run.output, output, "{threads}-thread engine output");
                assert_eq!(run.total_counts(), counts, "{threads}-thread engine counts");
                assert_eq!(run.total_busy_pe_cycles(), busy);
                assert_eq!(run.total_work_units(), units);
                assert!(
                    run.output.approx_eq(&tensor, 1e-4),
                    "{threads}-thread engine vs tensor chain (max diff {})",
                    run.output.max_abs_diff(&tensor).unwrap()
                );
            }
        }
    }

    #[test]
    fn batch_matches_sequential_execution() {
        let net = toy_network();
        let weights = toy_weights(&net, 31);
        let engine = InferenceEngine::new(GanaxMachine::paper(), 2);
        let compiled = engine.compile(&net, &weights).unwrap();
        let inputs: Vec<Tensor> = (0..3)
            .map(|k| Tensor::deterministic(net.input_shape(), 41 + k))
            .collect();
        let batch = engine.execute_batch(&compiled, &inputs).unwrap();
        assert_eq!(batch.batch_size(), 3);
        let mut busy = 0u64;
        let mut counts = EventCounts::default();
        for (input, output) in inputs.iter().zip(&batch.outputs) {
            let single = engine.execute(&compiled, input).unwrap();
            assert_eq!(&single.output, output, "batch element diverged");
            busy += single.total_busy_pe_cycles();
            counts += single.total_counts();
        }
        assert_eq!(batch.busy_pe_cycles, busy, "aggregate busy cycles");
        assert_eq!(batch.counts, counts, "aggregate counters");
        assert!(batch.inferences_per_second() > 0.0);
    }

    #[test]
    fn rejects_mismatched_artifacts_and_inputs() {
        let net = toy_network();
        let weights = toy_weights(&net, 53);
        let engine = InferenceEngine::new(GanaxMachine::paper(), 2);
        let compiled = engine.compile(&net, &weights).unwrap();
        // Wrong input shape.
        let bad = Tensor::zeros(Shape::new_2d(2, 1, 1));
        assert!(matches!(
            engine.execute(&compiled, &bad),
            Err(MachineError::ShapeMismatch { .. })
        ));
        // Empty batch.
        assert!(matches!(
            engine.execute_batch(&compiled, &[]),
            Err(MachineError::ShapeMismatch { .. })
        ));
        // Artifact compiled for a different machine configuration.
        let other = GanaxMachine::new(
            crate::GanaxConfig::paper()
                .with_frequency_hz(250_000_000.0)
                .unwrap(),
        );
        let other_engine = InferenceEngine::new(other, 1);
        assert!(matches!(
            other_engine.execute(&compiled, &Tensor::zeros(net.input_shape())),
            Err(MachineError::Unsupported { .. })
        ));
    }

    use ganax_sim::{FaultKind, FaultSpec};

    /// The fault-free output of the toy network on the paper machine.
    fn clean_output(net: &Network, weights: &NetworkWeights, input: &Tensor) -> Tensor {
        let engine = InferenceEngine::new(GanaxMachine::paper(), 2);
        let compiled = engine.compile(net, weights).unwrap();
        engine.execute(&compiled, input).unwrap().output
    }

    fn faulty_machine(spec: FaultSpec) -> GanaxMachine {
        GanaxMachine::new(crate::GanaxConfig::paper().with_fault(spec).unwrap())
    }

    #[test]
    fn corruption_is_bit_identical_across_pool_sizes() {
        let net = toy_network();
        let weights = toy_weights(&net, 61);
        let spec = FaultSpec::seeded(
            0xFA11,
            40_000,
            FaultKind::INPUT_FLIP | FaultKind::WEIGHT_FLIP | FaultKind::STUCK_LANE,
        );
        let machine = faulty_machine(spec);
        for seed in [67, 79] {
            let input = Tensor::deterministic(net.input_shape(), seed);
            let clean = clean_output(&net, &weights, &input);
            let runs: Vec<Tensor> = [1, 2, 5]
                .into_iter()
                .map(|threads| {
                    let engine = InferenceEngine::new(machine, threads);
                    let compiled = engine.compile(&net, &weights).unwrap();
                    let run = engine.execute(&compiled, &input).unwrap();
                    assert!(engine.injected_faults() > 0, "faults must have fired");
                    run.output
                })
                .collect();
            assert_ne!(runs[0], clean, "the schedule must actually corrupt");
            assert_eq!(runs[1], runs[0], "2-thread corrupted output");
            assert_eq!(runs[2], runs[0], "5-thread corrupted output");
        }
    }

    #[test]
    fn nan_poison_is_typed_and_a_retry_runs_clean() {
        let net = toy_network();
        let weights = toy_weights(&net, 71);
        let input = Tensor::deterministic(net.input_shape(), 73);
        let clean = clean_output(&net, &weights, &input);
        // Target the tanh layer.
        let spec = FaultSpec {
            layer: 2,
            ..FaultSpec::seeded(7, 1_000_000, FaultKind::NAN_POISON)
        };
        let engine = InferenceEngine::new(faulty_machine(spec), 2);
        let compiled = engine.compile(&net, &weights).unwrap();
        match engine.execute(&compiled, &input) {
            Err(MachineError::NonFiniteOutput { layer, .. }) => assert_eq!(layer, "smooth"),
            other => panic!("expected NonFiniteOutput, got {other:?}"),
        }
        // The poison was transient: the next epoch runs clean, bit-identical
        // to a fault-free machine.
        let retry = engine.execute(&compiled, &input).unwrap();
        assert_eq!(retry.output, clean, "retried output");
    }

    #[test]
    fn nan_poison_is_typed_even_under_relu() {
        let net = toy_network();
        let weights = toy_weights(&net, 71);
        let input = Tensor::deterministic(net.input_shape(), 73);
        let clean = clean_output(&net, &weights, &input);
        // Poison only the ReLU layer: the guard runs before the activation,
        // so the NaN cannot be flushed into a finite, wrong output.
        let spec = FaultSpec {
            layer: 1,
            ..FaultSpec::seeded(7, 1_000_000, FaultKind::NAN_POISON)
        };
        let engine = InferenceEngine::new(faulty_machine(spec), 2);
        let compiled = engine.compile(&net, &weights).unwrap();
        match engine.execute(&compiled, &input) {
            Err(MachineError::NonFiniteOutput { layer, .. }) => assert_eq!(layer, "up1"),
            other => panic!("expected NonFiniteOutput, got {other:?}"),
        }
        let retry = engine.execute(&compiled, &input).unwrap();
        assert_eq!(retry.output, clean, "retried output");
    }

    #[test]
    fn persistent_faults_fail_every_attempt() {
        let net = toy_network();
        let weights = toy_weights(&net, 71);
        let input = Tensor::deterministic(net.input_shape(), 73);
        let spec = FaultSpec {
            layer: 2,
            persistent: true,
            ..FaultSpec::seeded(7, 1_000_000, FaultKind::NAN_POISON)
        };
        let engine = InferenceEngine::new(faulty_machine(spec), 2);
        let compiled = engine.compile(&net, &weights).unwrap();
        for _ in 0..3 {
            assert!(matches!(
                engine.execute(&compiled, &input),
                Err(MachineError::NonFiniteOutput { .. })
            ));
        }
    }

    #[test]
    fn worker_panic_recovers_bit_identically_with_respawn_and_requeue() {
        let net = toy_network();
        let weights = toy_weights(&net, 83);
        let input = Tensor::deterministic(net.input_shape(), 89);
        let clean = clean_output(&net, &weights, &input);
        // One worker crash: layer 1, output row 2, guaranteed to fire once.
        let spec = FaultSpec {
            layer: 1,
            row: 2,
            ..FaultSpec::seeded(11, 1_000_000, FaultKind::WORKER_PANIC)
        };
        for threads in [1, 2, 4] {
            let engine = InferenceEngine::new(faulty_machine(spec), threads);
            let compiled = engine.compile(&net, &weights).unwrap();
            let run = engine.execute(&compiled, &input).unwrap();
            assert_eq!(run.output, clean, "{threads}-thread recovered output");
            assert_eq!(engine.respawns(), 1, "{threads}-thread respawns");
            assert_eq!(engine.requeued_shards(), 1, "{threads}-thread requeues");
            assert!(engine.pool_is_alive(), "{threads}-thread pool liveness");
            // The respawned pool keeps serving cleanly (the panic site fires
            // once ever).
            let again = engine.execute(&compiled, &input).unwrap();
            assert_eq!(again.output, clean, "{threads}-thread post-crash run");
        }
        // The per-layer API runs on the same supervised pool (as network
        // layer 0): the panic is recovered, not returned as `WorkerPanic`.
        let layer = &net.layers()[1];
        let layer_input = Tensor::deterministic(layer.input, 97);
        let reference = GanaxMachine::paper()
            .execute_layer_reference(layer, &layer_input, weights.weight(1))
            .unwrap();
        let spec = FaultSpec { layer: 0, ..spec };
        for threads in [1, 2, 4] {
            let engine = InferenceEngine::new(faulty_machine(spec), threads);
            let run = engine
                .execute_layer(layer, &layer_input, weights.weight(1))
                .unwrap();
            assert_eq!(run, reference, "{threads}-thread recovered layer");
            assert_eq!((engine.respawns(), engine.requeued_shards()), (1, 1));
        }
    }

    /// A two-layer network whose layers both run on the PE array.
    fn two_layer_network() -> Network {
        NetworkBuilder::new("targeted", Shape::new_2d(2, 4, 6))
            .tconv(
                "up",
                3,
                ConvParams::transposed_2d(4, 2, 1),
                Activation::None,
            )
            .conv("refine", 2, ConvParams::conv_2d(3, 1, 1), Activation::None)
            .build()
            .unwrap()
    }

    /// Runs `compiled` layer by layer through the pool in one fault epoch,
    /// with no non-finite guard, so a poisoned output stays observable:
    /// every layer's output plus the total counters.
    fn unguarded_chain(
        engine: &InferenceEngine,
        compiled: &CompiledNetwork,
        input: &Tensor,
    ) -> (Vec<Tensor>, EventCounts) {
        engine.injector.begin_epoch();
        let mut current = Arc::new(input.clone());
        let mut outputs = Vec::new();
        let mut counts = EventCounts::default();
        for (i, layer) in compiled.network.layers().iter().enumerate() {
            let CompiledLayer::Machine {
                layer: shared,
                plan,
            } = &compiled.layers[i]
            else {
                panic!("layer {i} must run on the PE array");
            };
            let inputs = Arc::new(vec![Arc::clone(&current)]);
            let mut run = engine.run_layer(shared, plan, i, inputs).unwrap();
            counts += run.counts;
            let mut out = run.outputs.pop().unwrap();
            finish_layer_output(layer, &mut out, compiled.weights.bias(i));
            outputs.push(out.clone());
            current = Arc::new(out);
        }
        (outputs, counts)
    }

    /// A schedule that uses every targeting filter — one layer, one output
    /// row and a dispatch-ordinal window — keeps its exact fault sites: the
    /// FNV-1a fingerprint of the (poisoned) output's f32 bits, the counters
    /// and the fired-fault count per pool size are pinned. Weight sites
    /// ignore the row filter and fire once per weight load, so their count
    /// depends on the pool size while the corruption does not.
    #[test]
    fn targeted_schedules_keep_their_fault_sites() {
        let net = two_layer_network();
        let weights = toy_weights(&net, 101);
        let input = Tensor::deterministic(net.input_shape(), 103);
        let spec = FaultSpec {
            layer: 1,
            row: 3,
            window_start: 6,
            window_len: 24,
            ..FaultSpec::seeded(
                0x7A26,
                200_000,
                FaultKind::NAN_POISON
                    | FaultKind::INPUT_FLIP
                    | FaultKind::WEIGHT_FLIP
                    | FaultKind::STUCK_LANE,
            )
        };
        let clean_engine = InferenceEngine::new(GanaxMachine::paper(), 1);
        let clean_compiled = clean_engine.compile(&net, &weights).unwrap();
        let (clean, clean_counts) = unguarded_chain(&clean_engine, &clean_compiled, &input);
        let pinned_counts = EventCounts {
            alu_ops: 6336,
            register_file_reads: 12672,
            register_file_writes: 2592,
            inter_pe_transfers: 2592,
            local_uop_fetches: 5184,
            ..EventCounts::default()
        };
        assert_eq!(clean_counts, pinned_counts, "clean counts");
        for (pool, fired) in [(1, 124), (2, 188), (5, 380)] {
            let engine = InferenceEngine::new(faulty_machine(spec), pool);
            let compiled = engine.compile(&net, &weights).unwrap();
            let (outputs, counts) = unguarded_chain(&engine, &compiled, &input);
            assert_eq!(outputs[0], clean[0], "pool {pool}: layer 0 is not targeted");
            let last = &outputs[1];
            let (height, width) = (last.shape().height, last.shape().width);
            let poisoned: Vec<usize> = (0..last.len())
                .filter(|&i| last.data()[i].is_nan())
                .map(|i| i / width % height)
                .collect();
            assert!(!poisoned.is_empty(), "pool {pool}: the poison must fire");
            assert!(
                poisoned.iter().all(|&row| row == 3),
                "pool {pool}: poison outside the targeted row"
            );
            // Rust leaves the sign and payload of a NaN result unspecified,
            // so every NaN hashes as the one canonical quiet NaN: the pin
            // moves only when a value does.
            let mut hash = crate::config::FNV_OFFSET;
            for value in last.data() {
                let bits = if value.is_nan() {
                    0x7fc0_0000
                } else {
                    value.to_bits()
                };
                crate::config::fnv1a64(&mut hash, &bits.to_le_bytes());
            }
            assert_eq!(
                hash, 0x92a9_f5d4_62af_59be,
                "pool {pool}: output fingerprint"
            );
            assert_eq!(counts, pinned_counts, "pool {pool}: counts");
            assert_eq!(engine.injected_faults(), fired, "pool {pool}: fired faults");
        }
    }

    /// A schedule below 64 ppm — where the run-level scan's prefilter
    /// rejects most batches before the exact test — keeps its exact fault
    /// sites: the FNV-1a fingerprint of the output's f32 bits, how many
    /// outputs the flips change and the fired-fault count per pool size are
    /// pinned (taken from the per-site decision loop the scan replaced).
    /// Weight sites fire once per weight load, so the count depends on the
    /// pool size while the corruption does not.
    #[test]
    fn low_rate_flip_schedules_keep_their_fault_sites() {
        let net = NetworkBuilder::new("low-rate", Shape::new_2d(32, 16, 16))
            .tconv(
                "up",
                32,
                ConvParams::transposed_2d(5, 2, 2),
                Activation::None,
            )
            .build()
            .unwrap();
        let weights = toy_weights(&net, 113);
        let input = Tensor::deterministic(net.input_shape(), 127);
        let spec = FaultSpec::seeded(0x10_7A7E, 4, FaultKind::INPUT_FLIP | FaultKind::WEIGHT_FLIP);
        let clean_engine = InferenceEngine::new(GanaxMachine::paper(), 1);
        let clean_compiled = clean_engine.compile(&net, &weights).unwrap();
        let (clean, clean_counts) = unguarded_chain(&clean_engine, &clean_compiled, &input);
        for (pool, fired) in [(1, 6), (2, 9)] {
            let engine = InferenceEngine::new(faulty_machine(spec), pool);
            let compiled = engine.compile(&net, &weights).unwrap();
            let (outputs, counts) = unguarded_chain(&engine, &compiled, &input);
            let changed = outputs[0]
                .data()
                .iter()
                .zip(clean[0].data())
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            assert_eq!(changed, 142, "pool {pool}: outputs the flips change");
            let mut hash = crate::config::FNV_OFFSET;
            for value in outputs[0].data() {
                crate::config::fnv1a64(&mut hash, &value.to_bits().to_le_bytes());
            }
            assert_eq!(
                hash, 0xb883_bf9e_8d61_2d3a,
                "pool {pool}: output fingerprint"
            );
            assert_eq!(counts, clean_counts, "pool {pool}: counts");
            assert_eq!(engine.injected_faults(), fired, "pool {pool}: fired faults");
        }
    }

    /// An armed schedule whose filters exclude every site — here a layer
    /// past the network — runs bit-identical to a clean machine and fires
    /// nothing, at every pool size.
    #[test]
    fn a_schedule_that_targets_no_site_runs_clean() {
        let net = two_layer_network();
        let weights = toy_weights(&net, 107);
        let input = Tensor::deterministic(net.input_shape(), 109);
        let spec = FaultSpec {
            layer: net.layers().len() as i64,
            ..FaultSpec::seeded(0x7A27, 1_000_000, FaultKind::ALL)
        };
        let clean_engine = InferenceEngine::new(GanaxMachine::paper(), 1);
        let clean_compiled = clean_engine.compile(&net, &weights).unwrap();
        let clean = clean_engine.execute(&clean_compiled, &input).unwrap();
        for pool in [1, 2, 5] {
            let engine = InferenceEngine::new(faulty_machine(spec), pool);
            let compiled = engine.compile(&net, &weights).unwrap();
            let run = engine.execute(&compiled, &input).unwrap();
            assert_eq!(run.output, clean.output, "pool {pool}: output");
            assert_eq!(
                run.total_counts(),
                clean.total_counts(),
                "pool {pool}: counts"
            );
            assert_eq!(engine.injected_faults(), 0, "pool {pool}: fired faults");
            assert_eq!(engine.respawns(), 0, "pool {pool}: respawns");
        }
    }

    #[test]
    fn a_shut_down_pool_reports_typed_pool_unavailable_and_stays_down() {
        let net = toy_network();
        let weights = toy_weights(&net, 97);
        let mut engine = InferenceEngine::new(GanaxMachine::paper(), 2);
        let compiled = engine.compile(&net, &weights).unwrap();
        engine.shut_down_pool();
        assert!(!engine.pool_is_alive());
        let result = engine.execute(&compiled, &Tensor::deterministic(net.input_shape(), 3));
        assert!(matches!(result, Err(MachineError::PoolUnavailable { .. })));
        // The supervisor never resurrects a deliberately shut-down pool, and
        // the abandoned wave left no stale tasks behind.
        assert_eq!(engine.respawns(), 0);
        assert!(lock_unpoisoned(&engine.shared.state).tasks.is_empty());
    }

    /// Healing merges each flagged `(element, slot)` row from its
    /// `(element, heal slot)` position in the heal task: a batch of three
    /// whose targeted row is poisoned in every element heals bit-identically
    /// to the clean batch, with the same verdicts and heal count at every
    /// pool size.
    #[test]
    fn batch_heal_merges_every_flagged_element() {
        let net = toy_network();
        let weights = toy_weights(&net, 113);
        let inputs: Vec<Tensor> = (0..3)
            .map(|k| Tensor::deterministic(net.input_shape(), 127 + k))
            .collect();
        let clean_engine = InferenceEngine::new(GanaxMachine::paper(), 2);
        let clean_compiled = clean_engine.compile(&net, &weights).unwrap();
        let clean = clean_engine
            .execute_batch(&clean_compiled, &inputs)
            .unwrap()
            .outputs;
        let spec = FaultSpec {
            layer: 1,
            row: 5,
            ..FaultSpec::seeded(13, 1_000_000, FaultKind::NAN_POISON)
        };
        let machine = GanaxMachine::new(
            crate::GanaxConfig::paper()
                .with_fault(spec)
                .unwrap()
                .with_integrity(IntegrityMode::VerifyAndHeal)
                .unwrap(),
        );
        for pool in [1, 2, 4] {
            let engine = InferenceEngine::new(machine, pool);
            let compiled = engine.compile(&net, &weights).unwrap();
            let run = engine.execute_batch(&compiled, &inputs).unwrap();
            assert_eq!(run.outputs, clean, "pool {pool}: healed outputs");
            assert_eq!(
                (engine.integrity_violations(), engine.rows_healed()),
                (3, 3),
                "pool {pool}: one poisoned row per element, each healed once"
            );
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Across random strided transposed-convolution geometries in which
        /// a tap class spans several phase chunks (so the engine bundles
        /// them into one dispatch), the engine at pools 1 and 2 matches the
        /// single-step reference bit for bit: outputs, busy cycles, counters
        /// and work units.
        #[test]
        fn prop_bundled_dispatches_match_single_step_reference(
            kernel in 3usize..6,
            stride in 2usize..4,
            padding in 0usize..3,
            output_padding in 0usize..3,
            width in 3usize..21,
            height in 2usize..5,
            in_channels in 1usize..3,
            out_channels in 1usize..4,
            seed in 0u64..1_000,
        ) {
            prop_assume!(output_padding < stride);
            let params = ConvParams::transposed_2d(kernel, stride, padding)
                .with_output_padding(0, output_padding, output_padding);
            let built = NetworkBuilder::new("prop-bundle", Shape::new_2d(in_channels, height, width))
                .tconv("up", out_channels, params, Activation::None)
                .build();
            // Degenerate geometry: nothing to compare.
            prop_assume!(built.is_ok());
            let net = built.unwrap();
            let weights = toy_weights(&net, seed);
            let layer = &net.layers()[0];
            let machine = GanaxMachine::paper();
            let planned = machine.plan_layer(layer, weights.weight(0)).unwrap();
            prop_assume!(planned.plan.dispatches.iter().any(|d| d.chunks.len() > 1));

            let input = Tensor::deterministic(net.input_shape(), seed + 7);
            let reference = machine
                .execute_layer_reference(layer, &input, weights.weight(0))
                .unwrap();
            for pool in [1, 2] {
                let engine = InferenceEngine::new(machine, pool);
                let compiled = engine.compile(&net, &weights).unwrap();
                let run = engine.execute(&compiled, &input).unwrap();
                prop_assert_eq!(&run.output, &reference.output, "pool {} output", pool);
                prop_assert_eq!(run.total_counts(), reference.counts, "pool {} counts", pool);
                prop_assert_eq!(run.total_busy_pe_cycles(), reference.busy_pe_cycles);
                prop_assert_eq!(run.total_work_units(), reference.work_units);
            }
        }

        /// A row's outputs and ABFT checksum triple are functions of the row
        /// alone — the invariant row-only healing rests on. In one fault
        /// epoch with input, weight, poison and stuck-lane faults armed, a
        /// shard of a random subset of a tconv layer's rows reproduces each
        /// of its rows' buffer slices (bit for bit, any NaN matching any NaN)
        /// and checksums from a shard of every row, for every batch element.
        #[test]
        fn prop_row_subsets_reproduce_their_full_shard_rows(
            kernel in 3usize..6,
            stride in 1usize..4,
            width in 3usize..12,
            height in 2usize..6,
            in_channels in 1usize..3,
            out_channels in 1usize..4,
            mask in 1u64..1 << 16,
            seed in 0u64..1_000,
        ) {
            let params = ConvParams::transposed_2d(kernel, stride, kernel / 2);
            let input = Shape::new_2d(in_channels, height, width);
            let built = NetworkBuilder::new("prop-subset", input)
                .tconv("up", out_channels, params, Activation::None)
                .build();
            prop_assume!(built.is_ok());
            let net = built.unwrap();
            let layer = Arc::new(net.layers()[0].clone());
            let weights = toy_weights(&net, seed);
            let planned =
                Arc::new(GanaxMachine::paper().plan_layer(&layer, weights.weight(0)).unwrap());
            let rows: Vec<usize> = (0..layer.output.height).collect();
            let subset: Vec<usize> =
                rows.iter().copied().filter(|oy| mask >> (oy % 16) & 1 == 1).collect();
            prop_assume!(!subset.is_empty());
            let kinds = FaultKind::INPUT_FLIP
                | FaultKind::WEIGHT_FLIP
                | FaultKind::NAN_POISON
                | FaultKind::STUCK_LANE;
            let injector =
                Arc::new(FaultInjector::new(FaultSpec::seeded(seed + 1, 100_000, kinds)));
            injector.begin_epoch();
            let inputs: Arc<Vec<Arc<Tensor>>> = Arc::new(
                (0..2)
                    .map(|k| Arc::new(Tensor::deterministic(layer.input, seed + 5 + k)))
                    .collect(),
            );
            let run = |rows: &[usize]| {
                let (reply, _replies) = channel();
                let task = ShardTask {
                    task_id: 0,
                    wave: 0,
                    layer: Arc::clone(&layer),
                    plan: Arc::clone(&planned),
                    layer_index: 0,
                    injector: Arc::clone(&injector),
                    inputs: Arc::clone(&inputs),
                    rows: Arc::new(rows.to_vec()),
                    verify: true,
                    reply,
                };
                let mut pe = ProcessingEngine::new(planned.pe_config);
                let mut buffer = Vec::new();
                let (_, _, _, checks) =
                    run_resident_shard(&task, &mut pe, &mut buffer).unwrap();
                (buffer, checks)
            };
            let (full, full_checks) = run(&rows);
            let (part, part_checks) = run(&subset);
            let bits = |v: f32| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() };
            let check_bits = |c: &RowChecksum| {
                [c.predicted, c.magnitude, c.observed]
                    .map(|v| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() })
            };
            let row_words = layer.output.channels * layer.output.width;
            let row_bits = |buffer: &[f32], k: usize| -> Vec<u32> {
                buffer[k * row_words..][..row_words].iter().map(|&v| bits(v)).collect()
            };
            for e in 0..inputs.len() {
                for (slot, &oy) in subset.iter().enumerate() {
                    let (i, j) = (e * rows.len() + oy, e * subset.len() + slot);
                    let (want, got) = (row_bits(&full, i), row_bits(&part, j));
                    prop_assert_eq!(got, want, "element {} row {} outputs", e, oy);
                    prop_assert_eq!(
                        check_bits(&part_checks[j]),
                        check_bits(&full_checks[i]),
                        "element {} row {} checksum", e, oy
                    );
                }
            }
        }
    }
}
