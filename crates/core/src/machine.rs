//! The cycle-level GANAX machine: executes 2-D layers on the decoupled
//! access-execute PE array and produces actual output feature maps.
//!
//! The machine is the functional-validation half of the reproduction: it drives
//! the `ganax-sim` PEs with real strided-index-generator configurations derived
//! from the reorganized dataflow, computes the layer's outputs, and is checked
//! against the `ganax-tensor` reference implementations. Whole-GAN performance
//! numbers come from the analytic [`GanaxModel`](crate::GanaxModel); the
//! machine is what justifies that model's per-pass assumptions.
//!
//! # Fast simulation path
//!
//! This module plans a layer; the [`InferenceEngine`](crate::InferenceEngine)
//! executes it. [`GanaxMachine::execute_layer`] and
//! [`GanaxMachine::execute_layer_threaded`] run one layer on a fresh engine
//! pool, the same resident-PE shard runner every network and serving request
//! uses. Three optimizations keep full-size Table I generator layers
//! simulatable in seconds while staying cycle- and counter-identical to the
//! single-step reference:
//!
//! * **a per-layer plan** hoists everything that the seed implementation
//!   recomputed per work unit — consequential vertical taps per output row,
//!   consequential column runs per output column, and one phase-major copy of
//!   the (flipped, for transposed convolutions) kernel rows that weight
//!   streams are gathered from — out of the inner loop, making the hot path
//!   allocation-free;
//! * **one closed-form dispatch shape**: every dispatch the engine issues is
//!   a run of virtual `repeat`+`mac` pairs over one replayed input stream,
//!   and [`ProcessingEngine::retire_block`] retires a whole block of rows of
//!   it in one call instead of one cycle at a time; everything else
//!   single-steps;
//! * **a multi-threaded PE-array scheduler** shards whole output rows across
//!   the pool's worker PEs in wide slices of the plan's phase-major row order
//!   (the Figure 5 output-row reorganization, see [`shard_for_position`]).
//!   Every row is a disjoint output slice, so the load balances across
//!   phases and outputs and counters are bit-identical for every pool size.
//!
//! [`GanaxMachine::execute_layer_reference`] preserves the seed
//! one-cycle-at-a-time serial path; property tests assert the engine matches
//! it bit for bit.
//!
//! Scope: 2-D convolution and transposed-convolution layers (the volumetric
//! 3D-GAN layers exercise the same per-axis machinery through the performance
//! model; the fast path makes 2-D layers cheap, while volumetric layers add no
//! functional coverage).

use std::fmt;

use ganax_dataflow::{LayerGeometry, OutputRowGroups};
use ganax_energy::EventCounts;
use ganax_isa::{AddrGenKind, ExecUop};
use ganax_models::{Layer, LayerOp, NetworkError};
use ganax_sim::{EmitFault, GeneratorConfig, LayerFaults, PeConfig, ProcessingEngine};
use ganax_tensor::{ConvKind, ConvParams, Shape, Tensor, ZeroInsertion};

use crate::config::{ConfigError, GanaxConfig, IntegrityMode};

/// Errors produced by the cycle-level machine.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The machine's [`GanaxConfig`] failed validation.
    Config {
        /// The underlying typed validation error.
        error: ConfigError,
    },
    /// The layer kind is not supported by the cycle-level machine.
    Unsupported {
        /// Description of the unsupported feature.
        detail: String,
    },
    /// The provided tensors do not match the layer description.
    ShapeMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// A PE failed to converge within the cycle budget.
    Timeout {
        /// The layer that timed out.
        layer: String,
    },
    /// The dispatcher overflowed a PE's µop FIFO.
    UopOverflow {
        /// The layer being dispatched.
        layer: String,
    },
    /// A worker PE panicked while executing a shard (an injected fault or a
    /// genuine bug); the shard's partial results were discarded.
    WorkerPanic {
        /// The layer whose shard was being executed.
        layer: String,
    },
    /// A layer produced a NaN or infinite output element — silent corruption
    /// (e.g. an injected operand bit flip) made detectable without goldens.
    NonFiniteOutput {
        /// The layer whose output is corrupt.
        layer: String,
        /// Flat index of the first non-finite element in the layer output.
        index: usize,
    },
    /// The engine's worker pool is unavailable (shut down or fully dead), so
    /// the shard could not be executed.
    PoolUnavailable {
        /// What the dispatcher observed.
        detail: String,
    },
    /// The ABFT checksum invariant `checksum(W)·checksum(x) ≈ checksum(y)`
    /// failed for one or more output-row slices and (under
    /// [`IntegrityMode::VerifyAndHeal`](crate::IntegrityMode::VerifyAndHeal))
    /// surgical re-execution could not repair them — the corruption is
    /// persistent, so a retry of the same request cannot succeed.
    IntegrityViolation {
        /// The layer whose checksums failed.
        layer: String,
        /// The offending output rows (sorted, deduplicated).
        rows: Vec<usize>,
    },
}

impl MachineError {
    /// Whether a retry of the same request can plausibly succeed: worker
    /// panics, non-finite outputs from transient corruption, PE timeouts and
    /// pool unavailability are transient (the serving layer retries them);
    /// configuration, support and shape errors are permanent. An
    /// [`MachineError::IntegrityViolation`] is also permanent: it only
    /// surfaces after verification already re-executed the offending rows
    /// in fresh fault epochs (or fail-fast verification was requested), so
    /// the corruption is persistent and the serve retry loop must not spin
    /// on it before the circuit breaker opens.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            MachineError::WorkerPanic { .. }
                | MachineError::NonFiniteOutput { .. }
                | MachineError::Timeout { .. }
                | MachineError::PoolUnavailable { .. }
        )
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Config { error } => write!(f, "invalid configuration: {error}"),
            MachineError::Unsupported { detail } => write!(f, "unsupported layer: {detail}"),
            MachineError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            MachineError::Timeout { layer } => write!(f, "layer `{layer}` did not converge"),
            MachineError::UopOverflow { layer } => {
                write!(f, "layer `{layer}` overflowed a PE µop FIFO")
            }
            MachineError::WorkerPanic { layer } => {
                write!(f, "a worker PE panicked while executing layer `{layer}`")
            }
            MachineError::NonFiniteOutput { layer, index } => write!(
                f,
                "layer `{layer}` produced a non-finite output at element {index}"
            ),
            MachineError::PoolUnavailable { detail } => {
                write!(f, "worker pool unavailable: {detail}")
            }
            MachineError::IntegrityViolation { layer, rows } => write!(
                f,
                "layer `{layer}` failed checksum verification on {} output row(s) {rows:?}",
                rows.len()
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// The result of executing a layer on the cycle-level machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRun {
    /// The computed output feature map (pre-activation).
    pub output: Tensor,
    /// Cycles in which PEs performed arithmetic (sums over all PEs).
    pub busy_pe_cycles: u64,
    /// Aggregated activity counts of every PE used.
    pub counts: EventCounts,
    /// Number of (output row, filter tap, channel) work units executed.
    pub work_units: u64,
}

/// The cycle-level GANAX machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GanaxMachine {
    config: GanaxConfig,
}

/// Per-output-column addressing of one consequential compute node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnRun {
    /// First input column of the run.
    pub(crate) input_start: usize,
    /// First kernel column of the run.
    pub(crate) kernel_start: usize,
    /// Kernel-column stride between consecutive taps.
    pub(crate) kernel_step: usize,
    /// Number of consequential taps.
    pub(crate) taps: usize,
}

/// A run of same-phase consequential output columns sharing a tap count —
/// the unit that fault sites ([`dispatch_ordinal_base`]) and ABFT checksum
/// folds are keyed by. Engine dispatches bundle several chunks
/// ([`Dispatch`]).
///
/// Phases are the paper's Figure 5 structure: transposed-convolution columns
/// with the same `ox mod stride` residue read the same number of consequential
/// taps, so grouping by residue yields long equal-repeat runs where grouping
/// consecutive columns would alternate tap counts every column.
#[derive(Debug, Clone)]
pub(crate) struct ColumnChunk {
    /// First output column of the chunk.
    pub(crate) ox_start: usize,
    /// Distance between consecutive chunk columns (the phase stride).
    pub(crate) col_step: usize,
    /// Columns in the chunk.
    pub(crate) cols: usize,
    /// Consequential taps of every column in the chunk.
    pub(crate) taps: usize,
    /// The largest output-channel group one dispatch of this chunk alone
    /// carries (see [`group_max`]); fault sites keep this grouping.
    pub(crate) group_max: usize,
    /// Index of the [`Dispatch`] that carries the chunk.
    pub(crate) dispatch: usize,
    /// The chunk's first column within its dispatch.
    pub(crate) dispatch_col: usize,
}

/// A row's equal-tap chunks bundled into one engine dispatch: one operand
/// stream of `cols × taps` words (the chunks' streams concatenated in
/// ascending chunk index), one `repeat`+`mac` µop pair per column and channel,
/// and one contiguous `[channel][column]` block of words in the engine's
/// dispatch-major row layout ([`LayerPlan::column_words`]).
#[derive(Debug, Clone)]
pub(crate) struct Dispatch {
    /// Consequential taps of every column.
    pub(crate) taps: usize,
    /// Columns across all carried chunks.
    pub(crate) cols: usize,
    /// The largest output-channel group one dispatch carries.
    pub(crate) group_max: usize,
    /// The carried chunks, ascending.
    pub(crate) chunks: Vec<usize>,
    /// First word of the dispatch's block in a dispatch-major row: channel
    /// `co`'s partial sums for the dispatch's columns start at `word + co ×
    /// cols`, so a channel group's retire lands in one contiguous run.
    pub(crate) word: usize,
    /// Per column, the first input column it reads.
    pub(crate) input_starts: Vec<usize>,
    /// Per column, the first word of its column run in a phase-major kernel
    /// row ([`LayerPlan::kernel`]); the run's `taps` words follow it.
    pub(crate) weight_starts: Vec<usize>,
}

/// Everything about a layer that the seed implementation recomputed per work
/// unit, hoisted out of the hot loop: consequential vertical taps per output
/// row, consequential columns grouped into equal-tap-count chunks and
/// dispatches, and one phase-major copy of the kernel rows (spatially flipped
/// for transposed convolutions) that each dispatch gathers its weight stream
/// from. Shared read-only by every worker PE.
pub(crate) struct LayerPlan {
    /// Per output row: the consequential `(ky, iy)` vertical taps.
    pub(crate) row_taps: Vec<Vec<(usize, usize)>>,
    /// Output rows in dispatch order: phase-major (from the Figure 5
    /// output-row reorganization) for transposed convolutions, natural order
    /// otherwise. Sharding round-robins over this order so every worker gets
    /// the same mix of shallow- and deep-phase rows.
    pub(crate) row_order: Vec<usize>,
    /// Consequential columns grouped into phase chunks.
    pub(crate) chunks: Vec<ColumnChunk>,
    /// Chunks bundled by tap count into engine dispatches.
    pub(crate) dispatches: Vec<Dispatch>,
    /// Per output column, where its words sit in an engine shard row laid
    /// out dispatch-major, `[dispatch][channel][column]`, with the
    /// inconsequential columns as one trailing `[channel][column]` block:
    /// channel `co` of column `ox` is word `base + co × stride` for
    /// `(base, stride) = column_words[ox]`. The map is a bijection from
    /// `(co, ox)` onto `0..output_channels × width`.
    pub(crate) column_words: Vec<(usize, usize)>,
    /// The layer's kernel rows (spatially flipped for transposed
    /// convolutions), laid out `[ky][ci][co][kx']`: exactly the raw weights'
    /// size, with a whole channel group's rows contiguous. Kernel columns are
    /// stored phase-major (`kx` sorted by `kx mod` the layer's column phase
    /// stride, ascending within a class), so every column run's `taps` words
    /// are one contiguous slice of its row, starting at the column's
    /// [`Dispatch::weight_starts`] entry. A dispatch's weight streams are
    /// gathered from these rows when it is loaded
    /// ([`load_dispatch_weights`]), the way GANAX's strided weight
    /// generators replay one filter row for every output of a phase.
    pub(crate) kernel: Vec<f32>,
    /// ABFT weight checksums, precomputed at plan time: per `(ky, ci, kx')`
    /// (index `(ky * input_channels + ci) * kernel_w + kx'`), the f64 sum of
    /// that kernel word over every output channel (`co` ascending — the
    /// Huang–Abraham column sum). Dotting a clean gathered input stream with
    /// the sums its columns index predicts the sum of the work unit's
    /// contributions across all output channels.
    pub(crate) column_sums: Vec<f64>,
    /// Companion magnitude sums: the same layout, holding the sum of
    /// *absolute* weights over the output channels. Dotted with `|x|` this
    /// upper-bounds the total product magnitude feeding a row — the scale
    /// the verification tolerance is derived from (a cancellation-proof
    /// bound, unlike `|checksum|`).
    pub(crate) abs_column_sums: Vec<f64>,
    /// The most consequential taps any column reads (the per-tap length of
    /// the longest accumulation chain, used by [`row_tolerance`]).
    pub(crate) max_taps: usize,
    /// Kernel height (rows per `(co, ci)` filter plane).
    pub(crate) kernel_h: usize,
    /// Kernel width (words per kernel row).
    pub(crate) kernel_w: usize,
    /// Input channels (stride of the `ky` index).
    pub(crate) input_channels: usize,
    /// Output channels (stride of the `ci` index).
    pub(crate) output_channels: usize,
}

impl LayerPlan {
    /// Groups same-phase consequential columns with equal tap counts into
    /// chunks sized so one chunk's gathered operand streams fit the PE
    /// scratchpads and its µop pairs fit the µop FIFO. Walking each
    /// `ox mod stride` residue class separately keeps tap counts constant
    /// along a chunk (the phase structure of the reorganized dataflow), so a
    /// whole output row dispatches as a handful of chunks.
    fn build_chunks(
        column_runs: &[Option<ColumnRun>],
        params: &ConvParams,
        pe: &PeConfig,
    ) -> Vec<ColumnChunk> {
        let col_step = phase_step(params);
        let mut chunks = Vec::new();
        for residue in 0..col_step {
            let mut ox = residue;
            while ox < column_runs.len() {
                let Some(run) = &column_runs[ox] else {
                    ox += col_step;
                    continue;
                };
                let taps = run.taps;
                let max_cols = max_dispatch_cols(pe, taps);
                let mut cols = 1;
                while cols < max_cols
                    && column_runs
                        .get(ox + cols * col_step)
                        .and_then(|r| r.as_ref())
                        .is_some_and(|r| r.taps == taps)
                {
                    cols += 1;
                }
                chunks.push(ColumnChunk {
                    ox_start: ox,
                    col_step,
                    cols,
                    taps,
                    group_max: group_max(pe, cols, taps),
                    dispatch: 0,
                    dispatch_col: 0,
                });
                ox += cols * col_step;
            }
        }
        chunks
    }

    /// Bundles the chunks into dispatches: walking chunks in ascending index,
    /// each joins the open dispatch of its tap count while the combined
    /// columns stay within the bounds [`LayerPlan::build_chunks`] applies,
    /// and opens a new one otherwise. Records each chunk's dispatch and
    /// offset, and lays a row of `channels` output channels out
    /// dispatch-major (the returned [`LayerPlan::column_words`]).
    /// `kernel_pos` maps a kernel column to its phase-major position.
    fn bundle_chunks(
        chunks: &mut [ColumnChunk],
        column_runs: &[Option<ColumnRun>],
        kernel_pos: &[usize],
        channels: usize,
        pe: &PeConfig,
    ) -> (Vec<Dispatch>, Vec<(usize, usize)>) {
        let mut dispatches: Vec<Dispatch> = Vec::new();
        for (idx, chunk) in chunks.iter_mut().enumerate() {
            let open = dispatches.iter().rposition(|d| d.taps == chunk.taps);
            let d = match open {
                Some(d) if dispatches[d].cols + chunk.cols <= max_dispatch_cols(pe, chunk.taps) => {
                    d
                }
                _ => {
                    dispatches.push(Dispatch {
                        taps: chunk.taps,
                        cols: 0,
                        group_max: 0,
                        chunks: Vec::new(),
                        word: 0,
                        input_starts: Vec::new(),
                        weight_starts: Vec::new(),
                    });
                    dispatches.len() - 1
                }
            };
            let dispatch = &mut dispatches[d];
            chunk.dispatch = d;
            chunk.dispatch_col = dispatch.cols;
            dispatch.cols += chunk.cols;
            dispatch.chunks.push(idx);
            for c in 0..chunk.cols {
                let run = column_runs[chunk.ox_start + c * chunk.col_step]
                    .as_ref()
                    .expect("chunks cover consequential columns");
                dispatch.input_starts.push(run.input_start);
                dispatch.weight_starts.push(kernel_pos[run.kernel_start]);
            }
        }
        let mut column_words = vec![None; column_runs.len()];
        let mut next = 0;
        for dispatch in &mut dispatches {
            dispatch.group_max = group_max(pe, dispatch.cols, dispatch.taps);
            dispatch.word = next;
            for &idx in &dispatch.chunks {
                let chunk = &chunks[idx];
                for c in 0..chunk.cols {
                    column_words[chunk.ox_start + c * chunk.col_step] =
                        Some((next + chunk.dispatch_col + c, dispatch.cols));
                }
            }
            next += channels * dispatch.cols;
        }
        let idle = column_words.iter().filter(|w| w.is_none()).count();
        let mut trailing = next..;
        let column_words = column_words
            .into_iter()
            .map(|w| w.unwrap_or_else(|| (trailing.next().unwrap(), idle)))
            .collect();
        (dispatches, column_words)
    }

    fn build(
        layer: &Layer,
        params: &ConvParams,
        geometry: &LayerGeometry,
        weights: &Tensor,
        pe: &PeConfig,
    ) -> Self {
        let row_taps = (0..layer.output.height)
            .map(|oy| {
                let ky_taps: Vec<usize> = match &geometry.height_phases {
                    Some(phases) if layer.is_tconv() => phases.taps_at(oy),
                    _ => (0..params.kernel.1)
                        .filter(|ky| conv_input_row(oy, *ky, params, layer.input.height).is_some())
                        .collect(),
                };
                ky_taps
                    .into_iter()
                    .filter_map(|ky| {
                        input_row_for(oy, ky, params, layer.input.height).map(|iy| (ky, iy))
                    })
                    .collect()
            })
            .collect();
        let row_order: Vec<usize> = match &geometry.height_phases {
            Some(phases) if layer.is_tconv() => {
                OutputRowGroups::new(phases, layer.output.height).phase_major_rows()
            }
            _ => (0..layer.output.height).collect(),
        };
        let column_runs: Vec<Option<ColumnRun>> = (0..layer.output.width)
            .map(|ox| column_run(ox, params, layer.input.width))
            .collect();
        let (kernel_h, kernel_w) = (params.kernel.1, params.kernel.2);
        let kernel_pos = phase_major_positions(kernel_w, phase_step(params));
        let mut chunks = Self::build_chunks(&column_runs, params, pe);
        let (dispatches, column_words) = Self::bundle_chunks(
            &mut chunks,
            &column_runs,
            &kernel_pos,
            layer.output.channels,
            pe,
        );
        let max_taps = chunks.iter().map(|c| c.taps).max().unwrap_or(0);

        // The machine gathers over the zero-inserted domain, so for
        // transposed convolutions the kernel is spatially flipped (the
        // classical adjoint relationship — see
        // `ganax_tensor::tconv_via_zero_insertion`). The raw filter is
        // `[co][ci][kz][ky][kx]`; 2-D layers read its `kz = 0` plane.
        let (co_count, ci_count) = (layer.output.channels, layer.input.channels);
        let flip = layer.is_tconv();
        let raw = weights.data();
        let plane = params.kernel.0 * kernel_h;
        let mut kernel = vec![0.0f32; co_count * ci_count * kernel_h * kernel_w];
        for co in 0..co_count {
            for ci in 0..ci_count {
                for ky in 0..kernel_h {
                    let src_ky = if flip { kernel_h - 1 - ky } else { ky };
                    let src =
                        &raw[((co * ci_count + ci) * plane + src_ky) * kernel_w..][..kernel_w];
                    let dst = &mut kernel[((ky * ci_count + ci) * co_count + co) * kernel_w..]
                        [..kernel_w];
                    for (kx, &w) in src.iter().enumerate() {
                        let kx = if flip { kernel_w - 1 - kx } else { kx };
                        dst[kernel_pos[kx]] = w;
                    }
                }
            }
        }
        // The ABFT column sums: per `(ky, ci, kx')`, the f64 sum of the
        // kernel word over every output channel (`co` ascending), plus the
        // absolute-value companion that scales the verification tolerance.
        // Built unconditionally, so a plan is valid under every
        // `IntegrityMode`.
        let mut column_sums = vec![0.0f64; kernel_h * ci_count * kernel_w];
        let mut abs_column_sums = vec![0.0f64; column_sums.len()];
        let sums = column_sums
            .chunks_exact_mut(kernel_w)
            .zip(abs_column_sums.chunks_exact_mut(kernel_w));
        for ((sum, abs), group) in sums.zip(kernel.chunks_exact(co_count * kernel_w)) {
            for row in group.chunks_exact(kernel_w) {
                for ((sum, abs), &w) in sum.iter_mut().zip(abs.iter_mut()).zip(row) {
                    let w = f64::from(w);
                    *sum += w;
                    *abs += w.abs();
                }
            }
        }

        LayerPlan {
            row_taps,
            row_order,
            chunks,
            dispatches,
            column_words,
            kernel,
            column_sums,
            abs_column_sums,
            max_taps,
            kernel_h,
            kernel_w,
            input_channels: ci_count,
            output_channels: co_count,
        }
    }

    /// Heap bytes the plan holds (allocated capacity of every buffer).
    pub(crate) fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let dispatches: usize = self
            .dispatches
            .iter()
            .map(|d| bytes(&d.chunks) + bytes(&d.input_starts) + bytes(&d.weight_starts))
            .sum();
        bytes(&self.row_taps)
            + self.row_taps.iter().map(bytes).sum::<usize>()
            + bytes(&self.row_order)
            + bytes(&self.chunks)
            + bytes(&self.dispatches)
            + dispatches
            + bytes(&self.column_words)
            + bytes(&self.kernel)
            + bytes(&self.column_sums)
            + bytes(&self.abs_column_sums)
    }
}

/// The column phase stride of a layer: a transposed convolution's column
/// stride (output columns of one residue read equally many taps, and a
/// column run's kernel columns step by it), 1 for a conventional one.
fn phase_step(params: &ConvParams) -> usize {
    match params.kind {
        ConvKind::Transposed => params.stride.2,
        ConvKind::Conventional => 1,
    }
}

/// Per kernel column `kx`, its position in a phase-major row: columns sorted
/// by `kx mod step`, ascending within each class. A column run
/// (`kernel_start + j · step`, `j < taps`) then occupies `taps` consecutive
/// positions.
fn phase_major_positions(kernel_w: usize, step: usize) -> Vec<usize> {
    let mut positions = vec![0; kernel_w];
    let order = (0..step).flat_map(|residue| (residue..kernel_w).step_by(step));
    for (pos, kx) in order.enumerate() {
        positions[kx] = pos;
    }
    positions
}

/// The ABFT checksum state of one output row, accumulated by the worker that
/// executed it and verified at retire time. Every field is accumulated in
/// `f64` in a fixed order that depends only on the layer plan — `ky`
/// ascending, then `ci`, then chunk, then stream element for the predictions;
/// channel-major row order for the observation — so the triple (and hence
/// the verdict) is bit-identical at every pool size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RowChecksum {
    /// `checksum(W) · checksum(x)`: the f64 dot of every *clean* gathered
    /// input stream with the plan's column-sum weight checksums.
    pub(crate) predicted: f64,
    /// `|W|-checksum · |x|`: an upper bound on the total product magnitude
    /// feeding the row — the scale of legitimate f32 rounding noise.
    pub(crate) magnitude: f64,
    /// `checksum(y)`: the f64 sum of the row's produced f32 outputs over
    /// every output channel and column.
    pub(crate) observed: f64,
}

/// How many times `VerifyAndHeal` re-executes a layer's flagged rows (each
/// round in a fresh fault epoch) before a still-failing checksum surfaces as
/// [`MachineError::IntegrityViolation`]. Two rounds separate transient
/// corruption (healed by round one) from persistent faults (which reproduce
/// identically every epoch) without spinning.
pub(crate) const MAX_HEAL_ROUNDS: u32 = 2;

/// Safety factor of the verification tolerance: how many times the expected
/// rounding-residual scale (`√chain · ε · magnitude` — the random-walk
/// growth of f32 accumulation error over random operands) a checksum
/// residual may reach before it is called a violation. Tuned empirically:
/// clean full-size and reduced DCGAN/ArtGAN/MAGAN generators on continuous
/// deterministic operands peak at 1.6e-2 of the unit scale (long chains stay
/// under 1.2e-3), so 2.0 leaves ≥ 125× headroom against false positives — a
/// false positive would surface as a *persistent* violation on clean data —
/// while staying hundreds of times tighter than a worst-case-linear bound
/// (`chain · ε`), which would let most seeded bit flips escape.
const INTEGRITY_SAFETY: f64 = 2.0;

/// The deterministic, geometry-scaled tolerance a row's checksum residual is
/// compared against: proportional to the square root of the f32 accumulation
/// chain feeding the row's outputs and to the accumulated product magnitude.
/// A pure function of the plan and the (bit-identical) magnitude checksum,
/// so every pool size reaches the same verdict.
pub(crate) fn row_tolerance(plan: &LayerPlan, oy: usize, magnitude: f64) -> f64 {
    let chain =
        plan.row_taps[oy].len() * plan.input_channels * plan.max_taps + plan.output_channels;
    INTEGRITY_SAFETY * f64::from(f32::EPSILON) * (chain as f64).sqrt() * magnitude + 1e-30
}

/// Whether one row's checksum triple satisfies the ABFT invariant. A NaN
/// residual (poisoned output) fails the comparison and is flagged.
pub(crate) fn row_checksum_ok(plan: &LayerPlan, oy: usize, check: &RowChecksum) -> bool {
    let residual = (check.observed - check.predicted).abs();
    residual <= row_tolerance(plan, oy, check.magnitude)
}

/// Rows [`fold_input_checksums`] folds side by side.
const CHECKSUM_LANE: usize = 4;

/// Folds tap `(ky, ci)`'s *clean* operand streams — read straight from the
/// input rows, so no scheduled corruption can reach them — into the checksum
/// accumulators of every row that reads the tap: for each `(index,
/// input_row)` in `rows`, `checks[index]`'s predicted output checksum gains
/// `Σ checksum(W)[el] · x[el]` and its magnitude bound gains
/// `Σ |W|-checksum[el] · |x[el]|`, element by element in chunk → column →
/// tap order; each column's elements index the plan's per-`kx'` sums from
/// the column's weight start.
///
/// Rows are folded [`CHECKSUM_LANE`] at a time with the chunk → column → tap
/// walk outside the rows, so each `(checksum(W), |W|-checksum)` pair is
/// loaded once per lane and the lane's independent add chains overlap. Each
/// row still sees exactly the f64 operations, in the order, of folding it
/// alone; with the shard runner folding taps in `ky → ci` order, whatever
/// order it dispatches in, every triple is the same at every pool size.
pub(crate) fn fold_input_checksums(
    plan: &LayerPlan,
    ky: usize,
    ci: usize,
    rows: &[(usize, &[f32])],
    checks: &mut [RowChecksum],
) {
    let base = (ky * plan.input_channels + ci) * plan.kernel_w;
    let csum = &plan.column_sums[base..base + plan.kernel_w];
    let abs = &plan.abs_column_sums[base..base + plan.kernel_w];
    let (lanes, rest) = rows.as_chunks::<CHECKSUM_LANE>();
    for lane in lanes {
        fold_checksum_lane(plan, csum, abs, lane, checks);
    }
    for row in rest {
        fold_checksum_lane(plan, csum, abs, std::array::from_ref(row), checks);
    }
}

/// One lane of [`fold_input_checksums`]: `N` rows' accumulators held in
/// registers across the whole chunk → column → tap walk.
#[inline(always)]
fn fold_checksum_lane<const N: usize>(
    plan: &LayerPlan,
    csum: &[f64],
    abs: &[f64],
    lane: &[(usize, &[f32]); N],
    checks: &mut [RowChecksum],
) {
    let mut predicted = lane.map(|(i, _)| checks[i].predicted);
    let mut magnitude = lane.map(|(i, _)| checks[i].magnitude);
    for chunk in &plan.chunks {
        let dispatch = &plan.dispatches[chunk.dispatch];
        let columns = chunk.dispatch_col..chunk.dispatch_col + chunk.cols;
        let starts = dispatch.input_starts[columns.clone()]
            .iter()
            .zip(&dispatch.weight_starts[columns]);
        for (&start, &w0) in starts {
            let clean = lane.map(|(_, row)| &row[start..start + chunk.taps]);
            let sums = csum[w0..w0 + chunk.taps]
                .iter()
                .zip(&abs[w0..w0 + chunk.taps]);
            for (t, (&w, &w_abs)) in sums.enumerate() {
                for r in 0..N {
                    let x = f64::from(clean[r][t]);
                    predicted[r] += w * x;
                    magnitude[r] += w_abs * x.abs();
                }
            }
        }
    }
    for (r, &(i, _)) in lane.iter().enumerate() {
        checks[i].predicted = predicted[r];
        checks[i].magnitude = magnitude[r];
    }
}

/// A validated layer together with its hoisted execution plan and the PE
/// sizing the plan was built for — one layer of a compiled network.
pub(crate) struct PlannedLayer {
    /// The PE sizing that bounds the plan's chunks and streams.
    pub(crate) pe_config: PeConfig,
    /// The hoisted per-layer plan.
    pub(crate) plan: LayerPlan,
}

/// The shard owning the output row at phase-major position `pos` in the
/// engine's worker pool.
///
/// Rows are dealt in contiguous phase-major *blocks* of roughly
/// `height / (4 × shards)` rows, striped round-robin over the shards: each
/// worker still samples every region of the phase-major order (so the
/// shallow/deep phase mix stays balanced), but hands off work in wide slices
/// instead of row-by-row interleaving. Small heights degrade to the old
/// per-row round-robin (`block == 1`).
///
/// Row-to-shard assignment cannot affect results: each row's computation,
/// fault sites ([`dispatch_ordinal_base`] and the row coordinate) and counter
/// contributions are functions of the row alone, and the reduction sums
/// disjoint per-row terms in a fixed order.
pub(crate) fn shard_for_position(pos: usize, height: usize, shards: usize) -> usize {
    let block = height.div_ceil(shards * 4).max(1);
    (pos / block) % shards
}

/// The base dispatch ordinal of one `(ky, ci, chunk)` work unit — a pure
/// function of the layer plan, identical at every pool size and however
/// chunks bundle into dispatches (the property fault determinism rests on).
/// Channel groups within the chunk add their starting channel `g0`.
pub(crate) fn dispatch_ordinal_base(
    plan: &LayerPlan,
    layer: &Layer,
    ky: usize,
    ci: usize,
    chunk_idx: usize,
) -> u64 {
    let ci_count = layer.input.channels as u64;
    let co_count = layer.output.channels as u64;
    ((ky as u64 * ci_count + ci as u64) * plan.chunks.len() as u64 + chunk_idx as u64) * co_count
}

/// Cycle budget of one per-column `mac` run: a stall-free run retires in
/// `taps` (× the single generator repetition) cycles plus one dispatch cycle,
/// so anything beyond a small fixed slack means the PE wedged. Deriving the
/// budget from the work keeps huge layers from spuriously timing out and
/// makes genuinely wedged small runs fail fast.
fn column_cycle_budget(taps: usize) -> u64 {
    2 * taps as u64 + 16
}

/// The most columns of `taps` taps one dispatch may carry: its µop pairs
/// must fit the µop FIFO and its gathered operand streams the input and
/// weight scratchpads. Bounds chunks and the dispatches bundling them alike.
fn max_dispatch_cols(pe: &PeConfig, taps: usize) -> usize {
    (pe.uop_fifo_entries / 2)
        .min(pe.input_words / taps)
        .min(pe.weight_words / taps)
        .max(1)
}

/// The largest output-channel group one dispatch of `cols` columns of
/// `taps` taps can carry: its µop pairs must fit the µop FIFO, its
/// concatenated weight streams the weight scratchpad, and its output words
/// the output scratchpad.
fn group_max(pe: &PeConfig, cols: usize, taps: usize) -> usize {
    (pe.uop_fifo_entries / 2 / cols)
        .min(pe.weight_words / (cols * taps))
        .min(pe.output_words / cols)
        .max(1)
}

impl GanaxMachine {
    /// Creates a machine for a configuration.
    pub fn new(config: GanaxConfig) -> Self {
        GanaxMachine { config }
    }

    /// Creates a machine for the paper's configuration.
    pub fn paper() -> Self {
        Self::new(GanaxConfig::paper())
    }

    /// The configuration this machine executes under.
    pub fn config(&self) -> &GanaxConfig {
        &self.config
    }

    /// Overrides the ABFT computation-integrity policy in place, leaving the
    /// rest of the configuration (and everything derived from it except the
    /// fingerprint) untouched. Used by the serving layer to apply a
    /// [`ServeConfig`](crate::serve::ServeConfig) integrity override before
    /// any artifact is compiled.
    pub(crate) fn set_integrity(&mut self, integrity: IntegrityMode) {
        self.config.integrity = integrity;
    }

    /// Executes one 2-D convolution or transposed-convolution layer, returning
    /// the computed output and the activity counters.
    ///
    /// Runs [`GanaxMachine::execute_layer_threaded`] on a worker count chosen
    /// from [`std::thread::available_parallelism`]; results are bit-identical
    /// to [`GanaxMachine::execute_layer_reference`] and to any other thread
    /// count.
    ///
    /// # Errors
    /// Returns [`MachineError::Unsupported`] (at plan time) for projections,
    /// volumetric layers and transposed convolutions whose padding is not
    /// below the kernel on some axis (they crop their output),
    /// [`MachineError::ShapeMismatch`] when the tensors do not match
    /// the layer, and [`MachineError::Timeout`] if a PE fails to drain. An
    /// injected worker panic is recovered by respawn and requeue; only a
    /// persistent one surfaces, as [`MachineError::WorkerPanic`].
    pub fn execute_layer(
        &self,
        layer: &Layer,
        input: &Tensor,
        weights: &Tensor,
    ) -> Result<MachineRun, MachineError> {
        let available = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        // Shards are whole output rows (`oy` slices); threads only pay off
        // when each worker gets a meaningful number of them.
        let threads = available.min(layer.output.height / 4).max(1);
        self.execute_layer_threaded(layer, input, weights, threads)
    }

    /// Executes one layer on a fresh [`InferenceEngine`](crate::InferenceEngine)
    /// pool of `threads` workers (clamped to the layer's output rows): the
    /// layer is planned, then run once through the engine's resident-PE
    /// shard runner as network layer 0, with ABFT verification and healing
    /// when the configuration asks for it. The output is the raw accumulated
    /// feature map: no bias, no activation, no non-finite guard.
    ///
    /// Shards are whole output rows (all output channels), so the output
    /// feature map, cycle counts and [`EventCounts`] are bit-identical for
    /// every `threads` value. Each call opens one fault epoch on a fresh
    /// injector, so a seeded [`FaultSpec`](ganax_sim::FaultSpec) corrupts
    /// identically on every call and at every thread count.
    ///
    /// # Errors
    /// As [`GanaxMachine::execute_layer`].
    pub fn execute_layer_threaded(
        &self,
        layer: &Layer,
        input: &Tensor,
        weights: &Tensor,
        threads: usize,
    ) -> Result<MachineRun, MachineError> {
        let threads = threads.clamp(1, layer.output.height.max(1));
        crate::InferenceEngine::new(*self, threads).execute_layer(layer, input, weights)
    }

    /// Validates a layer and builds everything the hot path needs to execute
    /// it: the hoisted [`LayerPlan`] and the PE sizing the plan was built for.
    ///
    /// Planning is the expensive per-layer prologue (tap analysis, chunking,
    /// weight gathering); a [`CompiledNetwork`](crate::CompiledNetwork) runs
    /// it once per layer so warm requests never plan.
    pub(crate) fn plan_layer(
        &self,
        layer: &Layer,
        weights: &Tensor,
    ) -> Result<PlannedLayer, MachineError> {
        self.config
            .validate()
            .map_err(|error| MachineError::Config { error })?;
        let (params, geometry) = self.validate_weights(layer, weights)?;
        // One PE sizing governs both the plan (chunk/stream limits) and the
        // worker PEs, so chunks can never outgrow the engines executing them.
        // The sizing comes from the config (`GanaxConfig::sim_pe`; the
        // deep simulation default unless overridden).
        let pe_config = self.config.sim_pe;
        let plan = LayerPlan::build(layer, &params, &geometry, weights, &pe_config);
        Ok(PlannedLayer { pe_config, plan })
    }

    /// Executes one layer on the seed one-cycle-at-a-time serial path: one PE,
    /// [`ProcessingEngine::run_until_idle`] (no bursts), and per-work-unit
    /// row/weight gathering. Kept as the measured baseline the engine is
    /// property-tested against — and benchmarked against in
    /// `BENCH_machine.json`.
    ///
    /// # Errors
    /// As [`GanaxMachine::execute_layer`].
    pub fn execute_layer_reference(
        &self,
        layer: &Layer,
        input: &Tensor,
        weights: &Tensor,
    ) -> Result<MachineRun, MachineError> {
        self.config
            .validate()
            .map_err(|error| MachineError::Config { error })?;
        let (params, geometry) = self.validate(layer, input, weights)?;
        let mut output = Tensor::zeros(layer.output);
        let mut counts = EventCounts::default();
        let mut busy = 0u64;
        let mut work_units = 0u64;

        // One PE is reused per work unit; the mapping of units to physical PEs
        // round-robins across the array, which only matters for the activity
        // counters (each unit's traffic is identical wherever it runs).
        let mut pe = ProcessingEngine::new(self.config.sim_pe);

        for co in 0..layer.output.channels {
            for oy in 0..layer.output.height {
                // Consequential vertical taps for this output row.
                let ky_taps: Vec<usize> = match &geometry.height_phases {
                    Some(phases) if layer.is_tconv() => phases.taps_at(oy),
                    _ => (0..params.kernel.1)
                        .filter(|ky| conv_input_row(oy, *ky, &params, layer.input.height).is_some())
                        .collect(),
                };
                for &ky in &ky_taps {
                    let Some(iy) = input_row_for(oy, ky, &params, layer.input.height) else {
                        continue;
                    };
                    for ci in 0..layer.input.channels {
                        work_units += 1;
                        let row: Vec<f32> = (0..layer.input.width)
                            .map(|ix| input.at(ci, 0, iy, ix))
                            .collect();
                        let weight_row: Vec<f32> = (0..params.kernel.2)
                            .map(|kx| {
                                if layer.is_tconv() {
                                    weights.at_filter(
                                        co,
                                        ci,
                                        0,
                                        params.kernel.1 - 1 - ky,
                                        params.kernel.2 - 1 - kx,
                                    )
                                } else {
                                    weights.at_filter(co, ci, 0, ky, kx)
                                }
                            })
                            .collect();
                        let (unit_busy, unit_counts) = run_unit_single_step(
                            &mut pe,
                            &row,
                            &weight_row,
                            &params,
                            layer,
                            |ox, value| {
                                output.add_at(co, 0, oy, ox, value);
                            },
                        )?;
                        busy += unit_busy;
                        counts += unit_counts;
                        counts.inter_pe_transfers += layer.output.width as u64;
                    }
                }
            }
        }

        Ok(MachineRun {
            output,
            busy_pe_cycles: busy,
            counts,
            work_units,
        })
    }

    /// Checks layer support and tensor shapes, returning the convolution
    /// parameters.
    fn validate(
        &self,
        layer: &Layer,
        input: &Tensor,
        weights: &Tensor,
    ) -> Result<(ConvParams, LayerGeometry), MachineError> {
        let validated = self.validate_weights(layer, weights)?;
        if input.shape() != layer.input {
            return Err(MachineError::ShapeMismatch {
                detail: format!("input {} != layer input {}", input.shape(), layer.input),
            });
        }
        Ok(validated)
    }

    /// Checks layer support and the weight tensor's shape (everything the
    /// planning stage needs — the input tensor is checked at execution time).
    fn validate_weights(
        &self,
        layer: &Layer,
        weights: &Tensor,
    ) -> Result<(ConvParams, LayerGeometry), MachineError> {
        let params = match &layer.op {
            LayerOp::Conv(p) | LayerOp::TConv(p) => *p,
            LayerOp::Projection => {
                return Err(MachineError::Unsupported {
                    detail: "projection layers are executed by the host, not the PE array".into(),
                })
            }
        };
        if layer.input.depth != 1 {
            return Err(MachineError::Unsupported {
                detail: "the cycle-level machine covers 2-D layers".into(),
            });
        }
        let geometry = LayerGeometry::for_layer(layer).map_err(geometry_unsupported)?;
        let expected_weights = Shape::filter(
            layer.output.channels,
            layer.input.channels,
            params.kernel.0,
            params.kernel.1,
            params.kernel.2,
        );
        if weights.shape() != expected_weights {
            return Err(MachineError::ShapeMismatch {
                detail: format!(
                    "weights {} != expected {}",
                    weights.shape(),
                    expected_weights
                ),
            });
        }
        Ok((params, geometry))
    }
}

/// Gathers operand streams into `dst`, one per `row_len`-word row of `rows`,
/// back to back: each stream holds `taps` words from every column's start in
/// its row, one column after another. Input streams gather from one input row
/// (starts: [`Dispatch::input_starts`]); a channel group's weight streams
/// gather from its contiguous phase-major kernel rows (starts:
/// [`Dispatch::weight_starts`]). Like the PE's canonical retire, the copy is
/// monomorphised on the tap counts the zoo's plans produce, with one generic
/// instance for every other count.
pub(crate) fn gather_streams(
    taps: usize,
    starts: &[usize],
    rows: &[f32],
    row_len: usize,
    dst: &mut [f32],
) {
    match taps {
        1 => gather_columns::<1>(starts, rows, row_len, dst),
        2 => gather_columns::<2>(starts, rows, row_len, dst),
        3 => gather_columns::<3>(starts, rows, row_len, dst),
        taps => {
            let streams = dst.chunks_exact_mut(starts.len() * taps);
            for (row, stream) in rows.chunks_exact(row_len).zip(streams) {
                for (&start, slot) in starts.iter().zip(stream.chunks_exact_mut(taps)) {
                    slot.copy_from_slice(&row[start..start + taps]);
                }
            }
        }
    }
}

/// [`gather_streams`] for a compile-time tap count `R`. One row walks its
/// columns; several rows (a channel group's kernel rows, a few words each)
/// walk each column down the rows instead, so the inner loop is a single
/// strided `R`-word copy rather than a short per-row column walk.
fn gather_columns<const R: usize>(starts: &[usize], rows: &[f32], row_len: usize, dst: &mut [f32]) {
    let stream = starts.len() * R;
    if rows.len() == row_len {
        let (slots, _) = dst[..stream].as_chunks_mut::<R>();
        for (&start, slot) in starts.iter().zip(slots) {
            slot.copy_from_slice(&rows[start..start + R]);
        }
        return;
    }
    for (c, &start) in starts.iter().enumerate() {
        let streams = dst.chunks_exact_mut(stream);
        for (row, slot) in rows.chunks_exact(row_len).zip(streams) {
            slot[c * R..c * R + R].copy_from_slice(&row[start..start + R]);
        }
    }
}

/// Adds a run of produced partial sums into the output words they land on,
/// `out[i] += produced[i]`. An injected emit fault drops the contribution
/// (stuck lane, dropped µop) or adds it twice (duplicated µop).
pub(crate) fn add_slots(out: &mut [f32], produced: &[f32], fault: Option<EmitFault>) {
    match fault {
        Some(EmitFault::StuckLane | EmitFault::DroppedUop) => {}
        Some(EmitFault::DuplicatedUop) => {
            for (out, &value) in out.iter_mut().zip(produced) {
                *out += value;
                *out += value;
            }
        }
        None => {
            for (out, &value) in out.iter_mut().zip(produced) {
                *out += value;
            }
        }
    }
}

/// Stages the weight streams of one `(dispatch, ci, ky, channel group)` into
/// the weight scratchpad, returning the words loaded. The streams are
/// gathered at load time from the group's contiguous phase-major kernel rows
/// ([`LayerPlan::kernel`]) with the gather the input streams use: per
/// channel, `taps` contiguous words from each column's
/// [`weight_starts`](Dispatch::weight_starts) entry, one column after
/// another. `ordinals[i]` is the [`dispatch_ordinal_base`] of the dispatch's
/// `i`-th chunk.
///
/// Scheduled corruption keeps each chunk's own fault sites: channel `co`'s
/// piece of chunk `x` is corrupted at `ordinals[i] + g0`, element
/// `(co - g0) × piece + e`, where `g0` starts the channel group that chunk
/// `x` alone would dispatch `co` in (a multiple of its `group_max`) — so
/// bundling chunks into dispatches never moves a weight-fault site. The
/// dispatch's channels that share a `g0` hold one contiguous range of that
/// chunk's sites, decided as one run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn load_dispatch_weights(
    pe: &mut ProcessingEngine,
    plan: &LayerPlan,
    d: usize,
    group: usize,
    co0: usize,
    ci: usize,
    ky: usize,
    faults: Option<(&LayerFaults<'_>, &[u64])>,
) -> u64 {
    let dispatch = &plan.dispatches[d];
    let stream = dispatch.taps * dispatch.cols;
    let kw = plan.kernel_w;
    let first = (ky * plan.input_channels + ci) * plan.output_channels + co0;
    let rows = &plan.kernel[first * kw..][..group * kw];
    pe.load_weights_with(group * stream, |buf| {
        gather_streams(dispatch.taps, &dispatch.weight_starts, rows, kw, buf);
        let Some((faults, ordinals)) = faults else {
            return;
        };
        for (&idx, &ordinal) in dispatch.chunks.iter().zip(ordinals) {
            let chunk = &plan.chunks[idx];
            let piece = chunk.taps * chunk.cols;
            let at = chunk.dispatch_col * chunk.taps;
            let mut co = co0;
            while co < co0 + group {
                let g0 = co - co % chunk.group_max;
                let end = (g0 + chunk.group_max).min(co0 + group);
                faults.corrupt_weights(
                    ordinal + g0 as u64,
                    (co - g0) * piece,
                    (end - co) * piece,
                    piece,
                    stream,
                    &mut buf[(co - co0) * stream + at..],
                );
                co = end;
            }
        }
    });
    (group * stream) as u64
}

/// Configures the index generators for one `group × cols` dispatch and
/// enqueues its µop pairs: the input generator replays the shared
/// `cols × taps` stream at word 0 once per channel, the weight generator
/// walks the concatenated per-channel streams, and the output generator
/// hands each program its own word. The pairs are pushed virtually
/// ([`ProcessingEngine::try_push_mac_pairs`]), so the µop FIFO records a
/// count instead of materializing `2 × cols × group` entries. The engine
/// stages a whole block of rows' streams back to back from word 0 and
/// retires this dispatch as the block's first row in one
/// [`ProcessingEngine::retire_block`], which moves the input generator's
/// constant-offset register from stream to stream.
///
/// # Errors
/// [`MachineError::UopOverflow`] when the µop FIFO cannot hold the pairs.
pub(crate) fn dispatch_group(
    pe: &mut ProcessingEngine,
    taps: usize,
    cols: usize,
    group: usize,
    layer: &Layer,
) -> Result<(), MachineError> {
    let stream = taps * cols;
    pe.configure_linear(AddrGenKind::Input, 0, 1, stream as u16, group as u16);
    pe.configure_linear(AddrGenKind::Weight, 0, 1, (group * stream) as u16, 1);
    pe.configure_linear(AddrGenKind::Output, 0, 1, (group * cols) as u16, 1);
    pe.start_all();
    pe.set_repeat(taps as u16);
    pe.try_push_mac_pairs(cols * group)
        .map_err(|_| MachineError::UopOverflow {
            layer: layer.name.clone(),
        })
}

/// The seed single-step work-unit body, preserved as the reference
/// implementation (and the benchmark baseline). The output scratchpad is not
/// cleared between units: each column program writes its word before it is
/// read back.
fn run_unit_single_step(
    pe: &mut ProcessingEngine,
    input_row: &[f32],
    weight_row: &[f32],
    params: &ConvParams,
    layer: &Layer,
    mut emit: impl FnMut(usize, f32),
) -> Result<(u64, EventCounts), MachineError> {
    pe.load_input(input_row);
    pe.load_weights(weight_row);
    let before = pe.counts();
    let busy_before = pe.busy_cycles();
    let output_words = pe.config().output_words;

    for ox in 0..layer.output.width {
        let Some(run) = column_run(ox, params, layer.input.width) else {
            continue;
        };
        dispatch_column(pe, &run, ox, output_words, layer)?;
        pe.run_until_idle(column_cycle_budget(run.taps));
        if !pe.is_idle() {
            return Err(MachineError::Timeout {
                layer: layer.name.clone(),
            });
        }
        emit(ox, pe.read_output((ox % output_words) as u16));
    }

    Ok((pe.busy_cycles() - busy_before, pe.counts() - before))
}

/// Configures the three index generators for one column run and enqueues its
/// `repeat`+`mac` program through the fallible µop push.
fn dispatch_column(
    pe: &mut ProcessingEngine,
    run: &ColumnRun,
    ox: usize,
    output_words: usize,
    layer: &Layer,
) -> Result<(), MachineError> {
    pe.configure_generator(
        AddrGenKind::Input,
        GeneratorConfig {
            addr: run.input_start as u16,
            offset: 0,
            step: 1,
            end: (run.input_start + run.taps) as u16,
            repeat: 1,
        },
    );
    pe.configure_generator(
        AddrGenKind::Weight,
        GeneratorConfig {
            addr: run.kernel_start as u16,
            offset: 0,
            step: run.kernel_step as u16,
            end: (run.kernel_start + (run.taps - 1) * run.kernel_step + 1) as u16,
            repeat: 1,
        },
    );
    pe.configure_generator(
        AddrGenKind::Output,
        GeneratorConfig {
            addr: (ox % output_words) as u16,
            offset: 0,
            step: 1,
            end: (ox % output_words + 1) as u16,
            repeat: 1,
        },
    );
    pe.start_all();
    pe.set_repeat(run.taps as u16);
    for uop in [ExecUop::Repeat, ExecUop::Mac] {
        pe.try_push_uop(uop)
            .map_err(|_| MachineError::UopOverflow {
                layer: layer.name.clone(),
            })?;
    }
    Ok(())
}

impl Default for GanaxMachine {
    fn default() -> Self {
        Self::paper()
    }
}

/// Why a planned layer's zero insertion exists: planning refuses the
/// cropping geometries that have none ([`geometry_unsupported`]).
const VALIDATED: &str = "planning refuses transposed convolutions that crop";

/// A layer [`LayerGeometry::for_layer`] refuses, as
/// [`MachineError::Unsupported`]: a transposed convolution whose padding is
/// not below its kernel on some axis crops its output (its zero-insertion
/// border, `kernel - 1 - padding`, would be negative), which neither the
/// machine's plan nor the analytic models can express.
pub(crate) fn geometry_unsupported(error: NetworkError) -> MachineError {
    MachineError::Unsupported {
        detail: error.to_string(),
    }
}

/// The original input row a (output row, vertical kernel tap) pair reads, or
/// `None` if the tap falls on padding / an inserted zero row.
fn input_row_for(oy: usize, ky: usize, params: &ConvParams, input_height: usize) -> Option<usize> {
    match params.kind {
        ConvKind::Transposed => {
            let ins = ZeroInsertion::from_params(params).expect(VALIDATED);
            ins.source(1, oy + ky, input_height)
        }
        ConvKind::Conventional => conv_input_row(oy, ky, params, input_height),
    }
}

/// Input row of a conventional convolution tap, or `None` when it lands in the
/// padding.
fn conv_input_row(oy: usize, ky: usize, params: &ConvParams, input_height: usize) -> Option<usize> {
    let pos = (oy * params.stride.1 + ky) as isize - params.padding.1 as isize;
    if pos >= 0 && (pos as usize) < input_height {
        Some(pos as usize)
    } else {
        None
    }
}

/// The consequential column taps of one output column: which input columns and
/// kernel columns participate, and with which kernel stride.
fn column_run(ox: usize, params: &ConvParams, input_width: usize) -> Option<ColumnRun> {
    match params.kind {
        ConvKind::Transposed => {
            let ins = ZeroInsertion::from_params(params).expect(VALIDATED);
            let step = params.stride.2;
            let mut first: Option<(usize, usize)> = None;
            let mut taps = 0usize;
            for kx in 0..params.kernel.2 {
                if let Some(ix) = ins.source(2, ox + kx, input_width) {
                    if first.is_none() {
                        first = Some((ix, kx));
                    }
                    taps += 1;
                }
            }
            first.map(|(input_start, kernel_start)| ColumnRun {
                input_start,
                kernel_start,
                kernel_step: step,
                taps,
            })
        }
        ConvKind::Conventional => {
            let mut first: Option<(usize, usize)> = None;
            let mut taps = 0usize;
            for kx in 0..params.kernel.2 {
                let pos = (ox * params.stride.2 + kx) as isize - params.padding.2 as isize;
                if pos >= 0 && (pos as usize) < input_width {
                    if first.is_none() {
                        first = Some((pos as usize, kx));
                    }
                    taps += 1;
                }
            }
            first.map(|(input_start, kernel_start)| ColumnRun {
                input_start,
                kernel_start,
                kernel_step: 1,
                taps,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_models::Activation;
    use ganax_tensor::{conv, tconv};
    use proptest::prelude::*;

    fn random_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 / 1000.0) - 1.0
        };
        let mut t = Tensor::zeros(shape);
        for v in t.data_mut() {
            *v = next();
        }
        t
    }

    fn layer_tensors(layer: &Layer, seed: u64) -> (Tensor, Tensor) {
        let params = layer.op.conv_params().unwrap();
        let input = random_tensor(layer.input, seed);
        let weights = random_tensor(
            Shape::filter(
                layer.output.channels,
                layer.input.channels,
                params.kernel.0,
                params.kernel.1,
                params.kernel.2,
            ),
            seed + 1,
        );
        (input, weights)
    }

    fn check_layer(layer: Layer, seed: u64) {
        let (input, weights) = layer_tensors(&layer, seed);
        let reference = if layer.is_tconv() {
            tconv(&input, &weights, &layer.op.conv_params().unwrap()).unwrap()
        } else {
            conv(&input, &weights, &layer.op.conv_params().unwrap()).unwrap()
        };
        let run = GanaxMachine::paper()
            .execute_layer(&layer, &input, &weights)
            .unwrap();
        assert!(
            run.output.approx_eq(&reference, 1e-3),
            "machine output diverges from reference for {} (max diff {})",
            layer.name,
            run.output.max_abs_diff(&reference).unwrap()
        );
        assert!(run.busy_pe_cycles > 0);
        assert_eq!(run.counts.alu_ops, run.busy_pe_cycles);

        // The fast path must agree bit for bit with the seed single-step
        // serial path, and with every thread count.
        let machine = GanaxMachine::paper();
        let single_step = machine
            .execute_layer_reference(&layer, &input, &weights)
            .unwrap();
        assert_eq!(run, single_step, "fast path diverged from reference");
        for threads in [2, 3, 8] {
            let threaded = machine
                .execute_layer_threaded(&layer, &input, &weights, threads)
                .unwrap();
            assert_eq!(run, threaded, "{threads}-thread run diverged");
        }
    }

    #[test]
    fn matches_reference_on_paper_example_geometry() {
        let layer = Layer::conv(
            "paper-example",
            Shape::new_2d(1, 4, 4),
            1,
            ConvParams::transposed_2d(5, 2, 2),
            Activation::None,
        )
        .unwrap();
        check_layer(layer, 11);
    }

    #[test]
    fn matches_reference_on_multichannel_tconv() {
        let layer = Layer::conv(
            "tconv-multi",
            Shape::new_2d(3, 5, 5),
            2,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::None,
        )
        .unwrap();
        check_layer(layer, 23);
    }

    #[test]
    fn matches_reference_on_stride1_tconv() {
        let layer = Layer::conv(
            "tconv-refine",
            Shape::new_2d(2, 6, 6),
            2,
            ConvParams::transposed_2d(3, 1, 1),
            Activation::None,
        )
        .unwrap();
        check_layer(layer, 37);
    }

    #[test]
    fn matches_reference_on_conventional_convolution() {
        let layer = Layer::conv(
            "conv",
            Shape::new_2d(2, 8, 8),
            3,
            ConvParams::conv_2d(3, 2, 1),
            Activation::None,
        )
        .unwrap();
        check_layer(layer, 41);
    }

    #[test]
    fn machine_performs_only_consequential_macs() {
        let layer = Layer::conv(
            "tconv-count",
            Shape::new_2d(1, 4, 4),
            1,
            ConvParams::transposed_2d(5, 2, 2),
            Activation::None,
        )
        .unwrap();
        let params = layer.op.conv_params().unwrap();
        let input = random_tensor(layer.input, 5);
        let weights = random_tensor(Shape::filter(1, 1, 1, 5, 5), 6);
        let run = GanaxMachine::paper()
            .execute_layer(&layer, &input, &weights)
            .unwrap();
        let consequential = params.consequential_macs(layer.input, 1).unwrap();
        assert_eq!(run.counts.alu_ops, consequential);
        assert!(run.counts.alu_ops < layer.dense_macs());
    }

    #[test]
    fn rejects_projection_and_volumetric_layers() {
        let machine = GanaxMachine::paper();
        let projection = Layer::projection(
            "proj",
            Shape::new_2d(10, 1, 1),
            Shape::new_2d(4, 2, 2),
            Activation::None,
        );
        let input = Tensor::zeros(projection.input);
        let weights = Tensor::zeros(Shape::filter(4, 10, 1, 1, 1));
        assert!(matches!(
            machine.execute_layer(&projection, &input, &weights),
            Err(MachineError::Unsupported { .. })
        ));

        let volumetric = Layer::conv(
            "tconv3d",
            Shape::new(2, 2, 2, 2),
            1,
            ConvParams::transposed_3d(4, 2, 1),
            Activation::None,
        )
        .unwrap();
        let input = Tensor::zeros(volumetric.input);
        let weights = Tensor::zeros(Shape::filter(1, 2, 4, 4, 4));
        assert!(matches!(
            machine.execute_layer(&volumetric, &input, &weights),
            Err(MachineError::Unsupported { .. })
        ));
    }

    #[test]
    fn rejects_mismatched_tensors() {
        let layer = Layer::conv(
            "tconv",
            Shape::new_2d(1, 4, 4),
            1,
            ConvParams::transposed_2d(5, 2, 2),
            Activation::None,
        )
        .unwrap();
        let machine = GanaxMachine::paper();
        let bad_input = Tensor::zeros(Shape::new_2d(1, 5, 5));
        let weights = Tensor::zeros(Shape::filter(1, 1, 1, 5, 5));
        assert!(matches!(
            machine.execute_layer(&layer, &bad_input, &weights),
            Err(MachineError::ShapeMismatch { .. })
        ));
        let input = Tensor::zeros(Shape::new_2d(1, 4, 4));
        let bad_weights = Tensor::zeros(Shape::filter(1, 1, 1, 3, 3));
        assert!(matches!(
            machine.execute_layer(&layer, &input, &bad_weights),
            Err(MachineError::ShapeMismatch { .. })
        ));
    }

    /// Asserts the dispatch-bundling invariants of one plan: every
    /// consequential column sits in exactly one dispatch (at its chunk's
    /// offset, reading its own input column, with its words in the
    /// dispatch's `[channel][column]` block), a dispatch's columns share one
    /// tap count, the word map is a bijection, and every dispatch's
    /// programs, streams and channel groups fit the PE they were planned
    /// for.
    fn check_dispatch_invariants(layer: &Layer, plan: &LayerPlan, pe: &PeConfig) {
        let params = layer.op.conv_params().unwrap();
        let width = layer.output.width;
        let mut owner: Vec<Option<usize>> = vec![None; width];
        for (d, dispatch) in plan.dispatches.iter().enumerate() {
            let mut cols = 0;
            for &idx in &dispatch.chunks {
                let chunk = &plan.chunks[idx];
                assert_eq!((chunk.dispatch, chunk.dispatch_col), (d, cols));
                for c in 0..chunk.cols {
                    let ox = chunk.ox_start + c * chunk.col_step;
                    assert!(
                        owner[ox].replace(d).is_none(),
                        "column {ox} dispatched twice"
                    );
                    let run = column_run(ox, &params, layer.input.width)
                        .expect("dispatched columns are consequential");
                    assert_eq!(
                        run.taps, dispatch.taps,
                        "column {ox} in a mixed-tap dispatch"
                    );
                    assert_eq!(
                        plan.column_words[ox],
                        (dispatch.word + cols + c, dispatch.cols)
                    );
                    assert_eq!(dispatch.input_starts[cols + c], run.input_start);
                }
                cols += chunk.cols;
            }
            assert_eq!(cols, dispatch.cols);
            let stream = dispatch.taps * dispatch.cols;
            let programs = dispatch.group_max * dispatch.cols;
            assert!(stream <= pe.input_words && dispatch.group_max * stream <= pe.weight_words);
            assert!(2 * programs <= pe.uop_fifo_entries && programs <= pe.output_words);
        }
        for (ox, owner) in owner.iter().enumerate() {
            assert_eq!(
                owner.is_some(),
                column_run(ox, &params, layer.input.width).is_some(),
                "column {ox}: dispatched iff consequential"
            );
        }
        assert_words_biject(&plan.column_words, layer.output.channels);
    }

    /// Asserts that `(co, ox) ↦ base + co × stride` over `column_words` hits
    /// every word of a `channels × width` shard row exactly once.
    fn assert_words_biject(column_words: &[(usize, usize)], channels: usize) {
        let mut hits = vec![0u32; channels * column_words.len()];
        for co in 0..channels {
            for &(base, stride) in column_words {
                hits[base + co * stride] += 1;
            }
        }
        assert!(hits.iter().all(|&h| h == 1), "word map is not a bijection");
    }

    /// Every layer of every zoo generator and discriminator (channel-capped
    /// at 64 and depth-flattened, as the engine plans them), plus transposed
    /// convolutions whose stride exceeds their kernel (so several columns
    /// read no tap and fill the trailing block), keeps the dispatch-bundling
    /// invariants on the deep simulation PE and the Table III PE — among
    /// them that the `(co, ox) → word` map is a bijection onto the shard
    /// row's `co_count × width` words.
    #[test]
    fn column_words_biject_for_every_zoo_geometry() {
        let mut layers: Vec<Layer> = Vec::new();
        for model in ganax_models::zoo::all_models() {
            for network in [&model.generator, &model.discriminator] {
                layers.extend(network.reduced(64).unwrap().layers().iter().cloned());
            }
        }
        for (kernel, stride) in [(1, 2), (2, 3), (2, 4)] {
            let params = ConvParams::transposed_2d(kernel, stride, 0);
            let shape = Shape::new_2d(3, 5, 7);
            layers.push(Layer::conv("gappy", shape, 4, params, Activation::None).unwrap());
        }
        let table_iii =
            GanaxMachine::new(GanaxConfig::paper().with_sim_pe(PeConfig::paper()).unwrap());
        let (mut planned, mut idle) = (0, 0);
        for layer in layers.iter().filter(|l| l.op.conv_params().is_some()) {
            planned += 1;
            let (_, weights) = layer_tensors(layer, 5);
            for machine in [GanaxMachine::paper(), table_iii] {
                let plan = machine.plan_layer(layer, &weights).unwrap();
                check_dispatch_invariants(layer, &plan.plan, &plan.pe_config);
            }
            let params = layer.op.conv_params().unwrap();
            idle += (0..layer.output.width)
                .filter(|&ox| column_run(ox, &params, layer.input.width).is_none())
                .count();
        }
        assert!(planned > 50, "only {planned} conv layers planned");
        assert!(idle > 10, "only {idle} inconsequential columns covered");
    }

    /// On DCGAN at 64 channels each transposed convolution bundles its
    /// chunks into three dispatches per `(row, ky, ci)` — one per tap class
    /// — within the simulation PE's bounds, and the Table III PE sizing
    /// keeps the same invariants with smaller dispatches.
    #[test]
    fn dcgan_plans_one_dispatch_per_tap_class() {
        let network = ganax_models::zoo::reduced_generator("DCGAN", 64).unwrap();
        let table_iii =
            GanaxMachine::new(GanaxConfig::paper().with_sim_pe(PeConfig::paper()).unwrap());
        let mut tconvs = 0;
        for layer in network.layers().iter().filter(|l| l.is_tconv()) {
            tconvs += 1;
            let (_, weights) = layer_tensors(layer, 3);
            for machine in [GanaxMachine::paper(), table_iii] {
                let planned = machine.plan_layer(layer, &weights).unwrap();
                check_dispatch_invariants(layer, &planned.plan, &planned.pe_config);
            }
            let planned = GanaxMachine::paper().plan_layer(layer, &weights).unwrap();
            assert_eq!(planned.plan.dispatches.len(), 3, "{}", layer.name);
            assert!(planned.plan.chunks.len() > 3, "{}", layer.name);
        }
        assert_eq!(tconvs, 4);
    }

    /// The engine bundles chunks into dispatches whose channel groups differ
    /// from the chunks' own, yet every input, weight and emit fault must stay
    /// on its chunk's `(row, chunk ordinal + chunk group, element/lane)` site.
    /// The pin below was taken from a per-chunk dispatch path (one dispatch
    /// per chunk and chunk-sized channel groups), whose outputs the engine
    /// matched bit for bit: the FNV-1a fingerprint of the faulty output's f32
    /// bits, the counters and the fired-fault count per pool size. Weight
    /// faults fire once per weight load, and a pool of `p` workers loads
    /// each weight block once per row block of its shard, so the fire count
    /// depends on the pool size while the corruption values do not.
    #[test]
    fn bundled_dispatches_keep_every_chunk_fault_site() {
        use crate::InferenceEngine;
        use ganax_models::NetworkBuilder;
        use ganax_sim::{FaultKind, FaultSpec};

        let pe = PeConfig {
            input_words: 64,
            weight_words: 64,
            output_words: 16,
            addr_fifo_entries: 8,
            uop_fifo_entries: 32,
        };
        let spec = FaultSpec::seeded(
            0x5173,
            30_000,
            FaultKind::INPUT_FLIP
                | FaultKind::WEIGHT_FLIP
                | FaultKind::STUCK_LANE
                | FaultKind::DROP_UOP
                | FaultKind::DUP_UOP,
        );
        let clean_config = GanaxConfig::paper().with_sim_pe(pe).unwrap();
        let machine = GanaxMachine::new(clean_config.with_fault(spec).unwrap());
        let network = NetworkBuilder::new("fault-sites", Shape::new_2d(3, 3, 8))
            .tconv(
                "up",
                5,
                ConvParams::transposed_2d(5, 2, 2),
                Activation::None,
            )
            .build()
            .unwrap();
        let layer = &network.layers()[0];
        let (input, weights) = layer_tensors(layer, 91);

        let planned = machine.plan_layer(layer, &weights).unwrap();
        let plan = &planned.plan;
        assert!(
            plan.dispatches.iter().any(|d| d.chunks.len() > 1
                && d.chunks
                    .iter()
                    .any(|&x| plan.chunks[x].group_max != d.group_max)),
            "the geometry must bundle chunks under a different channel grouping"
        );

        let clean = GanaxMachine::new(clean_config)
            .execute_layer_threaded(layer, &input, &weights, 1)
            .unwrap();
        let counts = EventCounts {
            alu_ops: 5940,
            register_file_reads: 11880,
            register_file_writes: 2475,
            inter_pe_transfers: 2475,
            local_uop_fetches: 4950,
            ..EventCounts::default()
        };
        let height = layer.output.height;
        assert_eq!(height, 5);
        for (pool, fired) in [(1, 178), (2, 267), (height, 287)] {
            let engine = InferenceEngine::new(machine, pool);
            let run = engine.execute_layer(layer, &input, &weights).unwrap();
            assert_ne!(
                run.output, clean.output,
                "pool {pool}: the schedule must corrupt"
            );
            let mut hash = crate::config::FNV_OFFSET;
            for value in run.output.data() {
                crate::config::fnv1a64(&mut hash, &value.to_bits().to_le_bytes());
            }
            assert_eq!(
                hash, 0x960c_a672_39fb_32b4,
                "pool {pool}: output fingerprint"
            );
            assert_eq!(run.counts, counts, "pool {pool}: counts");
            assert_eq!(run.busy_pe_cycles, 5940, "pool {pool}: busy cycles");
            assert_eq!(run.work_units, 165, "pool {pool}: work units");
            assert_eq!(engine.injected_faults(), fired, "pool {pool}: fired faults");
        }
    }

    /// A dispatch channel group that straddles a boundary between a bundled
    /// chunk's own channel groups splits that chunk's weight run at the
    /// boundary, so each side keeps its chunk's `(ordinal + g0, element)`
    /// sites. The output fingerprint and fire counts are pinned from the
    /// per-channel weight-fault loop the run replaced.
    #[test]
    fn straddling_channel_groups_keep_their_weight_fault_sites() {
        use crate::InferenceEngine;
        use ganax_models::NetworkBuilder;
        use ganax_sim::{FaultKind, FaultSpec};

        let pe = PeConfig {
            input_words: 64,
            weight_words: 64,
            output_words: 16,
            addr_fifo_entries: 8,
            uop_fifo_entries: 32,
        };
        let spec = FaultSpec::seeded(0x57AD, 30_000, FaultKind::WEIGHT_FLIP);
        let clean_config = GanaxConfig::paper().with_sim_pe(pe).unwrap();
        let machine = GanaxMachine::new(clean_config.with_fault(spec).unwrap());
        let network = NetworkBuilder::new("straddle", Shape::new_2d(2, 3, 6))
            .tconv(
                "up",
                8,
                ConvParams::transposed_2d(5, 2, 2),
                Activation::None,
            )
            .build()
            .unwrap();
        let layer = &network.layers()[0];
        let (input, weights) = layer_tensors(layer, 47);

        let planned = machine.plan_layer(layer, &weights).unwrap();
        let plan = &planned.plan;
        let co_count = layer.output.channels;
        assert!(
            plan.dispatches
                .iter()
                .any(|d| (0..co_count).step_by(d.group_max).any(|co0| {
                    let last = (co0 + d.group_max).min(co_count) - 1;
                    d.chunks.iter().any(|&x| {
                        let gm = plan.chunks[x].group_max;
                        co0 / gm != last / gm
                    })
                })),
            "some dispatch channel group must straddle a chunk's channel groups"
        );

        let clean = GanaxMachine::new(clean_config)
            .execute_layer_threaded(layer, &input, &weights, 1)
            .unwrap();
        for (pool, fired) in [(1, 58), (2, 116), (5, 129)] {
            let engine = InferenceEngine::new(machine, pool);
            let run = engine.execute_layer(layer, &input, &weights).unwrap();
            assert_eq!(run.counts, clean.counts, "pool {pool}: counts");
            let mut hash = crate::config::FNV_OFFSET;
            for value in run.output.data() {
                crate::config::fnv1a64(&mut hash, &value.to_bits().to_le_bytes());
            }
            assert_eq!(
                hash, 0xda4e_d82f_2fb2_eb26,
                "pool {pool}: output fingerprint"
            );
            assert_eq!(engine.injected_faults(), fired, "pool {pool}: fired faults");
        }
    }

    /// Asserts that, with faults off, [`load_dispatch_weights`] stages for
    /// every dispatch, `(ky, ci)` and channel group exactly the filter taps
    /// of each column's run (recomputed with [`column_run`]) in stream
    /// order, and that the plan's per-`kx'` checksum sums equal the f64
    /// `co`-ascending sums of those staged words.
    fn check_staged_weights(layer: &Layer, weights: &Tensor, planned: &PlannedLayer) {
        let plan = &planned.plan;
        let params = layer.op.conv_params().unwrap();
        let (co_count, ci_count) = (layer.output.channels, layer.input.channels);
        let (kh, kw) = (params.kernel.1, params.kernel.2);
        // The filter tap machine kernel column `kx` of row `ky` reads: the
        // raw filter, spatially flipped for transposed convolutions.
        let tap = |co, ci, ky: usize, kx: usize| {
            if layer.is_tconv() {
                weights.at_filter(co, ci, 0, kh - 1 - ky, kw - 1 - kx)
            } else {
                weights.at_filter(co, ci, 0, ky, kx)
            }
        };
        let mut pe = ProcessingEngine::new(planned.pe_config);
        for (d, dispatch) in plan.dispatches.iter().enumerate() {
            let taps = dispatch.taps;
            let stream = taps * dispatch.cols;
            let runs: Vec<ColumnRun> = dispatch
                .chunks
                .iter()
                .flat_map(|&idx| {
                    let chunk = &plan.chunks[idx];
                    (0..chunk.cols).map(move |c| chunk.ox_start + c * chunk.col_step)
                })
                .map(|ox| column_run(ox, &params, layer.input.width).unwrap())
                .collect();
            assert_eq!(runs.len(), dispatch.cols);
            for ky in 0..kh {
                for ci in 0..ci_count {
                    let mut sums = vec![(0.0f64, 0.0f64); stream];
                    let mut co0 = 0;
                    while co0 < co_count {
                        let group = dispatch.group_max.min(co_count - co0);
                        let words =
                            load_dispatch_weights(&mut pe, plan, d, group, co0, ci, ky, None);
                        assert_eq!(words, (group * stream) as u64);
                        let staged = &pe.weight_contents()[..group * stream];
                        for (k, channel) in staged.chunks_exact(stream).enumerate() {
                            for (c, run) in runs.iter().enumerate() {
                                assert_eq!(run.taps, taps);
                                for j in 0..taps {
                                    let kx = run.kernel_start + j * run.kernel_step;
                                    let word = channel[c * taps + j];
                                    assert_eq!(
                                        word.to_bits(),
                                        tap(co0 + k, ci, ky, kx).to_bits(),
                                        "dispatch {d}, ky {ky}, ci {ci}, co {}, column {c}, tap {j}",
                                        co0 + k
                                    );
                                    let sum = &mut sums[c * taps + j];
                                    sum.0 += f64::from(word);
                                    sum.1 += f64::from(word).abs();
                                }
                            }
                        }
                        co0 += group;
                    }
                    let base = (ky * ci_count + ci) * plan.kernel_w;
                    for (c, &w0) in dispatch.weight_starts.iter().enumerate() {
                        for j in 0..taps {
                            let (sum, abs) = sums[c * taps + j];
                            assert_eq!(plan.column_sums[base + w0 + j].to_bits(), sum.to_bits());
                            assert_eq!(
                                plan.abs_column_sums[base + w0 + j].to_bits(),
                                abs.to_bits()
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Across random conv/tconv geometries — strides beyond the kernel
        /// width and strided conventional convolutions included — under the
        /// simulation PE and a small PE that splits and bundles chunks, every
        /// dispatch stages exactly its columns' filter taps from the
        /// phase-major kernel rows, and the checksum sums match them.
        #[test]
        fn prop_load_dispatch_weights_stages_each_column_run(
            tconv in 0u16..2,
            in_channels in 1usize..4,
            out_channels in 1usize..6,
            extent in 2usize..9,
            kernel in 1usize..6,
            stride in 1usize..5,
            padding in 0usize..3,
            small_pe in 0u16..2,
            seed in 0u64..1_000,
        ) {
            let params = if tconv == 1 {
                ConvParams::transposed_2d(kernel, stride, padding.min(kernel - 1))
            } else {
                ConvParams::conv_2d(kernel, stride, padding.min(kernel - 1))
            };
            let Ok(layer) = Layer::conv(
                "prop-staging",
                Shape::new_2d(in_channels, extent, extent),
                out_channels,
                params,
                Activation::None,
            ) else {
                return Ok(());
            };
            let config = if small_pe == 1 {
                let pe = PeConfig {
                    input_words: 24,
                    weight_words: 24,
                    output_words: 8,
                    addr_fifo_entries: 8,
                    uop_fifo_entries: 12,
                };
                GanaxConfig::paper().with_sim_pe(pe).unwrap()
            } else {
                GanaxConfig::paper()
            };
            let (_, weights) = layer_tensors(&layer, seed);
            let planned = GanaxMachine::new(config).plan_layer(&layer, &weights).unwrap();
            check_staged_weights(&layer, &weights, &planned);
        }
    }

    /// f32 operands that stress an f64 fold: signed zeros, subnormals,
    /// values near `f32::MAX` and ordinary magnitudes of both signs.
    const FOLD_OPERANDS: [f32; 9] = [
        0.0,
        -0.0,
        1.0e-40,
        -3.0e-42,
        f32::MAX,
        -0.75 * f32::MAX,
        1.5,
        -0.3,
        7.25e3,
    ];

    /// The multi-row checksum fold gives every row exactly the predicted and
    /// magnitude bits of folding the rows one at a time, element by element
    /// in chunk → column → tap order, for instance counts on and off the
    /// fold's lane width.
    #[test]
    fn multi_row_checksum_fold_matches_one_row_at_a_time() {
        let layer = Layer::conv(
            "fold",
            Shape::new_2d(2, 3, 7),
            2,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::None,
        )
        .unwrap();
        let operand = |i: usize| FOLD_OPERANDS[i % FOLD_OPERANDS.len()];
        let weights = Tensor::from_filter_fn(
            crate::NetworkWeights::expected_shape(&layer),
            |co, ci, _, ky, kx| operand(co * 7 + ci * 5 + ky * 3 + kx + 2),
        );
        let plan = GanaxMachine::paper()
            .plan_layer(&layer, &weights)
            .unwrap()
            .plan;
        assert!(plan.chunks.len() > 1, "the fold must walk several chunks");
        let inputs: Vec<Vec<f32>> = (0..9)
            .map(|r| (0..layer.input.width).map(|x| operand(r * 4 + x)).collect())
            .collect();
        for count in 1..=9 {
            let mut folded = vec![RowChecksum::default(); count];
            let mut expected = folded.clone();
            for ky in 0..plan.kernel_h {
                for ci in 0..plan.input_channels {
                    // Scattered checksum indices and a per-tap choice of rows.
                    let rows: Vec<(usize, &[f32])> = (0..count)
                        .map(|k| (count - 1 - k, &inputs[(k + ky + ci) % 9][..]))
                        .collect();
                    fold_input_checksums(&plan, ky, ci, &rows, &mut folded);
                    let base = (ky * plan.input_channels + ci) * plan.kernel_w;
                    for &(i, row) in &rows {
                        let check = &mut expected[i];
                        for chunk in &plan.chunks {
                            let dispatch = &plan.dispatches[chunk.dispatch];
                            for col in chunk.dispatch_col..chunk.dispatch_col + chunk.cols {
                                let start = dispatch.input_starts[col];
                                let w0 = base + dispatch.weight_starts[col];
                                for t in 0..chunk.taps {
                                    let x = f64::from(row[start + t]);
                                    check.predicted += plan.column_sums[w0 + t] * x;
                                    check.magnitude += plan.abs_column_sums[w0 + t] * x.abs();
                                }
                            }
                        }
                    }
                }
            }
            for (i, (got, want)) in folded.iter().zip(&expected).enumerate() {
                assert_eq!(
                    (got.predicted.to_bits(), got.magnitude.to_bits()),
                    (want.predicted.to_bits(), want.magnitude.to_bits()),
                    "{count} rows: row {i} folded {got:?}, one at a time {want:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Across random conv/tconv geometries, the engine (one worker and
        /// several) produces outputs, `busy_pe_cycles` and `EventCounts`
        /// bit-identical to the seed single-step serial path.
        #[test]
        fn prop_fast_paths_match_single_step_reference(
            tconv in 0u16..2,
            in_channels in 1usize..3,
            out_channels in 1usize..3,
            extent in 3usize..7,
            kernel in 1usize..6,
            stride in 1usize..3,
            threads in 2usize..6,
            seed in 0u64..1_000,
        ) {
            let params = if tconv == 1 {
                ConvParams::transposed_2d(kernel, stride, kernel / 2)
            } else {
                ConvParams::conv_2d(kernel, stride, kernel / 2)
            };
            let layer = match Layer::conv(
                "prop-geometry",
                Shape::new_2d(in_channels, extent, extent),
                out_channels,
                params,
                Activation::None,
            ) {
                Ok(layer) => layer,
                // Degenerate geometry (e.g. kernel larger than the padded
                // input): nothing to compare.
                Err(_) => return Ok(()),
            };
            let (input, weights) = layer_tensors(&layer, seed);
            let machine = GanaxMachine::paper();
            let reference = machine.execute_layer_reference(&layer, &input, &weights).unwrap();
            let fast = machine.execute_layer_threaded(&layer, &input, &weights, 1).unwrap();
            prop_assert_eq!(&reference, &fast, "serial fast path diverged");
            let threaded = machine.execute_layer_threaded(&layer, &input, &weights, threads).unwrap();
            prop_assert_eq!(&reference, &threaded, "threaded fast path diverged");
        }
    }
}
