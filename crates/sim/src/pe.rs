//! A GANAX processing engine: decoupled access and execute µ-engines around
//! three scratchpad buffers.

use ganax_energy::EventCounts;
use ganax_isa::{AccessReg, AccessUop, AddrGenKind, ExecUop};
use serde::{Deserialize, Serialize};

use crate::access::AccessEngine;
use crate::execute::{ActivationKind, ExecuteEngine};
use crate::fifo::{FifoError, UopFifo};
use crate::index_gen::{GeneratorConfig, StridedIndexGenerator};
use crate::scratchpad::Scratchpad;

/// Sizing of one processing engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeConfig {
    /// Words in the input scratchpad.
    pub input_words: usize,
    /// Words in the weight scratchpad.
    pub weight_words: usize,
    /// Words in the output (partial-sum) scratchpad.
    pub output_words: usize,
    /// Entries per address FIFO.
    pub addr_fifo_entries: usize,
    /// Entries in the execute µop FIFO.
    pub uop_fifo_entries: usize,
}

impl PeConfig {
    /// The Table III configuration: a 12-word input register file, 224-word
    /// weight SRAM, 24-word partial-sum register file and 8-entry FIFOs.
    pub fn paper() -> Self {
        PeConfig {
            input_words: 12,
            weight_words: 224,
            output_words: 24,
            addr_fifo_entries: 8,
            uop_fifo_entries: 16,
        }
    }

    /// A roomier configuration used by functional-validation harnesses that
    /// want to keep a whole (small) feature-map row resident in one PE. The
    /// deep µop FIFO lets the machine dispatch a long run of per-column
    /// `repeat`+`mac` programs in one go.
    pub fn roomy() -> Self {
        PeConfig {
            input_words: 1024,
            weight_words: 1024,
            output_words: 1024,
            addr_fifo_entries: 8,
            uop_fifo_entries: 256,
        }
    }

    /// The deep simulation configuration `GanaxConfig::paper` installs for
    /// its worker PEs (`sim_pe`): the same microarchitecture as
    /// [`PeConfig::roomy`] with scratchpads and µop FIFO sized so one
    /// dispatch covers a whole channel group of a full-size Table I layer.
    /// Dispatch *count* is what the per-dispatch retire path amortizes its
    /// fixed bookkeeping over, so deeper buffers directly shrink simulation
    /// wall-clock; modeled activity is invariant to the depth (operand
    /// traffic, µop fetches and busy cycles count programs and words, not
    /// dispatches). Capacities stay well inside the `u16` address space the
    /// index generators require.
    pub fn deep() -> Self {
        PeConfig {
            input_words: 16384,
            weight_words: 16384,
            output_words: 16384,
            addr_fifo_entries: 8,
            uop_fifo_entries: 8192,
        }
    }
}

impl Default for PeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One processing engine: an access µ-engine, an execute µ-engine, the three
/// scratchpads they share, and activity counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingEngine {
    config: PeConfig,
    access: AccessEngine,
    execute: ExecuteEngine,
    uop_fifo: UopFifo,
    input: Scratchpad,
    weights: Scratchpad,
    output: Scratchpad,
    cycles: u64,
    busy_cycles: u64,
    uop_fetches: u64,
}

impl ProcessingEngine {
    /// Creates an idle PE with the given sizing.
    pub fn new(config: PeConfig) -> Self {
        ProcessingEngine {
            config,
            access: AccessEngine::new(config.addr_fifo_entries),
            execute: ExecuteEngine::new(),
            uop_fifo: UopFifo::new(config.uop_fifo_entries),
            input: Scratchpad::new(config.input_words),
            weights: Scratchpad::new(config.weight_words),
            output: Scratchpad::new(config.output_words),
            cycles: 0,
            busy_cycles: 0,
            uop_fetches: 0,
        }
    }

    /// The PE's sizing.
    pub fn config(&self) -> PeConfig {
        self.config
    }

    /// Resets the PE to its just-constructed state **in place**: scratchpads
    /// zeroed, FIFOs emptied, index generators cleared and stopped, the
    /// execute µ-engine idled, and every cycle/activity counter zeroed — all
    /// without releasing a single allocation. A long-lived worker PE calls
    /// this between dispatch batches instead of being reconstructed, so the
    /// serving steady state stays allocation-free.
    ///
    /// After `reset`, the PE compares equal to `ProcessingEngine::new(config)`.
    pub fn reset(&mut self) {
        self.access.reset();
        self.execute.reset();
        self.uop_fifo.clear();
        self.input.reset();
        self.weights.reset();
        self.output.reset();
        self.cycles = 0;
        self.busy_cycles = 0;
        self.uop_fetches = 0;
    }

    /// Bulk-loads the input scratchpad from word 0.
    pub fn load_input(&mut self, values: &[f32]) {
        self.input.fill(values);
    }

    /// Bulk-loads the weight scratchpad from word 0.
    pub fn load_weights(&mut self, values: &[f32]) {
        self.weights.fill(values);
    }

    /// Bulk-loads `len` input words through an in-place gather closure
    /// (counted as writes, like [`ProcessingEngine::load_input`]).
    pub fn load_input_with(&mut self, len: usize, f: impl FnOnce(&mut [f32])) {
        self.input.fill_with(len, f);
    }

    /// Bulk-loads `len` weight words through an in-place gather closure
    /// (counted as writes, like [`ProcessingEngine::load_weights`]).
    pub fn load_weights_with(&mut self, len: usize, f: impl FnOnce(&mut [f32])) {
        self.weights.fill_with(len, f);
    }

    /// Reads an output word without charging an access (result draining).
    pub fn read_output(&mut self, addr: u16) -> f32 {
        self.output.peek(addr)
    }

    /// The full output scratchpad contents.
    pub fn output_contents(&self) -> &[f32] {
        self.output.contents()
    }

    /// The full weight scratchpad contents (inspection without charging an
    /// access).
    pub fn weight_contents(&self) -> &[f32] {
        self.weights.contents()
    }

    /// Applies an access µop to the access µ-engine.
    pub fn apply_access(&mut self, uop: &AccessUop) {
        self.access.apply(uop);
    }

    /// Configures one index generator with an explicit configuration.
    pub fn configure_generator(&mut self, gen: AddrGenKind, config: GeneratorConfig) {
        self.access.load_config(gen, config);
    }

    /// Convenience: configures a generator to walk `addr, addr+step, …` up to
    /// (excluding) `end`, replaying the pattern `repeat` times.
    pub fn configure_linear(
        &mut self,
        gen: AddrGenKind,
        addr: u16,
        step: u16,
        end: u16,
        repeat: u16,
    ) {
        self.configure_generator(
            gen,
            GeneratorConfig {
                addr,
                offset: 0,
                step,
                end,
                repeat,
            },
        );
    }

    /// Starts every configured index generator.
    pub fn start_all(&mut self) {
        self.access.start_all();
    }

    /// Starts one index generator.
    pub fn start(&mut self, gen: AddrGenKind) {
        self.access.start(gen);
    }

    /// Loads the execute µ-engine's repeat register (`mimd.ld`).
    pub fn set_repeat(&mut self, count: u16) {
        self.execute.set_repeat(count);
    }

    /// Selects the activation function used by `act` µops.
    pub fn set_activation(&mut self, activation: ActivationKind) {
        self.execute.set_activation(activation);
    }

    /// Pushes an execute µop into the PE's µop FIFO, reporting overflow to
    /// the dispatcher instead of panicking.
    ///
    /// # Errors
    /// Returns [`FifoError`] when the µop FIFO is full.
    pub fn try_push_uop(&mut self, uop: ExecUop) -> Result<(), FifoError> {
        self.uop_fifo.push(uop)
    }

    /// Pushes an execute µop into the PE's µop FIFO.
    ///
    /// # Panics
    /// Panics if the µop FIFO is full; the dispatcher is expected to respect
    /// the FIFO depth (use [`ProcessingEngine::try_push_uop`] to recover
    /// instead).
    pub fn push_uop(&mut self, uop: ExecUop) {
        self.try_push_uop(uop)
            .expect("uop fifo overflow: dispatcher must respect fifo depth");
    }

    /// Pushes `pairs` uniform `repeat`+`mac` programs with a single capacity
    /// check. The µop FIFO holds them virtually (a pair count instead of
    /// `2 × pairs` queue entries), which both skips the per-µop queue traffic
    /// and is the only queue [`ProcessingEngine::retire_block`] retires as one
    /// dispatch; materialized µops single-step. Observationally identical to
    /// pushing the same µops one by one with [`ProcessingEngine::try_push_uop`].
    ///
    /// # Errors
    /// Returns [`FifoError`] (pushing nothing) when the batch does not fit.
    pub fn try_push_mac_pairs(&mut self, pairs: usize) -> Result<(), FifoError> {
        self.uop_fifo.try_push_mac_pairs(pairs)
    }

    /// Whether the PE has nothing left to do: no in-flight µop, an empty µop
    /// FIFO and no running index generator.
    pub fn is_idle(&self) -> bool {
        !self.execute.is_busy() && self.uop_fifo.is_empty() && !self.access.any_running()
    }

    /// Advances the PE by one cycle. Returns `true` if the execute µ-engine
    /// performed an operation this cycle.
    pub fn step(&mut self) -> bool {
        self.cycles += 1;
        // 1. Access µ-engine generates addresses into its FIFOs.
        self.access.tick();

        // 2. Execute µ-engine: fetch a µop if none is in flight.
        if !self.execute.is_busy() {
            while let Some(uop) = self.uop_fifo.pop() {
                self.uop_fetches += 1;
                if self.execute.issue(uop) {
                    break;
                }
                // `repeat`/`nop` µops retire immediately; keep fetching.
            }
        }
        if !self.execute.is_busy() {
            return false;
        }

        // 3. Check operand availability (empty FIFO ⇒ stall, per the paper).
        let uop = self.execute.current_uop().expect("busy engine has a uop");
        let needs_weight = uop.source_operands() == 2;
        let will_write = uop.writes_destination()
            && (self.execute.remaining_repeats() == 1
                || matches!(uop, ExecUop::Add | ExecUop::Mul | ExecUop::Act));
        if self.access.fifo(AddrGenKind::Input).is_empty() {
            return false;
        }
        if needs_weight && self.access.fifo(AddrGenKind::Weight).is_empty() {
            return false;
        }
        if will_write && self.access.fifo(AddrGenKind::Output).is_empty() {
            return false;
        }

        // 4. Pop addresses, read operands, execute, write back.
        let in_addr = self
            .access
            .fifo_mut(AddrGenKind::Input)
            .pop()
            .expect("input fifo checked non-empty");
        let a = self.input.read(in_addr);
        let b = if needs_weight {
            let w_addr = self
                .access
                .fifo_mut(AddrGenKind::Weight)
                .pop()
                .expect("weight fifo checked non-empty");
            self.weights.read(w_addr)
        } else {
            0.0
        };
        if let Some(value) = self.execute.execute(a, b) {
            let out_addr = self
                .access
                .fifo_mut(AddrGenKind::Output)
                .pop()
                .expect("output fifo checked non-empty");
            self.output.write(out_addr, value);
        }
        self.busy_cycles += 1;
        true
    }

    /// Steps the PE until it is idle or `max_cycles` have elapsed; returns the
    /// number of cycles stepped.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> u64 {
        let mut stepped = 0;
        while stepped < max_cycles && !self.is_idle() {
            self.step();
            stepped += 1;
        }
        stepped
    }

    /// Retires a block of `rows` canonical dispatches in one call: the
    /// queued dispatch, then `rows - 1` re-issues of it that share its
    /// weights, shape and generator state and differ only in the input
    /// generator's offset, `stride` words further per row. `sink(row, run)`
    /// receives each row's produced output run (the `pairs` words the
    /// dispatch writes) before the next row overwrites it.
    ///
    /// Returns `false`, touching nothing, unless the µop FIFO holds only
    /// virtual `repeat`+`mac` pairs ([`ProcessingEngine::try_push_mac_pairs`]),
    /// the execute µ-engine is idle, and the dispatch has the canonical shape
    /// the engine's dispatches have — proven once for the whole block:
    /// * all three address FIFOs empty — every address comes straight off its
    ///   generator, so FIFO traffic is pure pass-through accounting;
    /// * the input generator at the start of a step-1 `cols × repeats`
    ///   stream with at least `pairs × repeats` addresses left — the stream
    ///   is replayed once per channel of a `pairs / cols` channel group — and
    ///   the **last** row's window inside both the input scratchpad and the
    ///   `u16` address space (only `tick` reproduces a wrap);
    /// * the weight generator walking `pairs × repeats` step-1 words without
    ///   wrapping, inside the weight scratchpad;
    /// * the output generator with exactly `pairs` step-1 addresses left in
    ///   one contiguous run inside the output scratchpad — the output FIFO
    ///   never materializes.
    ///
    /// Every counter then settles once, times `rows`, and the PE ends
    /// exactly as `rows` single dispatches leave it: the input generator's
    /// offset at the last row's base and the last row's outputs in the
    /// output scratchpad. The arithmetic runs in `retire_canonical`.
    ///
    /// This is the PE's only multi-cycle entry: `retire_block(1, 0, ..)`
    /// retires one dispatch, bit-identical to [`ProcessingEngine::step`]ping
    /// it `pairs × repeats` times, and every other state single-steps.
    pub fn retire_block(
        &mut self,
        rows: usize,
        stride: usize,
        mut sink: impl FnMut(usize, &[f32]),
    ) -> bool {
        if rows == 0 || self.execute.is_busy() {
            return false;
        }
        let Some(programs) = self.uop_fifo.uniform_pairs() else {
            return false;
        };
        let r = self.execute.repeat_register() as usize;
        let (pairs, n) = (programs as u64, rows as u64);
        let total = pairs * r as u64;
        let in_idx = AddrGenKind::Input.index();
        let wt_idx = AddrGenKind::Weight.index();
        let out_idx = AddrGenKind::Output.index();
        let (gens, fifos, stall_cycles) = self.access.burst_parts();
        if fifos.iter().any(|fifo| !fifo.is_empty()) {
            return false;
        }
        let (Some(input), Some(weight), Some(output)) = (
            Window::of(&gens[in_idx]),
            Window::of(&gens[wt_idx]),
            Window::of(&gens[out_idx]),
        ) else {
            return false;
        };
        let stream = input.end - input.base;
        let input_limit = self.input.capacity().min(u16::MAX as usize + 1);
        let last_end = stride
            .checked_mul(rows - 1)
            .and_then(|shift| shift.checked_add(input.end));
        let canonical = input.pos == input.base
            && stream.is_multiple_of(r)
            && programs.is_multiple_of(stream / r)
            && gens[in_idx].remaining_addresses_up_to(total) == total
            && last_end.is_some_and(|end| end <= input_limit)
            && weight.pos + programs * r <= weight.end.min(self.weights.capacity())
            && output.pos + programs <= output.end.min(self.output.capacity())
            && gens[out_idx].remaining_addresses_up_to(pairs + 1) == pairs;
        if !canonical {
            return false;
        }

        // In fetch mode the accumulator holds the `0.0` the last completed
        // program left, so every program starts from `0.0`.
        debug_assert_eq!(self.execute.accumulator().to_bits(), 0);
        let weights = &self.weights.contents()[weight.pos..weight.pos + programs * r];
        let run = output.pos..output.pos + programs;
        for row in 0..rows {
            let base = input.base + row * stride;
            retire_canonical(
                r,
                &self.input.contents()[base..base + stream],
                weights,
                &mut self.output.contents_mut()[run.clone()],
            );
            sink(row, &self.output.contents()[run.clone()]);
        }

        // Settle once per block what single-stepping settles once per cycle:
        // µop fetches and FIFO traffic, operand pass-through and generator
        // advances, output-generator stalls against the never-popped FIFO,
        // scratchpad access counters, and the execute µ-engine's program
        // count — each row replays the same dispatch, so every term is one
        // dispatch's times `n`.
        let out_cap = fifos[out_idx].capacity() as u64;
        self.uop_fifo.consume_front(2 * programs);
        self.uop_fifo.note_passthrough(2 * pairs * (n - 1));
        self.uop_fetches += 2 * pairs * n;
        fifos[in_idx].note_passthrough(total * n);
        gens[in_idx].advance_runs(total, n);
        gens[in_idx].configure(AccessReg::Offset, (input.base + (rows - 1) * stride) as u16);
        fifos[wt_idx].note_passthrough(total * n);
        gens[wt_idx].advance_runs(total, n);
        *stall_cycles += uniform_output_stalls(pairs, r as u64, out_cap) * n;
        fifos[out_idx].note_passthrough(pairs * n);
        gens[out_idx].advance_runs(pairs, n);
        self.input.charge_reads(total * n);
        self.weights.charge_reads(total * n);
        self.output.charge_writes(pairs * n);
        self.execute.settle_mac_programs(total * n);
        self.cycles += total * n;
        self.busy_cycles += total * n;
        true
    }

    /// Total cycles stepped.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles in which the execute µ-engine performed an operation.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Activity counters in the Table II categories.
    pub fn counts(&self) -> EventCounts {
        EventCounts {
            alu_ops: self.execute.alu_ops(),
            gated_ops: 0,
            register_file_reads: self.input.reads() + self.weights.reads() + self.output.reads(),
            register_file_writes: self.input.writes()
                + self.weights.writes()
                + self.output.writes(),
            inter_pe_transfers: 0,
            global_buffer_reads: 0,
            global_buffer_writes: 0,
            dram_reads: 0,
            dram_writes: 0,
            local_uop_fetches: self.uop_fetches,
            global_uop_fetches: 0,
        }
    }
}

/// A step-1 generator window in absolute scratchpad positions: the
/// generator's next address is `pos`, and it walks up to `end` before
/// wrapping back to `base` (its constant `offset`).
#[derive(Debug, Clone, Copy)]
struct Window {
    pos: usize,
    end: usize,
    base: usize,
}

impl Window {
    /// The step-1 wrap window of a running generator, if it has one. The
    /// generator's constant `offset` shifts the whole window (the engine
    /// keeps several gathered streams resident and addresses one via
    /// `offset`); windows that would wrap the `u16` address space are
    /// refused.
    fn of(gen: &StridedIndexGenerator) -> Option<Self> {
        let base = gen.offset() as usize;
        gen.burst_wrap_window()
            .filter(|&(_, end)| base + end as usize <= u16::MAX as usize + 1)
            .map(|(current, end)| Window {
                pos: base + current as usize,
                end: base + end as usize,
                base,
            })
    }
}

/// Retires one canonical dispatch of `r`-tap programs:
/// `out[k·cols + c] = Σ_t input[c·r + t] · weights[(k·cols + c)·r + t]`,
/// where `input` is one `cols × r` stream replayed once per channel `k` and
/// `weights` holds `out.len() / cols` consecutive channel streams. The tap
/// counts the zoo's plans produce get a kernel monomorphised on `r`; any
/// other count takes the generic instance. Each program starts from `0.0`
/// and adds its taps in order, exactly as the execute µ-engine does.
fn retire_canonical(r: usize, input: &[f32], weights: &[f32], out: &mut [f32]) {
    match r {
        1 => canonical_kernel::<1>(input, weights, out),
        2 => canonical_kernel::<2>(input, weights, out),
        3 => canonical_kernel::<3>(input, weights, out),
        _ => {
            let cols = input.len() / r;
            for (channel, slots) in weights
                .chunks_exact(input.len())
                .zip(out.chunks_exact_mut(cols))
            {
                let programs = input.chunks_exact(r).zip(channel.chunks_exact(r));
                for ((x, w), slot) in programs.zip(slots) {
                    let mut acc = 0.0f32;
                    for (a, b) in x.iter().zip(w) {
                        acc += a * b;
                    }
                    *slot = acc;
                }
            }
        }
    }
}

/// Columns one [`canonical_kernel`] block retires together once `R` reaches
/// 3 taps.
const RETIRE_BLOCK: usize = 8;

/// [`retire_canonical`] for a compile-time tap count `R`: the tap loop
/// runs over fixed-size arrays, so it unrolls with no bounds checks.
///
/// A one-column dispatch (a tconv's edge column) walks the channels in one
/// flat loop, so the loop runs across channels rather than paying a
/// per-channel loop setup for a single column. Otherwise one and two taps
/// vectorise as written. From three taps on, the `cols × R` stream
/// interleaves too widely for that, so each block of [`RETIRE_BLOCK`]
/// columns first multiplies its contiguous `x[j]·w[j]` run (input and
/// weight words share the index `j`), then folds the products tap by tap
/// into one accumulator per column, starting from `0.0`. Every program
/// still performs exactly the execute µ-engine's operations in its order —
/// Rust never contracts `a * b + c` — so the results are bit-identical; the
/// columns past the last whole block take the per-column loop.
fn canonical_kernel<const R: usize>(input: &[f32], weights: &[f32], out: &mut [f32]) {
    let cols = input.len() / R;
    if let ([x], _) = input.as_chunks::<R>() {
        let (taps, _) = weights.as_chunks::<R>();
        for (slot, w) in out.iter_mut().zip(taps) {
            let mut acc = 0.0f32;
            for t in 0..R {
                acc += x[t] * w[t];
            }
            *slot = acc;
        }
        return;
    }
    for (channel, slots) in weights
        .chunks_exact(input.len())
        .zip(out.chunks_exact_mut(cols))
    {
        let (mut x, mut w, mut slots) = (input, channel, slots);
        if R >= 3 {
            let mut xs = input.chunks_exact(R * RETIRE_BLOCK);
            let mut ws = channel.chunks_exact(R * RETIRE_BLOCK);
            let mut blocks = slots.chunks_exact_mut(RETIRE_BLOCK);
            for ((x, w), block) in (&mut xs).zip(&mut ws).zip(&mut blocks) {
                let mut products = [[0.0f32; R]; RETIRE_BLOCK];
                let flat = products.as_flattened_mut();
                for ((p, &x), &w) in flat.iter_mut().zip(x).zip(w) {
                    *p = x * w;
                }
                let mut acc = [0.0f32; RETIRE_BLOCK];
                for t in 0..R {
                    for (acc, p) in acc.iter_mut().zip(&products) {
                        *acc += p[t];
                    }
                }
                block.copy_from_slice(&acc);
            }
            (x, w, slots) = (xs.remainder(), ws.remainder(), blocks.into_remainder());
        }
        let (columns, _) = x.as_chunks::<R>();
        let (taps, _) = w.as_chunks::<R>();
        for ((x, w), slot) in columns.iter().zip(taps).zip(slots) {
            let mut acc = 0.0f32;
            for t in 0..R {
                acc += x[t] * w[t];
            }
            *slot = acc;
        }
    }
}

/// Output-generator stall cycles over a uniform dispatch of `programs`
/// write-backs of `repeats` repetitions each against an initially empty
/// output FIFO of `cap` entries, in closed form.
///
/// Per program, the per-cycle semantics are: the generator pushes until the
/// FIFO fills or every program's address is produced, each un-pushed cycle of
/// a still-producing generator stalls, and the program's write-back pops one
/// entry. Once the FIFO's free space collapses to a single entry it stays
/// there (one push, one pop per program), so every remaining producing
/// program except the last stalls for `repeats - 1` cycles — the tail
/// collapses to one multiplication instead of a per-program `+=` of that
/// constant delta.
fn uniform_output_stalls(programs: u64, repeats: u64, cap: u64) -> u64 {
    if repeats <= 1 {
        return 0;
    }
    let mut stalls = 0u64;
    let mut len = 0u64;
    let mut produced = 0u64;
    loop {
        let remaining = programs - produced;
        if remaining == 0 {
            break;
        }
        if cap - len == 1 {
            stalls += (remaining - 1) * (repeats - 1);
            break;
        }
        let pushes = repeats.min(cap - len).min(remaining);
        if remaining > pushes {
            stalls += repeats - pushes;
        }
        len += pushes;
        produced += pushes;
        len -= 1;
    }
    stalls
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Streams `n` input/weight pairs through a repeated `mac` and returns the
    /// accumulated dot product written to output word 0.
    fn dot_product(inputs: &[f32], weights: &[f32]) -> f32 {
        let n = inputs.len() as u16;
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        pe.load_input(inputs);
        pe.load_weights(weights);
        pe.configure_linear(AddrGenKind::Input, 0, 1, n, 1);
        pe.configure_linear(AddrGenKind::Weight, 0, 1, n, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
        pe.start_all();
        pe.set_repeat(n);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
        let cycles = pe.run_until_idle(10_000);
        assert!(cycles < 10_000, "PE did not converge");
        pe.read_output(0)
    }

    #[test]
    fn computes_a_dot_product() {
        let inputs = [1.0, 2.0, 3.0, 4.0];
        let weights = [0.5, -1.0, 2.0, 0.25];
        let expected: f32 = inputs.iter().zip(&weights).map(|(a, b)| a * b).sum();
        assert!((dot_product(&inputs, &weights) - expected).abs() < 1e-6);
    }

    #[test]
    fn strided_input_access_skips_zero_columns() {
        // Input holds a zero-inserted row [x0, 0, x1, 0, x2, 0, x3, 0]; a
        // stride-2 access pattern touches only the original elements, which is
        // how GANAX skips inconsequential columns.
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        pe.load_input(&[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
        pe.load_weights(&[1.0, 1.0, 1.0, 1.0]);
        pe.configure_linear(AddrGenKind::Input, 0, 2, 8, 1);
        pe.configure_linear(AddrGenKind::Weight, 0, 1, 4, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
        pe.start_all();
        pe.set_repeat(4);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
        pe.run_until_idle(1_000);
        assert_eq!(pe.read_output(0), 10.0);
        // Exactly four multiplications were performed — no wasted work on the
        // inserted zeros.
        assert_eq!(pe.counts().alu_ops, 4);
    }

    #[test]
    fn empty_uop_fifo_halts_execution() {
        let mut pe = ProcessingEngine::new(PeConfig::paper());
        pe.load_input(&[1.0, 2.0]);
        pe.configure_linear(AddrGenKind::Input, 0, 1, 2, 1);
        pe.start(AddrGenKind::Input);
        // Addresses flow but no µop ever arrives: nothing executes.
        for _ in 0..10 {
            assert!(!pe.step());
        }
        assert_eq!(pe.counts().alu_ops, 0);
    }

    #[test]
    fn empty_address_fifo_stalls_execution() {
        let mut pe = ProcessingEngine::new(PeConfig::paper());
        pe.load_input(&[1.0, 2.0]);
        pe.load_weights(&[1.0, 1.0]);
        // Weight generator is never started: mac stalls forever.
        pe.configure_linear(AddrGenKind::Input, 0, 1, 2, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
        pe.start(AddrGenKind::Input);
        pe.start(AddrGenKind::Output);
        pe.set_repeat(2);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
        for _ in 0..20 {
            pe.step();
        }
        assert_eq!(pe.counts().alu_ops, 0);
        assert!(!pe.is_idle());
    }

    #[test]
    fn act_uop_applies_activation_elementwise() {
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        pe.load_input(&[-1.0, 2.0, -3.0]);
        pe.configure_linear(AddrGenKind::Input, 0, 1, 3, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 3, 1);
        pe.start(AddrGenKind::Input);
        pe.start(AddrGenKind::Output);
        pe.set_activation(ActivationKind::Relu);
        for _ in 0..3 {
            pe.push_uop(ExecUop::Act);
        }
        pe.run_until_idle(1_000);
        assert_eq!(pe.output_contents()[..3], [0.0, 2.0, 0.0]);
    }

    #[test]
    fn counters_track_scratchpad_traffic() {
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        pe.load_input(&[1.0, 2.0]);
        pe.load_weights(&[3.0, 4.0]);
        pe.configure_linear(AddrGenKind::Input, 0, 1, 2, 1);
        pe.configure_linear(AddrGenKind::Weight, 0, 1, 2, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
        pe.start_all();
        pe.set_repeat(2);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
        pe.run_until_idle(1_000);
        let counts = pe.counts();
        assert_eq!(counts.alu_ops, 2);
        // 2 input reads + 2 weight reads.
        assert_eq!(counts.register_file_reads, 4);
        // Bulk loads (2 + 2 words) plus the single result write-back.
        assert_eq!(counts.register_file_writes, 5);
        assert_eq!(counts.local_uop_fetches, 2);
        assert!(pe.busy_cycles() >= 2);
        assert!(pe.cycles() >= pe.busy_cycles());
    }

    #[test]
    fn idle_detection() {
        let mut pe = ProcessingEngine::new(PeConfig::paper());
        assert!(pe.is_idle());
        pe.push_uop(ExecUop::Mac);
        assert!(!pe.is_idle());
    }

    #[test]
    fn reset_restores_the_just_constructed_state() {
        let config = PeConfig {
            addr_fifo_entries: 4,
            uop_fifo_entries: 8,
            ..PeConfig::paper()
        };
        let mut pe = ProcessingEngine::new(config);
        pe.load_input(&[1.0, 2.0, 3.0]);
        pe.load_weights(&[4.0, 5.0, 6.0]);
        pe.set_activation(ActivationKind::Relu);
        pe.configure_linear(AddrGenKind::Input, 0, 1, 3, 2);
        pe.configure_linear(AddrGenKind::Weight, 0, 1, 3, 2);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 2, 1);
        pe.start_all();
        pe.set_repeat(3);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
        pe.push_uop(ExecUop::Mac);
        // Step mid-program so a µop is in flight and addresses are queued.
        for _ in 0..4 {
            pe.step();
        }
        assert!(!pe.is_idle());
        pe.reset();
        assert_eq!(pe, ProcessingEngine::new(config), "reset must equal new");
        assert!(pe.is_idle());
        assert_eq!(pe.counts(), EventCounts::default());

        // A reset PE executes a fresh program exactly like a new one.
        let run = |pe: &mut ProcessingEngine| {
            pe.load_input(&[1.0, 2.0, 3.0, 4.0]);
            pe.load_weights(&[0.5, -1.0, 2.0, 0.25]);
            pe.configure_linear(AddrGenKind::Input, 0, 1, 4, 1);
            pe.configure_linear(AddrGenKind::Weight, 0, 1, 4, 1);
            pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
            pe.start_all();
            pe.set_repeat(4);
            pe.push_uop(ExecUop::Repeat);
            pe.push_uop(ExecUop::Mac);
            run_blocks(pe, 1_000);
        };
        run(&mut pe);
        let mut fresh = ProcessingEngine::new(config);
        run(&mut fresh);
        assert_eq!(pe, fresh, "reset PE diverged from a newly constructed one");
    }

    #[test]
    fn try_push_uop_reports_overflow() {
        let mut pe = ProcessingEngine::new(PeConfig {
            uop_fifo_entries: 2,
            ..PeConfig::paper()
        });
        assert!(pe.try_push_uop(ExecUop::Repeat).is_ok());
        assert!(pe.try_push_uop(ExecUop::Mac).is_ok());
        assert_eq!(
            pe.try_push_uop(ExecUop::Mac),
            Err(FifoError { capacity: 2 })
        );
    }

    /// Per-program output bookkeeping (the generator pushes until the FIFO
    /// fills, each write-back pops one entry), replayed program by program as
    /// the oracle for the closed-form `uniform_output_stalls`.
    fn direct_output_stalls(programs: u64, repeats: u64, cap: u64) -> u64 {
        let mut stalls = 0u64;
        let mut len = 0u64;
        let mut produced = 0u64;
        for _ in 0..programs {
            let pushes = repeats.min(cap - len).min(programs - produced);
            if programs - produced > pushes {
                stalls += repeats - pushes;
            }
            len += pushes;
            produced += pushes;
            len -= 1;
        }
        stalls
    }

    #[test]
    fn uniform_output_stalls_matches_the_per_program_loop() {
        for programs in 0..=40u64 {
            for repeats in 1..=10u64 {
                for cap in 1..=10u64 {
                    assert_eq!(
                        super::uniform_output_stalls(programs, repeats, cap),
                        direct_output_stalls(programs, repeats, cap),
                        "stall closed form diverged at programs={programs} repeats={repeats} cap={cap}"
                    );
                }
            }
        }
    }

    /// One `repeat`+`mac` program: generator configurations plus the armed
    /// repeat count, applied identically to a reference and a block-retiring
    /// PE.
    struct MacProgram {
        input: GeneratorConfig,
        weight: GeneratorConfig,
        output: GeneratorConfig,
        repeat: u16,
    }

    fn apply_program(pe: &mut ProcessingEngine, p: &MacProgram) {
        pe.configure_generator(AddrGenKind::Input, p.input);
        pe.configure_generator(AddrGenKind::Weight, p.weight);
        pe.configure_generator(AddrGenKind::Output, p.output);
        pe.start_all();
        pe.set_repeat(p.repeat);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
    }

    /// Arms one dispatch the way the engine's `dispatch_group` issues it: a
    /// `cols × taps` input stream at `offset`, replayed once per channel of
    /// `group`, the channels' weight streams back to back, and a contiguous
    /// `group × cols` output run. The caller pushes the µops.
    fn arm_dispatch(pe: &mut ProcessingEngine, taps: u16, cols: u16, group: u16, offset: u16) {
        let stream = cols * taps;
        pe.configure_generator(
            AddrGenKind::Input,
            GeneratorConfig {
                addr: 0,
                offset,
                step: 1,
                end: stream,
                repeat: group,
            },
        );
        pe.configure_linear(AddrGenKind::Weight, 0, 1, group * stream, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, group * cols, 1);
        pe.start_all();
        pe.set_repeat(taps);
    }

    /// Operand bit patterns the kernels must treat exactly as the execute
    /// µ-engine does.
    const SPECIAL: [u32; 12] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x7fc0_0000, // quiet NaN
        0xffc0_0001, // negative NaN with a payload
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // largest negative subnormal
        0x0080_0000, // smallest normal
        0x7f7f_ffff, // largest finite
        0x3f80_0000, // 1.0
        0xbf80_0000, // -1.0
    ];

    /// An operand from a `0..1 << 36` draw: half the draws pick a
    /// [`SPECIAL`] value, half an arbitrary word (which overflows to ±∞ and
    /// cancels to NaN often).
    fn operand(pick: u64) -> f32 {
        let bits = pick as u32;
        if pick >> 35 == 1 {
            f32::from_bits(SPECIAL[bits as usize % SPECIAL.len()])
        } else {
            f32::from_bits(bits)
        }
    }

    /// Bit-identical results, except that a NaN only has to meet a NaN: Rust
    /// leaves the sign and payload of a NaN result unspecified (LLVM may
    /// commute an add of two NaNs).
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `pe` split into its scratchpad words, as bits with every NaN one
    /// quiet NaN, and the rest of its state with those words zeroed, so
    /// states that hold NaNs compare with `==` (an f32 NaN never equals
    /// itself).
    fn nan_canonical(pe: &ProcessingEngine) -> (ProcessingEngine, Vec<u32>) {
        let mut pe = pe.clone();
        let mut bits = Vec::new();
        for pad in [&mut pe.input, &mut pe.weights, &mut pe.output] {
            for word in pad.contents_mut() {
                bits.push(if word.is_nan() {
                    0x7fc0_0000
                } else {
                    word.to_bits()
                });
                *word = 0.0;
            }
        }
        (pe, bits)
    }

    /// A block whose last row's input window would pass the input
    /// scratchpad, or the `u16` address space the generators' offset
    /// register spans, is refused without touching the PE (as is an empty
    /// block); the largest block that fits retires.
    #[test]
    fn retire_block_refuses_windows_past_the_scratchpad_or_u16() {
        let (taps, cols, group) = (3u16, 2u16, 2u16);
        // (input words, stride, rows, retires): stream 6 from base 0, so the
        // last window ends at `(rows - 1) × stride + 6`.
        let cases = [
            (64, 6, 11, false),
            (64, 6, 10, true),
            (70_000, 65_531, 2, false),
            (70_000, 65_530, 2, true),
            (64, 6, 0, false),
        ];
        for (input_words, stride, rows, retires) in cases {
            let mut pe = ProcessingEngine::new(PeConfig {
                input_words,
                ..PeConfig::roomy()
            });
            pe.load_input(&vec![1.5; input_words]);
            pe.load_weights(&[0.5; 12]);
            arm_dispatch(&mut pe, taps, cols, group, 0);
            pe.try_push_mac_pairs(usize::from(cols * group)).unwrap();
            let armed = pe.clone();
            let mut sunk = 0;
            let retired = pe.retire_block(rows, stride, |_, run| {
                assert_eq!(run, [2.25; 4]);
                sunk += 1;
            });
            let case = format!("{input_words} words, stride {stride}, {rows} rows");
            assert_eq!(retired, retires, "{case}");
            if retires {
                assert_eq!(sunk, rows, "{case}");
                assert!(pe.is_idle(), "{case}");
                assert_eq!(pe.busy_cycles(), rows as u64 * 12, "{case}");
            } else {
                assert_eq!(sunk, 0, "{case}");
                assert_eq!(pe, armed, "{case}: a refused block moved state");
            }
        }
    }

    /// [`ProcessingEngine::run_until_idle`] through the PE's multi-cycle
    /// entry: each cycle first offers `retire_block(1, 0, ..)`, and only a
    /// refused block takes one `step()`. A retired block must fit the
    /// remaining budget; a refused one must leave the PE untouched.
    fn run_blocks(pe: &mut ProcessingEngine, budget: u64) -> u64 {
        let mut stepped = 0;
        while stepped < budget && !pe.is_idle() {
            let before = pe.clone();
            if pe.retire_block(1, 0, |_, _| {}) {
                let cycles = pe.cycles() - before.cycles();
                assert!(
                    cycles <= budget - stepped,
                    "a {cycles}-cycle block overran the budget"
                );
                stepped += cycles;
            } else {
                assert!(
                    nan_canonical(pe) == nan_canonical(&before),
                    "a refused block moved state"
                );
                pe.step();
                stepped += 1;
            }
        }
        stepped
    }

    /// Runs the same programs on a single-stepped PE and one driven by
    /// [`run_blocks`] and asserts the complete PE state (scratchpads, FIFOs,
    /// generators, stall and energy counters, cycles) ends bit-identical.
    fn assert_burst_equivalence(config: PeConfig, programs: &[MacProgram], budget: u64) {
        let words = config.input_words.min(config.weight_words);
        let data: Vec<f32> = (0..words).map(|i| (i as f32) * 0.37 - 1.5).collect();
        let weights: Vec<f32> = (0..words).map(|i| 0.9 - (i as f32) * 0.11).collect();
        let mut reference = ProcessingEngine::new(config);
        reference.load_input(&data);
        reference.load_weights(&weights);
        let mut fast = reference.clone();
        for p in programs {
            apply_program(&mut reference, p);
            apply_program(&mut fast, p);
            let ref_cycles = reference.run_until_idle(budget);
            let fast_cycles = run_blocks(&mut fast, budget);
            assert_eq!(ref_cycles, fast_cycles, "cycle counts diverged");
            assert_eq!(reference, fast, "PE state diverged");
        }
        assert_eq!(reference.cycles(), fast.cycles());
        assert_eq!(reference.busy_cycles(), fast.busy_cycles());
        assert_eq!(reference.counts(), fast.counts());
        assert_eq!(reference.output_contents(), fast.output_contents());
    }

    #[test]
    fn burst_matches_single_step_on_column_program() {
        // The machine's per-output-column shape: linear input walk, strided
        // weights, one output word.
        let program = MacProgram {
            input: GeneratorConfig {
                addr: 3,
                offset: 0,
                step: 1,
                end: 8,
                repeat: 1,
            },
            weight: GeneratorConfig {
                addr: 1,
                offset: 0,
                step: 2,
                end: 6,
                repeat: 1,
            },
            output: GeneratorConfig {
                addr: 4,
                offset: 0,
                step: 1,
                end: 5,
                repeat: 1,
            },
            repeat: 3,
        };
        assert_burst_equivalence(PeConfig::paper(), &[program], 1_000);
    }

    #[test]
    fn burst_matches_single_step_when_operands_starve() {
        // Input generator supplies only 2 of the 4 armed repetitions: both
        // paths must stall until the budget runs out, with identical state.
        let program = MacProgram {
            input: GeneratorConfig {
                addr: 0,
                offset: 0,
                step: 1,
                end: 2,
                repeat: 1,
            },
            weight: GeneratorConfig {
                addr: 0,
                offset: 0,
                step: 1,
                end: 8,
                repeat: 1,
            },
            output: GeneratorConfig {
                addr: 0,
                offset: 0,
                step: 1,
                end: 1,
                repeat: 1,
            },
            repeat: 4,
        };
        assert_burst_equivalence(PeConfig::paper(), &[program], 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Driving a PE through [`run_blocks`] is indistinguishable from
        /// single stepping across random generator geometries, FIFO depths
        /// and repeat counts —
        /// including programs that over- or under-supply operands, leave
        /// addresses queued between programs, or stall on a missing output
        /// address.
        #[test]
        fn prop_burst_equals_single_step(
            fifo_entries in 2usize..9,
            in_step in 1u16..4,
            in_end in 1u16..12,
            in_repeat in 1u16..4,
            wt_step in 1u16..3,
            wt_end in 1u16..10,
            wt_repeat in 1u16..4,
            out_end in 1u16..4,
            repeat_a in 1u16..24,
            repeat_b in 1u16..24,
        ) {
            let config = PeConfig {
                input_words: 64,
                weight_words: 64,
                output_words: 8,
                addr_fifo_entries: fifo_entries,
                uop_fifo_entries: 16,
            };
            let programs = [
                MacProgram {
                    input: GeneratorConfig { addr: 0, offset: 0, step: in_step, end: in_end, repeat: in_repeat },
                    weight: GeneratorConfig { addr: 0, offset: 0, step: wt_step, end: wt_end, repeat: wt_repeat },
                    output: GeneratorConfig { addr: 0, offset: 0, step: 1, end: out_end, repeat: 1 },
                    repeat: repeat_a,
                },
                // A second program over the leftovers of the first: covers
                // non-empty FIFOs, re-started generators and stale repeat
                // state.
                MacProgram {
                    input: GeneratorConfig { addr: 0, offset: 0, step: wt_step, end: in_end, repeat: wt_repeat },
                    weight: GeneratorConfig { addr: 0, offset: 0, step: in_step, end: wt_end, repeat: in_repeat },
                    output: GeneratorConfig { addr: 0, offset: 0, step: 1, end: out_end, repeat: 1 },
                    repeat: repeat_b,
                },
            ];
            assert_burst_equivalence(config, &programs, 256);
        }

        /// Chunk-style dispatch — several `repeat`+`mac` pairs queued at once
        /// over shared linear generators, the way the machine's fast path
        /// issues whole runs of output columns — retires identically to
        /// single stepping, including with adversarially small address FIFOs.
        #[test]
        fn prop_queued_programs_equal_single_step(
            cols in 1u16..9,
            taps in 1u16..6,
            fifo_entries in 2usize..9,
            out_start in 0u16..4,
            undersupply in 0u16..3,
            in_rounds in 1u16..4,
        ) {
            let total = cols * taps;
            // `undersupply` starves the tail of the operand stream to cover
            // partial retirement and mid-queue stalls; `in_rounds` replays a
            // shortened input stream (the machine's repeated-stream dispatch)
            // across round boundaries.
            let operand_end = total.saturating_sub(undersupply).max(1);
            let in_end = operand_end.div_ceil(in_rounds).max(1);
            let config = PeConfig {
                input_words: 64,
                weight_words: 64,
                output_words: 16,
                addr_fifo_entries: fifo_entries,
                uop_fifo_entries: 32,
            };
            let data: Vec<f32> = (0..64).map(|i| (i as f32) * 0.41 - 3.0).collect();
            let weights: Vec<f32> = (0..64).map(|i| 1.7 - (i as f32) * 0.23).collect();
            let mut reference = ProcessingEngine::new(config);
            reference.load_input(&data);
            reference.load_weights(&weights);
            let mut fast = reference.clone();
            for pe in [&mut reference, &mut fast] {
                pe.configure_linear(AddrGenKind::Input, 0, 1, in_end, in_rounds);
                pe.configure_linear(AddrGenKind::Weight, 0, 1, operand_end, 1);
                pe.configure_linear(AddrGenKind::Output, out_start, 1, out_start + cols, 1);
                pe.start_all();
                pe.set_repeat(taps);
                for _ in 0..cols {
                    pe.push_uop(ExecUop::Repeat);
                    pe.push_uop(ExecUop::Mac);
                }
            }
            let budget = 512;
            let ref_cycles = reference.run_until_idle(budget);
            let fast_cycles = run_blocks(&mut fast, budget);
            prop_assert_eq!(ref_cycles, fast_cycles, "cycle counts diverged");
            prop_assert_eq!(&reference, &fast, "PE state diverged");
        }

        /// Offset-shifted operand windows — the inference engine keeps several
        /// gathered streams resident in one scratchpad and selects one via the
        /// generator's `offset` register — retire identically to single
        /// stepping.
        #[test]
        fn prop_offset_windows_equal_single_step(
            cols in 1u16..7,
            taps in 1u16..6,
            in_offset in 0u16..24,
            wt_offset in 0u16..16,
            fifo_entries in 2usize..9,
            rounds in 1u16..4,
        ) {
            let total = cols * taps;
            let in_end = total.div_ceil(rounds).max(1);
            let config = PeConfig {
                input_words: 64,
                weight_words: 64,
                output_words: 16,
                addr_fifo_entries: fifo_entries,
                uop_fifo_entries: 32,
            };
            let data: Vec<f32> = (0..64).map(|i| (i as f32) * 0.53 - 2.0).collect();
            let weights: Vec<f32> = (0..64).map(|i| 1.3 - (i as f32) * 0.19).collect();
            let mut reference = ProcessingEngine::new(config);
            reference.load_input(&data);
            reference.load_weights(&weights);
            let mut fast = reference.clone();
            for pe in [&mut reference, &mut fast] {
                pe.configure_generator(AddrGenKind::Input, GeneratorConfig {
                    addr: 0, offset: in_offset, step: 1, end: in_end, repeat: rounds,
                });
                pe.configure_generator(AddrGenKind::Weight, GeneratorConfig {
                    addr: 0, offset: wt_offset, step: 1, end: total, repeat: 1,
                });
                pe.configure_linear(AddrGenKind::Output, 0, 1, cols, 1);
                pe.start_all();
                pe.set_repeat(taps);
                for _ in 0..cols {
                    pe.push_uop(ExecUop::Repeat);
                    pe.push_uop(ExecUop::Mac);
                }
            }
            let budget = 512;
            let ref_cycles = reference.run_until_idle(budget);
            let fast_cycles = run_blocks(&mut fast, budget);
            prop_assert_eq!(ref_cycles, fast_cycles, "cycle counts diverged");
            prop_assert_eq!(&reference, &fast, "PE state diverged");
        }

        /// Virtually-pushed uniform dispatches (`try_push_mac_pairs`) retire
        /// bit-identically to a single-stepped PE fed the same µops one by
        /// one — across operand offsets, replayed input rounds, operand
        /// undersupply (which single-steps) and output FIFOs much smaller
        /// than the dispatch (the stall steady-state collapse).
        #[test]
        fn prop_virtual_pair_dispatch_equals_single_step(
            cols in 1u16..12,
            taps in 1u16..6,
            fifo_entries in 2usize..9,
            in_offset in 0u16..24,
            wt_offset in 0u16..16,
            out_start in 0u16..4,
            undersupply in 0u16..3,
            rounds in 1u16..4,
        ) {
            let total = cols * taps;
            let operand_end = total.saturating_sub(undersupply).max(1);
            let in_end = operand_end.div_ceil(rounds).max(1);
            let config = PeConfig {
                input_words: 96,
                weight_words: 96,
                output_words: 16,
                addr_fifo_entries: fifo_entries,
                uop_fifo_entries: 32,
            };
            let data: Vec<f32> = (0..96).map(|i| (i as f32) * 0.29 - 4.0).collect();
            let weights: Vec<f32> = (0..96).map(|i| 2.1 - (i as f32) * 0.17).collect();
            let mut reference = ProcessingEngine::new(config);
            reference.load_input(&data);
            reference.load_weights(&weights);
            let mut fast = reference.clone();
            for pe in [&mut reference, &mut fast] {
                pe.configure_generator(AddrGenKind::Input, GeneratorConfig {
                    addr: 0, offset: in_offset, step: 1, end: in_end, repeat: rounds,
                });
                pe.configure_generator(AddrGenKind::Weight, GeneratorConfig {
                    addr: 0, offset: wt_offset, step: 1, end: operand_end, repeat: 1,
                });
                pe.configure_linear(AddrGenKind::Output, out_start, 1, out_start + cols, 1);
                pe.start_all();
                pe.set_repeat(taps);
            }
            for _ in 0..cols {
                reference.push_uop(ExecUop::Repeat);
                reference.push_uop(ExecUop::Mac);
            }
            fast.try_push_mac_pairs(cols as usize).unwrap();
            let budget = 1_024;
            let ref_cycles = reference.run_until_idle(budget);
            let fast_cycles = run_blocks(&mut fast, budget);
            prop_assert_eq!(ref_cycles, fast_cycles, "cycle counts diverged");
            prop_assert_eq!(&reference, &fast, "PE state diverged");
        }

        /// The inference engine's exact dispatch shape, built directly: a
        /// `cols × taps` input stream resident at a nonzero block slot and
        /// replayed once per channel, weights walking `group × stream`, and a
        /// `group × cols` output run — then a second dispatch from slot 0 on
        /// the same PE, as the engine issues them back to back. Taps cover
        /// every count `retire_canonical` specialises and two above them, so
        /// the monomorphised kernels and the generic instance all meet
        /// `step()`. Each dispatch must also retire in exactly one
        /// `retire_block(1, 0, ..)` call: a change that silently drops the
        /// closed form would otherwise pass every equality check as a
        /// slowdown.
        #[test]
        fn prop_canonical_dispatch_equals_single_step(
            cols in 1u16..9,
            taps in 1u16..6,
            group in 1u16..5,
            slot in 1u16..4,
            fifo_entries in 2usize..9,
        ) {
            let stream = cols * taps;
            let config = PeConfig {
                input_words: 160,
                weight_words: 160,
                output_words: 32,
                addr_fifo_entries: fifo_entries,
                uop_fifo_entries: 64,
            };
            let data: Vec<f32> = (0..160).map(|i| (i as f32) * 0.31 - 5.0).collect();
            let weights: Vec<f32> = (0..160).map(|i| 2.3 - (i as f32) * 0.07).collect();
            let mut reference = ProcessingEngine::new(config);
            reference.load_input(&data);
            reference.load_weights(&weights);
            let mut fast = reference.clone();
            for input_slot in [slot, 0] {
                for pe in [&mut reference, &mut fast] {
                    arm_dispatch(pe, taps, cols, group, input_slot * stream);
                }
                for _ in 0..cols * group {
                    reference.push_uop(ExecUop::Repeat);
                    reference.push_uop(ExecUop::Mac);
                }
                fast.try_push_mac_pairs((cols * group) as usize).unwrap();
                let ref_cycles = reference.run_until_idle(4_096);
                let before = fast.cycles();
                prop_assert!(fast.retire_block(1, 0, |_, _| {}), "the dispatch was refused");
                let fast_cycles = fast.cycles() - before;
                prop_assert!(reference.is_idle(), "reference did not drain");
                prop_assert!(fast.is_idle(), "one retire_block did not drain the dispatch");
                prop_assert_eq!(fast_cycles, u64::from(taps * cols * group));
                prop_assert_eq!(ref_cycles, fast_cycles, "cycle counts diverged");
                prop_assert_eq!(&reference, &fast, "PE state diverged");
            }
        }

        /// `retire_canonical` equals, bit for bit, each program folded on
        /// its own the way the execute µ-engine does (`acc = 0.0; acc +=
        /// x·w` per tap) — for every tap count up to two past the
        /// specialised ones, for column counts on and off the
        /// `RETIRE_BLOCK` grid, and for operands drawn to include ±0.0,
        /// NaNs, ±∞ and subnormals next to arbitrary bit patterns (which
        /// overflow to ±∞ and cancel to NaN often).
        #[test]
        fn prop_retire_canonical_matches_sequential_fold(
            taps in 1usize..6,
            cols in 1usize..(3 * RETIRE_BLOCK + 2),
            group in 1usize..5,
            input_picks in proptest::collection::vec(0u64..1 << 36, 128),
            weight_picks in proptest::collection::vec(0u64..1 << 36, 512),
        ) {
            let stream = cols * taps;
            let input: Vec<f32> = input_picks[..stream].iter().map(|&p| operand(p)).collect();
            let weights: Vec<f32> =
                weight_picks[..group * stream].iter().map(|&p| operand(p)).collect();
            let mut out = vec![0.0f32; group * cols];
            retire_canonical(taps, &input, &weights, &mut out);
            for k in 0..group {
                for c in 0..cols {
                    let mut acc = 0.0f32;
                    for t in 0..taps {
                        acc += input[c * taps + t] * weights[(k * cols + c) * taps + t];
                    }
                    let got = out[k * cols + c];
                    prop_assert!(
                        same_bits(got, acc),
                        "taps {} cols {} channel {} column {}: {:#x} != {:#x}",
                        taps, cols, k, c, got.to_bits(), acc.to_bits()
                    );
                }
            }
        }

        /// One `retire_block` call equals its rows issued one by one: `rows`
        /// dispatches armed from scratch, each with the input offset
        /// `stride` words further and retired by its own one-row
        /// `retire_block`, leave
        /// the same PE state (full `PartialEq`, NaNs canonical) and produce
        /// the same per-row output runs (bit for bit, any NaN meeting any
        /// NaN). Taps cover the specialised kernels and two past them,
        /// columns fall on and off the `RETIRE_BLOCK` grid, rows may sit
        /// apart by more than a stream, and operands include ±0.0, NaNs, ±∞
        /// and subnormals.
        #[test]
        fn prop_retire_block_equals_single_dispatches(
            taps in 1u16..6,
            cols in 1u16..25,
            group in 1u16..5,
            rows in 1usize..7,
            slot in 0u16..3,
            gap in 0u16..3,
            fifo_entries in 2usize..9,
            input_picks in proptest::collection::vec(0u64..1 << 36, 1024),
            weight_picks in proptest::collection::vec(0u64..1 << 36, 512),
        ) {
            let stream = cols * taps;
            let stride = stream + gap;
            let pairs = cols * group;
            let cycles = u64::from(taps * pairs);
            let config = PeConfig {
                input_words: 1024,
                weight_words: 512,
                output_words: 128,
                addr_fifo_entries: fifo_entries,
                uop_fifo_entries: 256,
            };
            let mut reference = ProcessingEngine::new(config);
            reference.load_input(&input_picks.iter().map(|&p| operand(p)).collect::<Vec<_>>());
            reference.load_weights(&weight_picks.iter().map(|&p| operand(p)).collect::<Vec<_>>());
            let mut block = reference.clone();

            let mut expected = Vec::new();
            for row in 0..rows as u16 {
                arm_dispatch(&mut reference, taps, cols, group, slot * stream + row * stride);
                reference.try_push_mac_pairs(usize::from(pairs)).unwrap();
                let before = reference.cycles();
                prop_assert!(reference.retire_block(1, 0, |_, _| {}), "row {} was refused", row);
                prop_assert_eq!(reference.cycles() - before, cycles);
                prop_assert!(reference.is_idle(), "one retire_block did not drain row {}", row);
                expected.extend_from_slice(&reference.output_contents()[..usize::from(pairs)]);
            }

            arm_dispatch(&mut block, taps, cols, group, slot * stream);
            block.try_push_mac_pairs(usize::from(pairs)).unwrap();
            let mut produced = Vec::new();
            let mut next_row = 0;
            let retired = block.retire_block(rows, usize::from(stride), |row, run| {
                assert_eq!(row, next_row, "rows must reach the sink in order");
                next_row += 1;
                produced.extend_from_slice(run);
            });
            prop_assert!(retired, "the block was refused");
            prop_assert_eq!(next_row, rows);
            prop_assert_eq!(produced.len(), expected.len());
            for (i, (&got, &want)) in produced.iter().zip(&expected).enumerate() {
                prop_assert!(
                    same_bits(got, want),
                    "row {} word {}: {:#x} != {:#x}",
                    i / usize::from(pairs), i % usize::from(pairs), got.to_bits(), want.to_bits()
                );
            }
            prop_assert!(nan_canonical(&reference) == nan_canonical(&block), "PE state diverged");
        }

        /// Queues mixing materialized µops with virtual pairs — a lone `mac`
        /// ahead of a pair batch (non-uniform repeats), or a pair batch
        /// extended by hand-pushed µops (forcing materialization) — behave
        /// exactly like a fully materialized queue under single stepping.
        #[test]
        fn prop_mixed_queue_with_virtual_pairs_equals_single_step(
            cols in 1u16..8,
            taps in 1u16..5,
            fifo_entries in 2usize..9,
            lead_mac in 0u16..2,
            trail_pair in 0u16..2,
        ) {
            let total = lead_mac + cols * taps + trail_pair * taps;
            let programs = lead_mac + cols + trail_pair;
            let config = PeConfig {
                input_words: 64,
                weight_words: 64,
                output_words: 16,
                addr_fifo_entries: fifo_entries,
                uop_fifo_entries: 32,
            };
            let data: Vec<f32> = (0..64).map(|i| (i as f32) * 0.47 - 2.5).collect();
            let weights: Vec<f32> = (0..64).map(|i| 1.9 - (i as f32) * 0.13).collect();
            let mut reference = ProcessingEngine::new(config);
            reference.load_input(&data);
            reference.load_weights(&weights);
            let mut fast = reference.clone();
            for pe in [&mut reference, &mut fast] {
                pe.configure_linear(AddrGenKind::Input, 0, 1, total, 1);
                pe.configure_linear(AddrGenKind::Weight, 0, 1, total, 1);
                pe.configure_linear(AddrGenKind::Output, 0, 1, programs, 1);
                pe.start_all();
                pe.set_repeat(taps);
            }
            // Reference: the same logical sequence, µop by µop.
            for _ in 0..lead_mac {
                reference.push_uop(ExecUop::Mac);
                fast.push_uop(ExecUop::Mac);
            }
            for _ in 0..cols {
                reference.push_uop(ExecUop::Repeat);
                reference.push_uop(ExecUop::Mac);
            }
            fast.try_push_mac_pairs(cols as usize).unwrap();
            for _ in 0..trail_pair {
                for uop in [ExecUop::Repeat, ExecUop::Mac] {
                    reference.push_uop(uop);
                    fast.push_uop(uop);
                }
            }
            let budget = 512;
            let ref_cycles = reference.run_until_idle(budget);
            let fast_cycles = run_blocks(&mut fast, budget);
            prop_assert_eq!(ref_cycles, fast_cycles, "cycle counts diverged");
            prop_assert_eq!(&reference, &fast, "PE state diverged");
        }
    }
}
