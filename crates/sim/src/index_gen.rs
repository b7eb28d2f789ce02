//! The strided µindex generator (Figure 7b of the paper).

use ganax_isa::AccessReg;

/// The five configuration registers of a strided µindex generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GeneratorConfig {
    /// Initial address the generation starts from.
    pub addr: u16,
    /// Constant offset added to every generated address.
    pub offset: u16,
    /// Step between two consecutive addresses.
    pub step: u16,
    /// Exclusive upper bound; reaching it wraps the address back and consumes
    /// one repetition.
    pub end: u16,
    /// Number of times the pattern is replayed before the generator stops.
    pub repeat: u16,
}

/// A strided µindex generator: produces one operand address per cycle
/// following a preloaded strided pattern, wrapping with a modulo adder and
/// counting down a repeat register (Figure 7b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StridedIndexGenerator {
    config: GeneratorConfig,
    current: u16,
    remaining_repeats: u16,
    running: bool,
    generated: u64,
}

impl StridedIndexGenerator {
    /// Creates a generator with an all-zero configuration (stopped).
    pub fn new() -> Self {
        StridedIndexGenerator {
            config: GeneratorConfig::default(),
            current: 0,
            remaining_repeats: 0,
            running: false,
            generated: 0,
        }
    }

    /// Writes one configuration register (the `access.cfg` µop).
    pub fn configure(&mut self, reg: AccessReg, value: u16) {
        match reg {
            AccessReg::Addr => self.config.addr = value,
            AccessReg::Offset => self.config.offset = value,
            AccessReg::Step => self.config.step = value,
            AccessReg::End => self.config.end = value,
            AccessReg::Repeat => self.config.repeat = value,
        }
    }

    /// Loads a whole configuration at once.
    pub fn load_config(&mut self, config: GeneratorConfig) {
        self.config = config;
    }

    /// The current configuration.
    pub fn config(&self) -> GeneratorConfig {
        self.config
    }

    /// Starts (or restarts) address generation from the configured initial
    /// address (the `access.start` µop).
    pub fn start(&mut self) {
        self.current = self.config.addr;
        self.remaining_repeats = self.config.repeat;
        self.running = self.config.repeat > 0 && self.config.step > 0 && self.config.end > 0;
    }

    /// Stops address generation (the `access.stop` µop); it can be re-started.
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Whether the generator is actively producing addresses.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Total addresses generated since construction.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Produces the next address, advancing the internal state, or `None` if
    /// the generator is stopped (either explicitly or because the repeat
    /// counter reached zero).
    pub fn tick(&mut self) -> Option<u16> {
        if !self.running {
            return None;
        }
        let address = self.config.offset.wrapping_add(self.current);
        // Modulo adder: advance and wrap at `End`, decrementing `Repeat` on
        // every wrap; the generator stops once `Repeat` reaches zero.
        let next = self.current + self.config.step;
        if next >= self.config.end {
            self.current = next % self.config.end;
            self.remaining_repeats -= 1;
            if self.remaining_repeats == 0 {
                self.running = false;
            }
        } else {
            self.current = next;
        }
        self.generated += 1;
        Some(address)
    }

    /// Number of addresses the generator will still produce before stopping,
    /// capped at `limit` (so callers proving a bounded stall-free burst never
    /// pay for pathological `end × repeat` replay lengths). Computed by
    /// replaying the *current* state on a scratch copy, so it is exact up to
    /// the cap even mid-run.
    pub fn remaining_addresses_up_to(&self, limit: u64) -> u64 {
        if !self.running {
            return 0;
        }
        // Closed forms for the cases hot in burst-stepped simulation:
        // addresses left before the wrap that stops the run, and step-1
        // multi-round replays (each replayed round walks `end` addresses).
        if self.current < self.config.end {
            if self.remaining_repeats == 1 {
                let span = (self.config.end - self.current) as u64;
                let step = self.config.step as u64;
                return span.div_ceil(step).min(limit);
            }
            if self.config.step == 1 {
                let first = (self.config.end - self.current) as u64;
                let rest = (self.remaining_repeats as u64 - 1) * self.config.end as u64;
                return (first + rest).min(limit);
            }
        }
        let mut probe = self.clone();
        let mut count = 0u64;
        while count < limit && probe.tick().is_some() {
            count += 1;
        }
        count
    }

    /// If every upcoming address is simply `offset + ((current + k) mod end)`
    /// — the generator walks with step 1, wrapping straight to 0 — returns
    /// the *relative* `(current, end)` pair. Burst-stepping adds
    /// [`GeneratorConfig::offset`] (see [`StridedIndexGenerator::offset`]) to
    /// turn the window into absolute scratchpad addresses and replaces
    /// per-tick calls with slice windows; [`Self::advance_runs`] settles
    /// the generator state afterwards. Covers both single final rounds and
    /// multi-round replays (the machine's repeated operand streams, including
    /// the engine's block-resident streams addressed through `offset`).
    pub(crate) fn burst_wrap_window(&self) -> Option<(u16, u16)> {
        if self.running && self.config.step == 1 && self.current < self.config.end {
            Some((self.current, self.config.end))
        } else {
            None
        }
    }

    /// The constant offset added to every generated address.
    pub(crate) fn offset(&self) -> u16 {
        self.config.offset
    }

    /// Settles `runs` runs of exactly `n` ticks in O(1), each replayed from
    /// the current state (a block of dispatches re-issues one configuration
    /// per row): the generator ends where one run leaves it, having
    /// generated `runs × n` addresses. Valid only under the conditions
    /// [`Self::burst_wrap_window`] reported, with `n` not exceeding the
    /// remaining addresses.
    pub(crate) fn advance_runs(&mut self, n: u64, runs: u64) {
        debug_assert!(self.burst_wrap_window().is_some());
        debug_assert!(n <= self.remaining_addresses_up_to(n + 1));
        self.generated += n * runs;
        let end = self.config.end as u64;
        let position = self.current as u64 + n;
        let wraps = (position / end) as u16;
        self.current = (position % end) as u16;
        self.remaining_repeats -= wraps;
        if self.remaining_repeats == 0 {
            self.running = false;
        }
    }

    /// Resets the generator to its just-constructed state: configuration
    /// cleared, stopped, and the generated-address counter zeroed.
    pub fn reset(&mut self) {
        *self = StridedIndexGenerator::new();
    }

    /// Number of addresses one full run of the current configuration yields
    /// (useful for planning and for tests). Computed by replaying the
    /// configuration on a scratch copy, so it is exact even when the step does
    /// not divide the wrap-around extent.
    pub fn addresses_per_run(&self) -> u64 {
        let cfg = self.config;
        if cfg.step == 0 || cfg.end == 0 || cfg.repeat == 0 {
            return 0;
        }
        let mut probe = StridedIndexGenerator::new();
        probe.load_config(cfg);
        probe.start();
        let cap = cfg.end as u64 * cfg.repeat as u64 + 1;
        let mut count = 0u64;
        while count < cap && probe.tick().is_some() {
            count += 1;
        }
        count
    }
}

impl Default for StridedIndexGenerator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collect(gen: &mut StridedIndexGenerator, max: usize) -> Vec<u16> {
        let mut out = Vec::new();
        for _ in 0..max {
            match gen.tick() {
                Some(a) => out.push(a),
                None => break,
            }
        }
        out
    }

    #[test]
    fn sequential_pattern() {
        let mut gen = StridedIndexGenerator::new();
        gen.load_config(GeneratorConfig {
            addr: 0,
            offset: 0,
            step: 1,
            end: 5,
            repeat: 1,
        });
        gen.start();
        assert_eq!(collect(&mut gen, 100), vec![0, 1, 2, 3, 4]);
        assert!(!gen.is_running());
    }

    #[test]
    fn strided_pattern_matches_zero_insertion_stride() {
        // Reading every other element of an 8-element row — the access pattern
        // GANAX uses to skip one inserted zero column.
        let mut gen = StridedIndexGenerator::new();
        gen.load_config(GeneratorConfig {
            addr: 0,
            offset: 0,
            step: 2,
            end: 8,
            repeat: 1,
        });
        gen.start();
        assert_eq!(collect(&mut gen, 100), vec![0, 2, 4, 6]);
    }

    #[test]
    fn repeat_replays_the_pattern() {
        let mut gen = StridedIndexGenerator::new();
        gen.load_config(GeneratorConfig {
            addr: 0,
            offset: 0,
            step: 1,
            end: 3,
            repeat: 3,
        });
        gen.start();
        assert_eq!(collect(&mut gen, 100), vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
        assert_eq!(gen.generated(), 9);
    }

    #[test]
    fn offset_shifts_every_address() {
        let mut gen = StridedIndexGenerator::new();
        gen.load_config(GeneratorConfig {
            addr: 0,
            offset: 100,
            step: 1,
            end: 3,
            repeat: 1,
        });
        gen.start();
        assert_eq!(collect(&mut gen, 10), vec![100, 101, 102]);
    }

    #[test]
    fn stop_interrupts_and_start_restarts() {
        let mut gen = StridedIndexGenerator::new();
        gen.load_config(GeneratorConfig {
            addr: 0,
            offset: 0,
            step: 1,
            end: 4,
            repeat: 2,
        });
        gen.start();
        assert_eq!(gen.tick(), Some(0));
        assert_eq!(gen.tick(), Some(1));
        gen.stop();
        assert_eq!(gen.tick(), None);
        // Restart begins a fresh run from the configured initial address.
        gen.start();
        assert_eq!(gen.tick(), Some(0));
    }

    #[test]
    fn configure_via_access_registers() {
        let mut gen = StridedIndexGenerator::new();
        gen.configure(AccessReg::Addr, 2);
        gen.configure(AccessReg::Offset, 10);
        gen.configure(AccessReg::Step, 2);
        gen.configure(AccessReg::End, 8);
        gen.configure(AccessReg::Repeat, 1);
        gen.start();
        assert_eq!(collect(&mut gen, 10), vec![12, 14, 16]);
    }

    #[test]
    fn remaining_addresses_tracks_mid_run_state() {
        let mut gen = StridedIndexGenerator::new();
        gen.load_config(GeneratorConfig {
            addr: 0,
            offset: 0,
            step: 1,
            end: 4,
            repeat: 2,
        });
        assert_eq!(gen.remaining_addresses_up_to(100), 0, "stopped generator");
        gen.start();
        assert_eq!(gen.remaining_addresses_up_to(100), 8);
        assert_eq!(gen.remaining_addresses_up_to(3), 3, "cap is respected");
        gen.tick();
        gen.tick();
        assert_eq!(gen.remaining_addresses_up_to(100), 6);
        // The probe must not disturb the live generator.
        assert_eq!(gen.tick(), Some(2));
    }

    #[test]
    fn unconfigured_generator_never_runs() {
        let mut gen = StridedIndexGenerator::new();
        gen.start();
        assert!(!gen.is_running());
        assert_eq!(gen.tick(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The generator emits exactly `addresses_per_run()` addresses and all
        /// of them lie within `[offset + 0, offset + end)`.
        #[test]
        fn prop_run_length_and_range(
            addr in 0u16..8,
            offset in 0u16..32,
            step in 1u16..5,
            end in 1u16..24,
            repeat in 1u16..4,
        ) {
            prop_assume!(addr < end);
            let mut gen = StridedIndexGenerator::new();
            gen.load_config(GeneratorConfig { addr, offset, step, end, repeat });
            gen.start();
            let out = collect(&mut gen, 10_000);
            prop_assert_eq!(out.len() as u64, gen.addresses_per_run());
            for a in &out {
                prop_assert!(*a >= offset);
                prop_assert!(*a < offset + end);
            }
            prop_assert!(!gen.is_running());
        }

        /// When the step divides the wrap-around extent, every replayed round
        /// emits exactly the same address sequence.
        #[test]
        fn prop_rounds_are_identical(
            step in 1u16..5,
            rounds_len in 1u16..8,
            repeat in 2u16..4,
        ) {
            let end = step * rounds_len;
            let mut gen = StridedIndexGenerator::new();
            gen.load_config(GeneratorConfig { addr: 0, offset: 0, step, end, repeat });
            gen.start();
            let out = collect(&mut gen, 10_000);
            let round = rounds_len as usize;
            prop_assert_eq!(out.len(), round * repeat as usize);
            for r in 1..repeat as usize {
                prop_assert_eq!(&out[..round], &out[r * round..(r + 1) * round]);
            }
        }
    }
}
