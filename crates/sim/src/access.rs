//! The access µ-engine: three strided index generators feeding address FIFOs.

use ganax_isa::{AccessReg, AccessUop, AddrGenKind};

use crate::fifo::AddrFifo;
use crate::index_gen::{GeneratorConfig, StridedIndexGenerator};

/// The access µ-engine of one PE (Figure 7a).
///
/// It owns one strided µindex generator and one address FIFO per data buffer
/// (input, weight, output). Every cycle each running generator pushes one
/// address into its FIFO unless that FIFO is full, in which case the generator
/// stalls — exactly the synchronization rule of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessEngine {
    generators: [StridedIndexGenerator; 3],
    fifos: [AddrFifo; 3],
    stall_cycles: u64,
}

impl AccessEngine {
    /// Creates an access µ-engine whose three address FIFOs hold
    /// `fifo_capacity` entries each.
    pub fn new(fifo_capacity: usize) -> Self {
        AccessEngine {
            generators: [
                StridedIndexGenerator::new(),
                StridedIndexGenerator::new(),
                StridedIndexGenerator::new(),
            ],
            fifos: [
                AddrFifo::new(fifo_capacity),
                AddrFifo::new(fifo_capacity),
                AddrFifo::new(fifo_capacity),
            ],
            stall_cycles: 0,
        }
    }

    /// Applies an access µop (ignores the µop's PV field — routing to the
    /// right PE is the array's responsibility).
    pub fn apply(&mut self, uop: &AccessUop) {
        match uop {
            AccessUop::Cfg { gen, reg, imm, .. } => self.configure(*gen, *reg, *imm),
            AccessUop::Start { gen, .. } => self.start(*gen),
            AccessUop::Stop { gen, .. } => self.stop(*gen),
        }
    }

    /// Writes one configuration register of one generator.
    pub fn configure(&mut self, gen: AddrGenKind, reg: AccessReg, value: u16) {
        self.generators[gen.index()].configure(reg, value);
    }

    /// Loads a whole generator configuration at once.
    pub fn load_config(&mut self, gen: AddrGenKind, config: GeneratorConfig) {
        self.generators[gen.index()].load_config(config);
    }

    /// Starts one generator.
    pub fn start(&mut self, gen: AddrGenKind) {
        self.generators[gen.index()].start();
    }

    /// Stops one generator.
    pub fn stop(&mut self, gen: AddrGenKind) {
        self.generators[gen.index()].stop();
    }

    /// Starts all three generators.
    pub fn start_all(&mut self) {
        for gen in AddrGenKind::ALL {
            self.start(gen);
        }
    }

    /// Whether any generator is still producing addresses.
    pub fn any_running(&self) -> bool {
        self.generators
            .iter()
            .any(StridedIndexGenerator::is_running)
    }

    /// Advances the engine by one cycle: every running generator emits one
    /// address into its FIFO unless the FIFO is full (a stall).
    pub fn tick(&mut self) {
        for kind in AddrGenKind::ALL {
            let idx = kind.index();
            if !self.generators[idx].is_running() {
                continue;
            }
            if self.fifos[idx].is_full() {
                self.stall_cycles += 1;
                continue;
            }
            if let Some(addr) = self.generators[idx].tick() {
                // Push cannot fail: fullness was checked above.
                self.fifos[idx]
                    .push(addr)
                    .expect("address fifo availability checked before push");
            }
        }
    }

    /// The address FIFO of one buffer.
    pub fn fifo(&self, gen: AddrGenKind) -> &AddrFifo {
        &self.fifos[gen.index()]
    }

    /// Mutable access to the address FIFO of one buffer (the execute µ-engine
    /// pops from these).
    pub fn fifo_mut(&mut self, gen: AddrGenKind) -> &mut AddrFifo {
        &mut self.fifos[gen.index()]
    }

    /// The generator driving one buffer.
    pub fn generator(&self, gen: AddrGenKind) -> &StridedIndexGenerator {
        &self.generators[gen.index()]
    }

    /// Cycles lost to full-FIFO stalls.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Resets the engine to its just-constructed state in place: generators
    /// cleared and stopped, FIFOs emptied (allocations kept), counters zeroed.
    pub fn reset(&mut self) {
        for gen in &mut self.generators {
            gen.reset();
        }
        for fifo in &mut self.fifos {
            fifo.clear();
        }
        self.stall_cycles = 0;
    }

    /// Splits the engine into its generators, FIFOs and stall counter so a
    /// burst-stepping PE can settle a whole dispatch's bookkeeping while
    /// holding disjoint borrows. Index both arrays with
    /// [`AddrGenKind::index`].
    pub(crate) fn burst_parts(
        &mut self,
    ) -> (
        &mut [StridedIndexGenerator; 3],
        &mut [AddrFifo; 3],
        &mut u64,
    ) {
        (
            &mut self.generators,
            &mut self.fifos,
            &mut self.stall_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(end: u16, repeat: u16) -> GeneratorConfig {
        GeneratorConfig {
            addr: 0,
            offset: 0,
            step: 1,
            end,
            repeat,
        }
    }

    #[test]
    fn tick_pushes_one_address_per_running_generator() {
        let mut engine = AccessEngine::new(4);
        engine.load_config(AddrGenKind::Input, linear(4, 1));
        engine.load_config(AddrGenKind::Weight, linear(4, 1));
        engine.start(AddrGenKind::Input);
        engine.start(AddrGenKind::Weight);
        engine.tick();
        assert_eq!(engine.fifo(AddrGenKind::Input).len(), 1);
        assert_eq!(engine.fifo(AddrGenKind::Weight).len(), 1);
        assert_eq!(engine.fifo(AddrGenKind::Output).len(), 0);
    }

    #[test]
    fn full_fifo_stalls_the_generator() {
        let mut engine = AccessEngine::new(2);
        engine.load_config(AddrGenKind::Input, linear(8, 1));
        engine.start(AddrGenKind::Input);
        for _ in 0..5 {
            engine.tick();
        }
        // Only two addresses fit; the rest of the ticks are stalls.
        assert_eq!(engine.fifo(AddrGenKind::Input).len(), 2);
        assert_eq!(engine.stall_cycles(), 3);
        assert_eq!(engine.generator(AddrGenKind::Input).generated(), 2);
        // Draining the FIFO lets generation resume.
        engine.fifo_mut(AddrGenKind::Input).pop();
        engine.tick();
        assert_eq!(engine.fifo(AddrGenKind::Input).len(), 2);
        assert_eq!(engine.generator(AddrGenKind::Input).generated(), 3);
    }

    #[test]
    fn apply_access_uops() {
        let mut engine = AccessEngine::new(4);
        for (reg, value) in [
            (AccessReg::Addr, 0u16),
            (AccessReg::Offset, 0),
            (AccessReg::Step, 2),
            (AccessReg::End, 6),
            (AccessReg::Repeat, 1),
        ] {
            engine.apply(&AccessUop::Cfg {
                pv: 0,
                gen: AddrGenKind::Weight,
                reg,
                imm: value,
            });
        }
        engine.apply(&AccessUop::Start {
            pv: 0,
            gen: AddrGenKind::Weight,
        });
        assert!(engine.any_running());
        engine.tick();
        engine.tick();
        engine.tick();
        engine.tick();
        assert!(!engine.any_running());
        let fifo = engine.fifo_mut(AddrGenKind::Weight);
        assert_eq!(
            (fifo.pop(), fifo.pop(), fifo.pop(), fifo.pop()),
            (Some(0), Some(2), Some(4), None)
        );
    }

    #[test]
    fn stop_uop_halts_generation() {
        let mut engine = AccessEngine::new(4);
        engine.load_config(AddrGenKind::Output, linear(10, 1));
        engine.start(AddrGenKind::Output);
        engine.tick();
        engine.apply(&AccessUop::Stop {
            pv: 0,
            gen: AddrGenKind::Output,
        });
        engine.tick();
        assert_eq!(engine.fifo(AddrGenKind::Output).len(), 1);
    }
}
