//! The GANAX layer compiler: lowers a layer into the µop program of Section IV.
//!
//! Before a layer starts, the host statically translates it into (1) access
//! µops that configure each PV's strided µindex generators, (2) `mimd.ld`
//! preloads of the per-PE repeat registers, (3) the per-PV local µop buffer
//! images and (4) the steady-state global µop sequence. Conventional
//! convolution layers compile to pure SIMD sequences (the local buffers are
//! bypassed); transposed convolution layers compile to MIMD-SIMD sequences in
//! which each PV executes the microprogram of the phase group it was assigned.

use ganax_dataflow::LayerGeometry;
use ganax_isa::{
    AccessReg, AccessUop, AddrGenKind, ExecUop, GlobalUopWord, LayerProgram, MicroRegister, MimdUop,
};
use ganax_models::Layer;

use crate::config::GanaxConfig;
use crate::machine::{geometry_unsupported, MachineError};

/// Compiles layers into [`LayerProgram`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GanaxCompiler {
    config: GanaxConfig,
}

impl GanaxCompiler {
    /// Creates a compiler for an accelerator configuration.
    pub fn new(config: GanaxConfig) -> Self {
        GanaxCompiler { config }
    }

    /// Creates a compiler for the paper's configuration.
    pub fn paper() -> Self {
        Self::new(GanaxConfig::paper())
    }

    /// Whether a layer executes in SIMD mode (conventional convolutions and
    /// projections) or requires MIMD-SIMD mode (transposed convolutions).
    pub fn uses_simd_mode(layer: &Layer) -> bool {
        !layer.is_tconv()
    }

    /// Compiles one layer.
    ///
    /// # Errors
    /// [`MachineError::Unsupported`] for a transposed convolution whose
    /// padding is not below its kernel on some axis (it crops its output;
    /// see [`LayerGeometry::for_layer`]).
    pub fn compile_layer(&self, layer: &Layer) -> Result<LayerProgram, MachineError> {
        let num_pvs = self.config.array().num_pvs;
        let geometry = LayerGeometry::for_layer(layer).map_err(geometry_unsupported)?;
        let mut program = LayerProgram::new(&layer.name, num_pvs);

        if Self::uses_simd_mode(layer) {
            self.compile_simd(layer, &geometry, &mut program);
        } else {
            self.compile_mimd_simd(layer, &geometry, &mut program);
        }
        Ok(program)
    }

    /// SIMD compilation: every PE runs the same repeated `mac` on distinct
    /// data; the local µop buffers are bypassed entirely.
    fn compile_simd(&self, layer: &Layer, geometry: &LayerGeometry, program: &mut LayerProgram) {
        let repeat = clamp_u16(geometry.dense_unit_macs());
        for pv in 0..program.num_pvs() as u8 {
            program
                .access_setup
                .extend(access_setup_for_pv(pv, geometry, false));
            program.register_setup.push(MimdUop::Ld {
                pv,
                dst: MicroRegister::RepeatCount,
                imm: repeat,
            });
        }
        program.push_simd(ExecUop::Repeat);
        program.push_simd(ExecUop::Mac);
        if layer.activation.is_some() {
            program.push_simd(ExecUop::Act);
        }
    }

    /// MIMD-SIMD compilation: each PV is assigned one phase group and executes
    /// that group's microprogram; the global entries carry one local-buffer
    /// index per PV.
    fn compile_mimd_simd(
        &self,
        layer: &Layer,
        geometry: &LayerGeometry,
        program: &mut LayerProgram,
    ) {
        let num_pvs = program.num_pvs();
        let groups = geometry.phase_groups();
        assert!(
            !groups.is_empty(),
            "transposed layer must have phase groups"
        );
        // PVs are assigned to phase groups round-robin, which is exactly the
        // forced adjacency of the output-row reorganization: PVs processing
        // rows with the same zero pattern sit next to each other.
        let assignment: Vec<usize> = (0..num_pvs).map(|pv| pv % groups.len()).collect();

        // Every PE streams the consequential taps of one output row, so the
        // repeat count is the per-node consequential MAC count.
        let repeat = clamp_u16(geometry.consequential_unit_macs().max(1));
        for pv in 0..assignment.len() as u8 {
            program
                .access_setup
                .extend(access_setup_for_pv(pv, geometry, true));
            program.register_setup.push(MimdUop::Ld {
                pv,
                dst: MicroRegister::RepeatCount,
                imm: repeat,
            });
        }

        // Steady state: every PV issues a repeated mac for its group, then the
        // activation if the layer has one. Groups with no consequential nodes
        // (possible only for degenerate geometries) idle via `nop`.
        let macs: Vec<ExecUop> = assignment
            .iter()
            .map(|g| {
                if groups[*g].consequential_nodes == 0 {
                    ExecUop::Nop
                } else {
                    ExecUop::Mac
                }
            })
            .collect();
        let repeats: Vec<ExecUop> = macs
            .iter()
            .map(|m| {
                if *m == ExecUop::Nop {
                    ExecUop::Nop
                } else {
                    ExecUop::Repeat
                }
            })
            .collect();
        program
            .push_mimd(&repeats)
            .expect("local uop images stay within 16 entries");
        program
            .push_mimd(&macs)
            .expect("local uop images stay within 16 entries");
        if layer.activation.is_some() {
            let acts: Vec<ExecUop> = assignment.iter().map(|_| ExecUop::Act).collect();
            program
                .push_mimd(&acts)
                .expect("local uop images stay within 16 entries");
        }
    }

    /// Encodes the compiled global sequence into 64-bit global µop words,
    /// verifying that the program is representable in the paper's format.
    pub fn encode_global_sequence(&self, program: &LayerProgram) -> Vec<GlobalUopWord> {
        program
            .global_sequence
            .iter()
            .map(|uop| {
                GlobalUopWord::encode(uop, program.num_pvs())
                    .expect("compiled programs target at most 16 PVs with 4-bit indices")
            })
            .collect()
    }
}

impl Default for GanaxCompiler {
    fn default() -> Self {
        Self::paper()
    }
}

/// Access-engine setup for one PV: configure and start the input, weight and
/// output µindex generators. For transposed convolutions the input generator
/// is strided (it skips the inserted zero columns); for conventional layers it
/// is sequential.
fn access_setup_for_pv(pv: u8, geometry: &LayerGeometry, strided: bool) -> Vec<AccessUop> {
    let input_step = if strided {
        geometry
            .width_phases
            .as_ref()
            .map(|p| p.num_phases() as u16)
            .unwrap_or(1)
    } else {
        1
    };
    let input_end = clamp_u16(geometry.input.width as u64).max(1);
    let weight_end = clamp_u16(geometry.kernel.2 as u64).max(1);
    let output_end = clamp_u16(geometry.output.width as u64).max(1);
    let repeat = clamp_u16(geometry.total_output_rows()).max(1);

    let mut uops = Vec::new();
    for (gen, step, end) in [
        (AddrGenKind::Input, input_step.max(1), input_end),
        (AddrGenKind::Weight, 1, weight_end),
        (AddrGenKind::Output, 1, output_end),
    ] {
        for (reg, imm) in [
            (AccessReg::Addr, 0u16),
            (AccessReg::Offset, 0),
            (AccessReg::Step, step),
            (AccessReg::End, end),
            (AccessReg::Repeat, repeat),
        ] {
            uops.push(AccessUop::Cfg { pv, gen, reg, imm });
        }
        uops.push(AccessUop::Start { pv, gen });
    }
    uops
}

fn clamp_u16(value: u64) -> u16 {
    value.min(u16::MAX as u64) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_isa::GlobalUop;
    use ganax_models::zoo;
    use ganax_tensor::{ConvParams, Shape};

    fn compiler() -> GanaxCompiler {
        GanaxCompiler::paper()
    }

    #[test]
    fn conv_layers_compile_to_simd_programs() {
        let dcgan = zoo::dcgan();
        for layer in dcgan.discriminator.layers() {
            let program = compiler().compile_layer(layer).unwrap();
            let stats = program.stats();
            assert_eq!(stats.mimd_entries(), 0, "{}", layer.name);
            assert!(stats.simd_entries >= 2);
            assert!(stats.access_uops > 0);
        }
    }

    #[test]
    fn tconv_layers_compile_to_mimd_simd_programs() {
        let dcgan = zoo::dcgan();
        for layer in dcgan.generator.layers().iter().filter(|l| l.is_tconv()) {
            let program = compiler().compile_layer(layer).unwrap();
            let stats = program.stats();
            assert!(stats.mimd_entries() >= 2, "{}", layer.name);
            assert_eq!(stats.simd_entries, 0, "{}", layer.name);
            assert!(stats.max_local_entries <= 16);
        }
    }

    #[test]
    fn every_pv_gets_access_setup_and_repeat_preload() {
        let dcgan = zoo::dcgan();
        let layer = &dcgan.generator.layers()[1];
        let program = compiler().compile_layer(layer).unwrap();
        let num_pvs = GanaxConfig::paper().array().num_pvs;
        // 3 generators x (5 cfg + 1 start) per PV.
        assert_eq!(program.access_setup.len(), num_pvs * 18);
        assert_eq!(program.register_setup.len(), num_pvs);
        for pv in 0..num_pvs as u8 {
            assert!(program
                .register_setup
                .iter()
                .any(|uop| matches!(uop, MimdUop::Ld { pv: p, .. } if *p == pv)));
        }
    }

    #[test]
    fn strided_input_access_for_tconv_sequential_for_conv() {
        let dcgan = zoo::dcgan();
        let tconv = &dcgan.generator.layers()[1];
        let conv = &dcgan.discriminator.layers()[0];
        let step_of = |program: &LayerProgram| {
            program
                .access_setup
                .iter()
                .find_map(|uop| match uop {
                    AccessUop::Cfg {
                        gen: AddrGenKind::Input,
                        reg: AccessReg::Step,
                        imm,
                        ..
                    } => Some(*imm),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(step_of(&compiler().compile_layer(tconv).unwrap()), 2);
        assert_eq!(step_of(&compiler().compile_layer(conv).unwrap()), 1);
    }

    #[test]
    fn global_sequences_are_encodable() {
        let gan = zoo::three_d_gan();
        for layer in gan
            .generator
            .layers()
            .iter()
            .chain(gan.discriminator.layers())
        {
            let program = compiler().compile_layer(layer).unwrap();
            let words = compiler().encode_global_sequence(&program);
            assert_eq!(words.len(), program.global_sequence.len());
            for (word, uop) in words.iter().zip(&program.global_sequence) {
                assert_eq!(&GlobalUop::decode(*word, program.num_pvs()).unwrap(), uop);
            }
        }
    }

    #[test]
    fn activation_adds_one_more_stage() {
        let with_act = Layer::conv(
            "a",
            Shape::new_2d(8, 8, 8),
            8,
            ConvParams::transposed_2d(4, 2, 1),
            ganax_models::Activation::Relu,
        )
        .unwrap();
        let without_act = Layer::conv(
            "b",
            Shape::new_2d(8, 8, 8),
            8,
            ConvParams::transposed_2d(4, 2, 1),
            ganax_models::Activation::None,
        )
        .unwrap();
        let a = compiler()
            .compile_layer(&with_act)
            .unwrap()
            .stats()
            .global_entries;
        let b = compiler()
            .compile_layer(&without_act)
            .unwrap()
            .stats()
            .global_entries;
        assert_eq!(a, b + 1);
    }

    #[test]
    fn uses_simd_mode_classification() {
        let gan = zoo::disco_gan();
        for layer in gan.generator.layers() {
            assert_eq!(GanaxCompiler::uses_simd_mode(layer), !layer.is_tconv());
        }
    }
}
