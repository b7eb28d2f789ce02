//! Integration tests of the compile → dispatch → account pipeline across the
//! ISA, simulator, dataflow and accelerator crates.

use ganax::{GanaxCompiler, GanaxConfig, GanaxModel};
use ganax_dataflow::{ArrayConfig, DataflowMode, LayerGeometry, ScheduleEstimate};
use ganax_eyeriss::EyerissModel;
use ganax_isa::{GlobalUop, GlobalUopWord, LOCAL_UOP_ENTRIES};
use ganax_models::zoo;

#[test]
fn compiled_programs_fit_the_paper_buffer_sizes_for_every_zoo_layer() {
    let compiler = GanaxCompiler::paper();
    for gan in zoo::all_models() {
        for layer in gan
            .generator
            .layers()
            .iter()
            .chain(gan.discriminator.layers())
        {
            let program = compiler.compile_layer(layer).unwrap();
            let stats = program.stats();
            assert!(
                stats.max_local_entries <= LOCAL_UOP_ENTRIES,
                "{}/{}: local image too large",
                gan.name,
                layer.name
            );
            assert!(
                stats.global_entries <= 32,
                "{}/{}: global sequence exceeds the 32-entry buffer",
                gan.name,
                layer.name
            );
            // Every global entry must be encodable in the 64-bit format.
            for uop in &program.global_sequence {
                let word = GlobalUopWord::encode(uop, program.num_pvs()).unwrap();
                assert_eq!(&GlobalUop::decode(word, program.num_pvs()).unwrap(), uop);
            }
            // Mode selection: SIMD for conventional layers, MIMD-SIMD for
            // transposed ones.
            if layer.is_tconv() {
                assert_eq!(stats.simd_entries, 0, "{}/{}", gan.name, layer.name);
            } else {
                assert_eq!(stats.mimd_entries(), 0, "{}/{}", gan.name, layer.name);
            }
        }
    }
}

#[test]
fn schedule_estimates_are_consistent_with_accelerator_stats() {
    let array = ArrayConfig::paper();
    let eyeriss = EyerissModel::paper();
    let ganax = GanaxModel::paper();
    for gan in zoo::all_models() {
        for layer in gan.generator.layers() {
            let geometry = LayerGeometry::for_layer(layer).unwrap();
            let conv = ScheduleEstimate::estimate(&geometry, array, DataflowMode::Conventional);
            let reorg = ScheduleEstimate::estimate(&geometry, array, DataflowMode::Reorganized);
            assert_eq!(
                eyeriss.run_layer(layer).unwrap().cycles,
                conv.schedule_cycles
            );
            assert_eq!(
                ganax.run_layer(layer).unwrap().cycles,
                reorg.schedule_cycles
            );
            assert!(reorg.schedule_cycles <= conv.schedule_cycles);
        }
    }
}

#[test]
fn accelerators_agree_exactly_on_discriminators() {
    let eyeriss = EyerissModel::paper();
    let ganax = GanaxModel::paper();
    for gan in zoo::all_models() {
        // MAGAN's auto-encoder discriminator contains transposed convolutions,
        // which GANAX legitimately accelerates; all other discriminators are
        // pure CNNs and must behave identically on both accelerators.
        if gan.name == "MAGAN" {
            continue;
        }
        let e = eyeriss.run_network(&gan.discriminator).unwrap();
        let g = ganax.run_network(&gan.discriminator).unwrap();
        assert_eq!(e.total_cycles(), g.total_cycles(), "{}", gan.name);
        assert_eq!(
            e.total_counts().alu_ops,
            g.total_counts().alu_ops,
            "{}",
            gan.name
        );
    }
}

#[test]
fn energy_breakdown_totals_match_component_sums() {
    let ganax = GanaxModel::paper();
    for gan in zoo::all_models() {
        let stats = ganax.run_network(&gan.generator).unwrap();
        let total = stats.total_energy();
        let component_sum: f64 = stats.layers.iter().map(|l| l.energy.total_pj()).sum();
        assert!(
            (total.total_pj() - component_sum).abs() < component_sum * 1e-9,
            "{}",
            gan.name
        );
    }
}

#[test]
fn ganax_config_is_shared_between_models() {
    let config = GanaxConfig::paper();
    assert_eq!(config.base.array.num_pvs, 16);
    assert_eq!(config.base.array.pes_per_pv, 16);
    let eyeriss = EyerissModel::new(config.base);
    let ganax = GanaxModel::new(config);
    assert_eq!(
        eyeriss.config().frequency_hz,
        ganax.config().base.frequency_hz
    );
}
