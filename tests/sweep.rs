//! Integration coverage for the configurable geometry and the sweep engine:
//!
//! * non-default configurations drive the cycle-level machine end to end,
//!   bit-identically across thread counts and against the tensor reference
//!   chain (the configurable-geometry acceptance path);
//! * configs round-trip through JSON;
//! * a sweep of size 1 over the default config is *exactly* the direct
//!   non-sweep comparison path (property-tested across the whole zoo).

use ganax::compare::ModelComparison;
use ganax::network::reference_network_forward;
use ganax::{DesignPoint, GanaxConfig, GanaxMachine, GanaxModel, SweepSpec};
use ganax_bench::{conformance_input, conformance_weights};
use ganax_models::zoo;
use ganax_sim::PeConfig;
use proptest::prelude::*;

/// The configurable-geometry acceptance check: an 8×8-PV design with halved
/// SIMD lanes — and a halved worker-PE sizing for the machine — runs the
/// reduced DCGAN generator end to end on the cycle-level machine,
/// bit-identically across thread counts and bit-identically to the
/// `ganax_tensor` reference chain (small-integer operands make f32
/// bit-identity across accumulation orders exact).
#[test]
fn non_default_config_runs_reduced_dcgan_bit_identically_across_threads() {
    let sim_pe = PeConfig {
        input_words: 512,
        weight_words: 512,
        output_words: 512,
        addr_fifo_entries: 8,
        uop_fifo_entries: 128,
    };
    let config = GanaxConfig::paper()
        .with_geometry(8, 8)
        .unwrap()
        .with_sim_pe(sim_pe)
        .unwrap();
    assert_eq!(config.array().simd_lanes(), 8);

    let network = zoo::reduced_generator("DCGAN", 4).unwrap();
    let weights = conformance_weights(&network, 2024);
    let input = conformance_input(&network, 4040);

    let machine = GanaxMachine::new(config);
    let serial = machine
        .execute_network_threaded(&network, &input, &weights, 1)
        .unwrap();
    let reference = reference_network_forward(&network, &input, &weights).unwrap();
    assert_eq!(
        serial.output, reference,
        "non-default config diverged from the tensor reference chain"
    );

    for threads in [2, 3, 8] {
        let threaded = machine
            .execute_network_threaded(&network, &input, &weights, threads)
            .unwrap();
        assert_eq!(serial.output, threaded.output, "{threads}-thread output");
        for (a, b) in serial.layers.iter().zip(&threaded.layers) {
            assert_eq!(a.busy_pe_cycles, b.busy_pe_cycles, "{}", a.name);
            assert_eq!(a.counts, b.counts, "{}", a.name);
            assert_eq!(a.work_units, b.work_units, "{}", a.name);
        }
    }

    // The machine's measured activity still cross-checks against the
    // analytic model *at the same non-default configuration*.
    for check in GanaxModel::new(config)
        .cross_check(&network, &serial)
        .unwrap()
    {
        assert!(check.is_consistent(), "{} diverged", check.layer);
    }
}

/// The worker-PE sizing changes chunking (simulation wall-clock), never
/// results: a machine with a non-default `sim_pe` produces the same outputs
/// and counters as the paper machine.
#[test]
fn sim_pe_sizing_does_not_change_results() {
    let sim_pe = PeConfig {
        input_words: 256,
        weight_words: 300,
        output_words: 200,
        addr_fifo_entries: 8,
        uop_fifo_entries: 32,
    };
    let config = GanaxConfig::paper().with_sim_pe(sim_pe).unwrap();
    let network = zoo::reduced_generator("DCGAN", 3).unwrap();
    let weights = conformance_weights(&network, 77);
    let input = conformance_input(&network, 78);

    let paper = GanaxMachine::paper()
        .execute_network_threaded(&network, &input, &weights, 2)
        .unwrap();
    let resized = GanaxMachine::new(config)
        .execute_network_threaded(&network, &input, &weights, 2)
        .unwrap();
    assert_eq!(paper.output, resized.output);
    for (a, b) in paper.layers.iter().zip(&resized.layers) {
        assert_eq!(a.busy_pe_cycles, b.busy_pe_cycles, "{}", a.name);
        assert_eq!(a.counts, b.counts, "{}", a.name);
    }
}

#[test]
fn config_json_round_trip_preserves_non_default_geometry() {
    let config = GanaxConfig::paper()
        .with_geometry(8, 32)
        .unwrap()
        .with_frequency_hz(650.0e6)
        .unwrap();
    let back = GanaxConfig::from_json(&config.to_json().unwrap()).unwrap();
    assert_eq!(back, config);
    // The round-tripped config drives the models identically.
    let gan = zoo::dcgan();
    let direct = ModelComparison::compare_with(&gan, config);
    let reparsed = ModelComparison::compare_with(&gan, back);
    assert_eq!(direct, reparsed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A sweep of size 1 over `GanaxConfig::default()` reports exactly what
    /// the direct non-sweep path computes, for every zoo model.
    #[test]
    fn prop_default_config_size_one_sweep_equals_direct_path(
        model_index in 0usize..6,
        threads in 1usize..4,
    ) {
        let gan = zoo::all_models().swap_remove(model_index);
        let point = DesignPoint {
            label: "paper".to_string(),
            config: GanaxConfig::default(),
        };
        let result = SweepSpec::new(vec![point], &[&gan.name])
            .unwrap()
            .with_threads(threads)
            .run();
        prop_assert_eq!(result.cells.len(), 1);
        let cell = &result.cells[0];

        let direct = ModelComparison::compare(&gan);
        prop_assert_eq!(cell.ganax_cycles, direct.ganax_generator.total_cycles());
        prop_assert_eq!(cell.eyeriss_cycles, direct.eyeriss_generator.total_cycles());
        // Same pure-f64 computation, so the derived metrics are bit-equal,
        // not just approximately equal.
        prop_assert_eq!(cell.speedup, direct.generator_speedup());
        prop_assert_eq!(cell.energy_reduction, direct.generator_energy_reduction());
        prop_assert_eq!(
            cell.ganax_energy_pj,
            direct.ganax_generator.total_energy().total_pj()
        );
        prop_assert_eq!(cell.total_pes, 256);
        // A single point is trivially Pareto-optimal.
        prop_assert!(result.designs[0].pareto_optimal);
    }
}
