//! Serving conformance: the compile-once inference engine must be
//! **bit-identical** to one-shot execution and to both oracles.
//!
//! Three properties pin the engine down:
//!
//! 1. a [`CompiledNetwork`] reused across `K` random inputs produces exactly
//!    the outputs, cycle counts and [`EventCounts`] of `K` fresh
//!    [`GanaxMachine::execute_network`] calls (the plan cache changes *when*
//!    planning happens, never *what* executes);
//! 2. [`InferenceEngine::execute_batch`] equals per-input sequential
//!    execution at every pool size — per-element outputs bit for bit, and
//!    the aggregated busy cycles / [`EventCounts`] / energy equal to the sum
//!    of the sequential runs;
//! 3. on reduced Table I generators the engine equals the `ganax_tensor`
//!    chain ([`reference_network_forward`]) and the single-step reference
//!    chained by hand ([`GanaxMachine::execute_layer_reference`]), so the
//!    serving path inherits the conformance suite's guarantees.
//!
//! Engine runs are also asserted to perform **zero planning**
//! ([`NetworkExecution::plan_seconds`]) — the compile-once contract.

use ganax::network::{finish_layer_output, host_projection, reference_network_forward};
use ganax::{GanaxMachine, InferenceEngine, NetworkWeights};
use ganax_bench::{conformance_input, conformance_weights, deterministic_tensor};
use ganax_energy::{EnergyModel, EventCounts};
use ganax_models::{zoo, Activation, LayerOp, Network, NetworkBuilder};
use ganax_tensor::{ConvParams, Shape, Tensor};
use proptest::prelude::*;

#[allow(unused_imports)]
use ganax::{CompiledNetwork, NetworkExecution}; // doc-link targets above

fn toy_network(in_channels: usize, extent: usize, mid_channels: usize) -> Option<Network> {
    NetworkBuilder::new("prop-serve", Shape::new_2d(in_channels, extent, extent))
        .tconv(
            "up",
            mid_channels,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::Relu,
        )
        .conv("smooth", 2, ConvParams::conv_2d(3, 1, 1), Activation::None)
        .build()
        .ok()
}

fn random_weights(network: &Network, seed: u64) -> NetworkWeights {
    let tensors = network
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| deterministic_tensor(NetworkWeights::expected_shape(l), seed + i as u64))
        .collect();
    NetworkWeights::new(network, tensors).expect("weights match the network")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A compiled network reused across K random inputs is bit-identical to
    /// K fresh `execute_network` calls.
    #[test]
    fn prop_compiled_reuse_equals_fresh_calls(
        in_channels in 1usize..3,
        extent in 3usize..6,
        mid_channels in 1usize..4,
        threads in 1usize..5,
        k in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let Some(network) = toy_network(in_channels, extent, mid_channels) else {
            return Ok(());
        };
        let weights = random_weights(&network, seed);
        let machine = GanaxMachine::paper();
        let engine = InferenceEngine::new(machine, threads);
        let compiled = engine.compile(&network, &weights).expect("network compiles");
        for j in 0..k as u64 {
            let input = deterministic_tensor(network.input_shape(), seed + 17 * j + 1);
            let warm = engine.execute(&compiled, &input).expect("warm run executes");
            let fresh = machine
                .execute_network_threaded(&network, &input, &weights, threads)
                .expect("fresh run executes");
            prop_assert_eq!(&warm.output, &fresh.output, "output diverged on reuse {}", j);
            prop_assert_eq!(warm.total_counts(), fresh.total_counts());
            prop_assert_eq!(warm.total_busy_pe_cycles(), fresh.total_busy_pe_cycles());
            prop_assert_eq!(warm.total_work_units(), fresh.total_work_units());
            prop_assert_eq!(warm.plan_seconds, 0.0, "warm run planned");
        }
    }

    /// `execute_batch` equals per-input sequential execution across thread
    /// counts, including the aggregated `EventCounts` and energy.
    #[test]
    fn prop_batch_equals_sequential(
        in_channels in 1usize..3,
        extent in 3usize..6,
        mid_channels in 1usize..4,
        threads in 1usize..6,
        batch in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let Some(network) = toy_network(in_channels, extent, mid_channels) else {
            return Ok(());
        };
        let weights = random_weights(&network, seed);
        let engine = InferenceEngine::new(GanaxMachine::paper(), threads);
        let compiled = engine.compile(&network, &weights).expect("network compiles");
        let inputs: Vec<Tensor> = (0..batch as u64)
            .map(|j| deterministic_tensor(network.input_shape(), seed + 29 * j + 3))
            .collect();
        let run = engine.execute_batch(&compiled, &inputs).expect("batch executes");
        prop_assert_eq!(run.batch_size(), batch);

        let mut busy = 0u64;
        let mut counts = EventCounts::default();
        let mut work_units = 0u64;
        for (input, output) in inputs.iter().zip(&run.outputs) {
            let single = engine.execute(&compiled, input).expect("sequential run executes");
            prop_assert_eq!(&single.output, output, "batch element diverged");
            busy += single.total_busy_pe_cycles();
            counts += single.total_counts();
            work_units += single.total_work_units();
        }
        prop_assert_eq!(run.busy_pe_cycles, busy, "aggregate busy cycles diverged");
        prop_assert_eq!(run.counts, counts, "aggregate counters diverged");
        prop_assert_eq!(run.work_units, work_units, "aggregate work units diverged");
        let model = EnergyModel::table_ii();
        prop_assert_eq!(
            run.energy(&model).total_pj(),
            model.energy(&counts).total_pj(),
            "aggregate energy diverged"
        );
    }
}

/// The engine reproduces both oracles bit for bit on reduced Table I
/// generators: the `ganax_tensor` chain's outputs (small-integer operands
/// keep every f32 accumulation order exact — see
/// `tests/network_conformance.rs`) and the hand-chained single-step
/// reference's counters and busy cycles.
#[test]
fn engine_matches_reference_chains_on_reduced_zoo() {
    let machine = GanaxMachine::paper();
    for (m, name) in ["DCGAN", "ArtGAN", "MAGAN"].iter().enumerate() {
        let network = zoo::reduced_generator(name, 4).expect("model is in the zoo");
        let weights = conformance_weights(&network, 300 + m as u64);
        for seed in [700 + m as u64, 800 + m as u64] {
            let input = conformance_input(&network, seed);
            let tensor = reference_network_forward(&network, &input, &weights)
                .expect("tensor chain executes");
            let mut current = input.clone();
            let mut counts = EventCounts::default();
            let mut busy = 0u64;
            for (i, layer) in network.layers().iter().enumerate() {
                let mut out = if matches!(layer.op, LayerOp::Projection) {
                    host_projection(layer, &current, weights.weight(i)).expect("projection")
                } else {
                    let single = machine
                        .execute_layer_reference(layer, &current, weights.weight(i))
                        .expect("single-step reference executes");
                    counts += single.counts;
                    busy += single.busy_pe_cycles;
                    single.output
                };
                finish_layer_output(layer, &mut out, weights.bias(i));
                current = out;
            }
            assert_eq!(current, tensor, "{name}: the two oracles disagree");
            for threads in [1, 3] {
                let engine = InferenceEngine::new(machine, threads);
                let compiled = engine.compile(&network, &weights).expect("compiles");
                let run = engine.execute(&compiled, &input).expect("executes");
                assert_eq!(run.output, tensor, "{name} output @ {threads}t");
                assert_eq!(run.total_counts(), counts, "{name} counts");
                assert_eq!(run.total_busy_pe_cycles(), busy, "{name} busy cycles");
                assert_eq!(run.plan_seconds, 0.0, "{name}: warm run planned");

                let batch = engine
                    .execute_batch(&compiled, std::slice::from_ref(&input))
                    .expect("one-element batch executes");
                assert_eq!(batch.outputs[0], tensor, "{name} batch output");
            }
        }
    }
}

/// One-shot `execute_network` (now engine-backed) reports its compile cost
/// in `plan_seconds`, and reports every layer with a balance in (0, 1].
#[test]
fn one_shot_path_reports_plan_cost() {
    let network = zoo::reduced_generator("DCGAN", 4).expect("DCGAN is in the zoo");
    let weights = conformance_weights(&network, 11);
    let input = conformance_input(&network, 13);
    let run = GanaxMachine::paper()
        .execute_network_threaded(&network, &input, &weights, 2)
        .expect("one-shot run executes");
    assert!(
        run.plan_seconds > 0.0,
        "one-shot calls pay the compile cost"
    );
    assert!(run.wall_seconds >= run.plan_seconds);
    assert_eq!(run.layers.len(), network.layers().len());
    for layer in run.machine_layers() {
        assert!(
            layer.balance > 0.0 && layer.balance <= 1.0,
            "{}",
            layer.name
        );
    }
}
