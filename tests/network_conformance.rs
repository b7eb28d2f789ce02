//! Cross-model conformance: every Table I generator, reduced to a
//! machine-executable geometry ([`ganax_models::Network::reduced`]), runs end
//! to end on the cycle-level machine and must be **bit-identical** to
//!
//! 1. the `ganax_tensor` reference chain (`conv`/`tconv` + host projection +
//!    the shared bias/activation epilogue), and
//! 2. the seed single-step serial path chained by hand
//!    (`execute_layer_reference` per layer),
//!
//! across every thread count.
//!
//! Bit-identity between independently ordered f32 accumulations is achievable
//! because the suite's operands are *small integers*
//! ([`ganax_bench::small_integer_tensor`]): every partial sum is an exactly
//! representable integer far below 2^24, so no accumulation order rounds.
//! The suite asserts that precondition on every intermediate feature map
//! rather than assuming it. Intermediate activations across the zoo
//! generators are `Relu` (integer-preserving); the final `Tanh`/`Sigmoid` is
//! applied elementwise to bit-identical pre-activations, so it cannot diverge
//! either.
//!
//! The one exception is DiscoGAN, whose generator encoder uses `LeakyRelu`:
//! its 0.2 slope is not a dyadic rational, so negative activations leave the
//! exactly-representable domain and downstream accumulation orders may
//! legitimately differ in the last ulps. For that model the tensor-reference
//! comparison is tight-approximate instead; the machine-vs-machine
//! comparisons (`execute_layer_reference` chaining, thread counts) stay
//! bit-exact for every model because those paths share the per-element
//! accumulation order by construction.
//!
//! A property test additionally checks `execute_network` against a hand-made
//! composition of the single-step reference (`execute_layer_reference` per
//! layer) on random small conv/tconv networks.

use ganax::network::{finish_layer_output, host_projection, reference_network_forward};
use ganax::{GanaxMachine, NetworkWeights};
use ganax_bench::{conformance_input, conformance_weights, deterministic_tensor, network_weights};
use ganax_models::{zoo, LayerOp, Network, NetworkBuilder};
use ganax_tensor::{conv, tconv, ConvParams, Shape, Tensor};
use proptest::prelude::*;

/// The six Table I models.
const ZOO: &[&str] = &["3D-GAN", "ArtGAN", "DCGAN", "DiscoGAN", "GP-GAN", "MAGAN"];

/// Channel cap of the reduced geometries: small enough that even the seed
/// single-step path chains a whole generator in seconds, large enough that
/// every layer still has multi-channel structure.
const CHANNEL_CAP: usize = 4;

/// Exactness guard: integer magnitudes a sparse ternary operand chain can
/// reach while every f32 partial sum stays exactly representable (with a wide
/// margin below 2^24).
const MAX_EXACT_MAGNITUDE: f32 = (1 << 20) as f32;

fn reduced(name: &str) -> Network {
    zoo::reduced_generator(name, CHANNEL_CAP).unwrap_or_else(|| panic!("zoo model {name} missing"))
}

/// Whether a network's activation chain keeps small-integer operands exactly
/// representable end to end (everything but `LeakyRelu`, whose 0.2 slope is
/// not dyadic).
fn integer_exact(network: &Network) -> bool {
    network
        .layers()
        .iter()
        .all(|l| l.activation != ganax_models::Activation::LeakyRelu)
}

/// Chains a network through the `ganax_tensor` reference implementations.
/// For integer-exact networks, asserts the small-integer exactness
/// precondition on every pre-epilogue feature map.
fn tensor_reference_chain(network: &Network, input: &Tensor, weights: &NetworkWeights) -> Tensor {
    let check_exact = integer_exact(network);
    let mut current = input.clone();
    for (i, layer) in network.layers().iter().enumerate() {
        let mut out = match &layer.op {
            LayerOp::Projection => {
                host_projection(layer, &current, weights.weight(i)).expect("projection executes")
            }
            LayerOp::Conv(p) => conv(&current, weights.weight(i), p).expect("conv executes"),
            LayerOp::TConv(p) => tconv(&current, weights.weight(i), p).expect("tconv executes"),
        };
        for &v in out.data() {
            if check_exact {
                assert_eq!(
                    v.fract(),
                    0.0,
                    "layer `{}`: non-integer value {v}",
                    layer.name
                );
            }
            assert!(
                v.abs() < MAX_EXACT_MAGNITUDE,
                "layer `{}`: magnitude {v} endangers f32 exactness",
                layer.name
            );
        }
        finish_layer_output(layer, &mut out, weights.bias(i));
        current = out;
    }
    current
}

#[test]
fn zoo_generators_bit_match_the_tensor_reference_end_to_end() {
    for (m, name) in ZOO.iter().enumerate() {
        let network = reduced(name);
        let weights = conformance_weights(&network, 100 + m as u64);
        let input = conformance_input(&network, 900 + m as u64);

        let reference = tensor_reference_chain(&network, &input, &weights);
        let via_core = reference_network_forward(&network, &input, &weights)
            .expect("reference forward executes");
        assert_eq!(
            reference.data(),
            via_core.data(),
            "{name}: the two reference chains disagree"
        );

        let run = GanaxMachine::paper()
            .execute_network(&network, &input, &weights)
            .unwrap_or_else(|e| panic!("{name}: machine execution failed: {e}"));
        assert_eq!(run.output.shape(), network.output_shape(), "{name}");
        if integer_exact(&network) {
            assert_eq!(
                run.output.data(),
                reference.data(),
                "{name}: machine output is not bit-identical to the tensor reference"
            );
        } else {
            // LeakyRelu (0.2 slope, non-dyadic) legitimately allows ulp-level
            // accumulation-order differences downstream; see the module docs.
            assert!(
                run.output.approx_eq(&reference, 1e-4),
                "{name}: machine output diverges from the tensor reference (max diff {})",
                run.output.max_abs_diff(&reference).unwrap()
            );
        }
        // Every PE-array cycle was a consequential MAC.
        assert_eq!(
            run.total_counts().alu_ops,
            run.total_busy_pe_cycles(),
            "{name}"
        );
        assert!(run.total_busy_pe_cycles() > 0, "{name}");
    }
}

#[test]
fn zoo_generators_bit_match_execute_layer_reference_chaining() {
    let machine = GanaxMachine::paper();
    for (m, name) in ZOO.iter().enumerate() {
        let network = reduced(name);
        let weights = conformance_weights(&network, 100 + m as u64);
        let input = conformance_input(&network, 900 + m as u64);
        let run = machine
            .execute_network(&network, &input, &weights)
            .unwrap_or_else(|e| panic!("{name}: machine execution failed: {e}"));

        // Chain the seed single-step serial path by hand.
        let mut current = input.clone();
        let mut busy = 0u64;
        for (i, layer) in network.layers().iter().enumerate() {
            let mut out = if matches!(layer.op, LayerOp::Projection) {
                host_projection(layer, &current, weights.weight(i)).expect("projection executes")
            } else {
                let single = machine
                    .execute_layer_reference(layer, &current, weights.weight(i))
                    .unwrap_or_else(|e| panic!("{name}/{}: {e}", layer.name));
                busy += single.busy_pe_cycles;
                // The layer report must match the single-step run bit for bit.
                let report = &run.layers[i];
                assert_eq!(
                    report.busy_pe_cycles, single.busy_pe_cycles,
                    "{name}/{}",
                    layer.name
                );
                assert_eq!(report.counts, single.counts, "{name}/{}", layer.name);
                assert_eq!(
                    report.work_units, single.work_units,
                    "{name}/{}",
                    layer.name
                );
                single.output
            };
            finish_layer_output(layer, &mut out, weights.bias(i));
            current = out;
        }
        assert_eq!(
            run.output.data(),
            current.data(),
            "{name}: network path diverged from execute_layer_reference chaining"
        );
        assert_eq!(run.total_busy_pe_cycles(), busy, "{name}");
    }
}

#[test]
fn zoo_generators_are_thread_count_invariant() {
    let machine = GanaxMachine::paper();
    for (m, name) in ZOO.iter().enumerate() {
        let network = reduced(name);
        let weights = conformance_weights(&network, 100 + m as u64);
        let input = conformance_input(&network, 900 + m as u64);
        let serial = machine
            .execute_network_threaded(&network, &input, &weights, 1)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for threads in [2, 3, 8] {
            let threaded = machine
                .execute_network_threaded(&network, &input, &weights, threads)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                serial.output.data(),
                threaded.output.data(),
                "{name}: {threads}-thread output diverged"
            );
            for (a, b) in serial.layers.iter().zip(&threaded.layers) {
                assert_eq!(a.busy_pe_cycles, b.busy_pe_cycles, "{name}/{}", a.name);
                assert_eq!(a.counts, b.counts, "{name}/{}", a.name);
                assert_eq!(a.work_units, b.work_units, "{name}/{}", a.name);
            }
        }
    }
}

/// Derives a random-but-valid 2–4 layer conv/tconv network from integer
/// proptest inputs (a splitmix stream seeded by `seed` picks each layer's
/// geometry). Returns `None` when the drawn geometry chain is degenerate.
fn random_network(
    channels: usize,
    extent: usize,
    layer_count: usize,
    seed: u64,
) -> Option<Network> {
    let mut state = seed;
    let mut next = move || ganax_bench::splitmix64(&mut state);
    let mut builder = NetworkBuilder::new("prop-network", Shape::new_2d(channels, extent, extent));
    for i in 0..layer_count {
        let out_channels = 1 + (next() % 3) as usize;
        let kernel = 2 + (next() % 3) as usize;
        let name = format!("layer{i}");
        if next() % 2 == 0 {
            let stride = 1 + (next() % 2) as usize;
            let params = ConvParams::transposed_2d(kernel, stride, kernel / 2);
            builder = builder.tconv(&name, out_channels, params, ganax_models::Activation::Relu);
        } else {
            // Stride-1 same-padded convolutions keep the extent from
            // collapsing below the kernel.
            let params = ConvParams::conv_2d(kernel, 1, kernel / 2);
            builder = builder.conv(&name, out_channels, params, ganax_models::Activation::Relu);
        }
    }
    builder.build().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `execute_network` equals the single-step reference composed by hand —
    /// same outputs, cycles and counters — for random small networks and two
    /// inputs each, across thread counts.
    #[test]
    fn prop_execute_network_equals_hand_composition(
        channels in 1usize..3,
        extent in 4usize..7,
        layer_count in 2usize..5,
        threads in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let Some(network) = random_network(channels, extent, layer_count, seed) else {
            return Ok(());
        };
        let mut weights = network_weights(&network, seed ^ 0xABCD);
        // Exercise the bias path on the first layer.
        let bias_len = network.layers()[0].output.channels;
        weights = weights
            .with_bias(0, (0..bias_len).map(|i| i as f32 * 0.5 - 0.5).collect())
            .expect("bias sized from the layer");
        let machine = GanaxMachine::paper();
        for salt in [0x1234, 0x5678] {
            let input = deterministic_tensor(network.input_shape(), seed ^ salt);
            let run = machine
                .execute_network_threaded(&network, &input, &weights, threads)
                .expect("network executes");

            let mut current = input.clone();
            let mut busy = 0u64;
            let mut work_units = 0u64;
            for (i, layer) in network.layers().iter().enumerate() {
                let single = machine
                    .execute_layer_reference(layer, &current, weights.weight(i))
                    .expect("layer executes");
                prop_assert_eq!(run.layers[i].counts, single.counts, "{} counts", &layer.name);
                busy += single.busy_pe_cycles;
                work_units += single.work_units;
                let mut out = single.output;
                finish_layer_output(layer, &mut out, weights.bias(i));
                current = out;
            }
            prop_assert_eq!(run.output.data(), current.data(), "output diverged");
            prop_assert_eq!(run.total_busy_pe_cycles(), busy);
            prop_assert_eq!(run.total_work_units(), work_units);

            // And the whole-network run is invariant in the thread count.
            let other = machine
                .execute_network_threaded(&network, &input, &weights, threads % 5 + 1)
                .expect("network executes");
            prop_assert_eq!(run.output.data(), other.output.data());
        }
    }
}
