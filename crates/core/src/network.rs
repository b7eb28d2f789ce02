//! End-to-end network execution on the cycle-level machine.
//!
//! [`GanaxMachine::execute_network`] compiles a [`Network`] and runs it once
//! on a fresh [`InferenceEngine`](crate::InferenceEngine), the same
//! resident-PE pool the serving stack keeps warm:
//!
//! * **inter-layer handoff** — each layer's output feature map (bias applied,
//!   activation applied) becomes the next layer's input; for transposed
//!   convolutions the next layer's plan addresses the original (non-inserted)
//!   elements directly through the zero-insertion phase analysis of
//!   `ganax_dataflow`, and its rows are dispatched in the phase-major order
//!   of the Figure 5 output-row reorganization;
//! * **host stages** — fully-connected projection layers (latent vector →
//!   initial feature map) run on the host, exactly as the machine's layer
//!   API documents; their cycles and counts are reported as zero and flagged
//!   [`LayerExecution::host`].
//!
//! The result is a [`NetworkExecution`] report: per-layer busy cycles,
//! [`EventCounts`], load-balance utilization and wall-clock, plus the final
//! output tensor. The report plugs into the analytic models through
//! [`GanaxModel::cross_check`](crate::GanaxModel::cross_check) and
//! [`SimulatedComparison`](crate::compare::SimulatedComparison).
//!
//! # Example
//!
//! ```
//! use ganax::{GanaxMachine, NetworkWeights};
//! use ganax_models::{Activation, NetworkBuilder};
//! use ganax_tensor::{ConvParams, Shape, Tensor};
//!
//! let net = NetworkBuilder::new("toy", Shape::new_2d(1, 4, 4))
//!     .tconv("up", 1, ConvParams::transposed_2d(5, 2, 2), Activation::Relu)
//!     .build()
//!     .unwrap();
//! let weights =
//!     NetworkWeights::new(&net, vec![Tensor::filled_filter(1, 1, 1, 5, 5, 0.5)]).unwrap();
//! let input = Tensor::filled(net.input_shape(), 1.0);
//! let run = GanaxMachine::paper()
//!     .execute_network(&net, &input, &weights)
//!     .unwrap();
//! assert_eq!(run.output.shape(), net.output_shape());
//! assert!(run.total_busy_pe_cycles() > 0);
//! ```

use std::sync::Arc;
use std::time::Instant;

use ganax_energy::{EnergyBreakdown, EnergyModel, EventCounts};
use ganax_models::{Activation, Layer, LayerOp, Network};
use ganax_sim::ActivationKind;
use ganax_tensor::{conv, tconv, Shape, Tensor};

use crate::machine::{GanaxMachine, MachineError};

/// Per-layer weight tensors (and optional per-channel biases) for one
/// [`Network`], validated against the network's layer shapes.
///
/// The tensors are read-only once bundled and shared behind an [`Arc`], so
/// cloning a bundle (as a [`CompiledNetwork`](crate::CompiledNetwork) or a
/// serving model entry does) never copies the weights.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkWeights {
    weights: Arc<[Tensor]>,
    biases: Vec<Option<Vec<f32>>>,
    /// Output channels per layer, kept for bias validation.
    out_channels: Vec<usize>,
}

impl NetworkWeights {
    /// The weight-tensor shape a layer expects: the usual
    /// `out_channels × in_channels × kd × kh × kw` filter for convolutions,
    /// and a flattened `output_volume × input_volume` matrix (carried as a
    /// `filter(out_volume, in_volume, 1, 1, 1)` tensor) for projections.
    pub fn expected_shape(layer: &Layer) -> Shape {
        match &layer.op {
            LayerOp::Projection => {
                Shape::filter(layer.output.volume(), layer.input.volume(), 1, 1, 1)
            }
            LayerOp::Conv(p) | LayerOp::TConv(p) => Shape::filter(
                layer.output.channels,
                layer.input.channels,
                p.kernel.0,
                p.kernel.1,
                p.kernel.2,
            ),
        }
    }

    /// Bundles one weight tensor per layer, validating count and shapes.
    ///
    /// # Errors
    /// Returns [`MachineError::ShapeMismatch`] when the number of tensors
    /// differs from the number of layers or any tensor's shape differs from
    /// [`NetworkWeights::expected_shape`].
    pub fn new(network: &Network, weights: Vec<Tensor>) -> Result<Self, MachineError> {
        let layers = network.layers();
        if weights.len() != layers.len() {
            return Err(MachineError::ShapeMismatch {
                detail: format!(
                    "{} weight tensors for {} layers",
                    weights.len(),
                    layers.len()
                ),
            });
        }
        for (layer, weight) in layers.iter().zip(&weights) {
            let expected = Self::expected_shape(layer);
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
        }
        let biases = vec![None; layers.len()];
        let out_channels = layers.iter().map(|l| l.output.channels).collect();
        Ok(NetworkWeights {
            weights: weights.into(),
            biases,
            out_channels,
        })
    }

    /// Attaches a per-output-channel bias to layer `index` (applied before
    /// the activation).
    ///
    /// # Errors
    /// Returns [`MachineError::ShapeMismatch`] when `index` is out of range
    /// or the bias length differs from the layer's output channels.
    pub fn with_bias(mut self, index: usize, bias: Vec<f32>) -> Result<Self, MachineError> {
        let Some(&channels) = self.out_channels.get(index) else {
            return Err(MachineError::ShapeMismatch {
                detail: format!("bias index {index} beyond {} layers", self.weights.len()),
            });
        };
        if bias.len() != channels {
            return Err(MachineError::ShapeMismatch {
                detail: format!(
                    "bias of {} entries for layer {index} with {channels} output channels",
                    bias.len()
                ),
            });
        }
        self.biases[index] = Some(bias);
        Ok(self)
    }

    /// The weight tensor of layer `index`.
    pub fn weight(&self, index: usize) -> &Tensor {
        &self.weights[index]
    }

    /// The bias of layer `index`, if one was attached.
    pub fn bias(&self, index: usize) -> Option<&[f32]> {
        self.biases[index].as_deref()
    }

    /// Number of layers covered.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the bundle covers no layers (never true for a validated
    /// network, which cannot be empty).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// A stable 64-bit fingerprint of the model: the network's structure
    /// (name, input shape, every layer description) folded together with
    /// every weight value's exact `f32` bit pattern and every attached bias.
    ///
    /// Two `(network, weights)` pairs fingerprint equal exactly when they
    /// describe the same computation, so the serving plan cache
    /// ([`crate::serve::Server`]) can key compiled artifacts by
    /// `(model fingerprint, config fingerprint)` and safely share one cache
    /// across many resident models. `network` should be the network this
    /// bundle was validated against; extra layers beyond the bundle's length
    /// are ignored (a validated pair never has any).
    pub fn fingerprint(&self, network: &Network) -> u64 {
        let mut hash = crate::config::FNV_OFFSET;
        let fold = crate::config::fnv1a64;
        fold(&mut hash, network.name().as_bytes());
        fold(&mut hash, format!("{:?}", network.input_shape()).as_bytes());
        for (layer, weight) in network.layers().iter().zip(self.weights.iter()) {
            fold(&mut hash, format!("{layer:?}").as_bytes());
            crate::config::fnv1a64_f32s(&mut hash, weight.data());
        }
        for bias in &self.biases {
            match bias {
                Some(values) => crate::config::fnv1a64_f32s(&mut hash, values),
                None => fold(&mut hash, b"-"),
            }
        }
        hash
    }
}

/// The report of one layer's execution inside
/// [`GanaxMachine::execute_network`].
#[derive(Debug, Clone)]
pub struct LayerExecution {
    /// Layer name.
    pub name: String,
    /// Whether the layer is a transposed convolution.
    pub is_tconv: bool,
    /// Whether the layer ran on the host (projections) instead of the PE
    /// array; host layers report zero cycles and counts.
    pub host: bool,
    /// Cycles in which PEs performed arithmetic (summed over all PEs; equals
    /// the layer's exact in-bounds MAC count,
    /// [`ConvParams::in_bounds_macs`](ganax_tensor::ConvParams::in_bounds_macs)).
    pub busy_pe_cycles: u64,
    /// `(output row, filter tap, channel)` work units executed.
    pub work_units: u64,
    /// Aggregated activity counters of every PE used.
    pub counts: EventCounts,
    /// Load balance of the threaded PE-array scheduler: total busy cycles
    /// over `workers × busiest worker's busy cycles` (1.0 when perfectly
    /// balanced or serial; 1.0 for host layers by convention).
    pub balance: f64,
    /// Wall-clock seconds this layer took to execute (planning excluded: it
    /// happens once, at compile time).
    pub wall_seconds: f64,
}

/// The report of [`GanaxMachine::execute_network`]: the final output feature
/// map plus per-layer cycle, counter and wall-clock aggregates.
#[derive(Debug, Clone)]
pub struct NetworkExecution {
    /// Network name.
    pub network: String,
    /// Worker threads requested for the PE-array layers.
    pub threads: usize,
    /// Per-layer reports in execution order.
    pub layers: Vec<LayerExecution>,
    /// The network's final output (bias and activation applied).
    pub output: Tensor,
    /// Total wall-clock seconds.
    pub wall_seconds: f64,
    /// Wall-clock seconds spent planning layers **during this call**: the
    /// one-shot [`GanaxMachine::execute_network`] reports its compile cost
    /// here; runs from a prebuilt [`CompiledNetwork`](crate::CompiledNetwork)
    /// report exactly `0.0` — the plan cache was hit.
    pub plan_seconds: f64,
}

impl NetworkExecution {
    /// Total busy PE cycles across all PE-array layers.
    pub fn total_busy_pe_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.busy_pe_cycles).sum()
    }

    /// Total activity counters across all layers.
    pub fn total_counts(&self) -> EventCounts {
        self.layers
            .iter()
            .fold(EventCounts::default(), |acc, l| acc + l.counts)
    }

    /// Total work units across all layers.
    pub fn total_work_units(&self) -> u64 {
        self.layers.iter().map(|l| l.work_units).sum()
    }

    /// The layers that ran on the PE array (everything but host projections).
    pub fn machine_layers(&self) -> impl Iterator<Item = &LayerExecution> {
        self.layers.iter().filter(|l| !l.host)
    }

    /// Wall cycles an ideal `num_pes`-wide array needs for the simulated
    /// work: per layer, the busy cycles divided across the array (the
    /// reorganized dataflow keeps every remaining compute node consequential,
    /// so the division is the paper's best case).
    pub fn array_cycles(&self, num_pes: u64) -> u64 {
        let num_pes = num_pes.max(1);
        self.machine_layers()
            .map(|l| l.busy_pe_cycles.div_ceil(num_pes))
            .sum()
    }

    /// Busy-cycle-weighted average load balance of the PE-array layers.
    pub fn average_balance(&self) -> f64 {
        let total = self.total_busy_pe_cycles();
        if total == 0 {
            return 1.0;
        }
        self.machine_layers()
            .map(|l| l.balance * l.busy_pe_cycles as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Simulated busy cycles per wall-clock second — the simulator's
    /// throughput.
    pub fn cycles_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.total_busy_pe_cycles() as f64 / self.wall_seconds
    }

    /// Energy of the simulated activity under a Table II energy model.
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        model.energy(&self.total_counts())
    }
}

/// The [`ActivationKind`] the execute µ-engine uses for a layer's
/// [`Activation`].
pub fn activation_kind(activation: Activation) -> ActivationKind {
    match activation {
        Activation::None => ActivationKind::Identity,
        Activation::Relu => ActivationKind::Relu,
        Activation::LeakyRelu => ActivationKind::LeakyRelu,
        Activation::Tanh => ActivationKind::Tanh,
        Activation::Sigmoid => ActivationKind::Sigmoid,
    }
}

/// Applies a layer's inter-stage epilogue in place: the per-output-channel
/// bias (when present), then the layer's activation. Both the machine path
/// and the tensor reference chain use this exact routine, so the epilogue
/// cannot introduce divergence between them.
pub fn finish_layer_output(layer: &Layer, output: &mut Tensor, bias: Option<&[f32]>) {
    let shape = output.shape();
    debug_assert_eq!(shape, layer.output, "epilogue output shape mismatch");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), shape.channels, "bias length mismatch");
        let plane = shape.volume() / shape.channels;
        for (c, chunk) in output.data_mut().chunks_mut(plane).enumerate() {
            for v in chunk {
                *v += bias[c];
            }
        }
    }
    let kind = activation_kind(layer.activation);
    if kind != ActivationKind::Identity {
        for v in output.data_mut() {
            *v = kind.apply(*v);
        }
    }
}

/// Executes a fully-connected projection layer on the host: the flattened
/// input times the `output_volume × input_volume` weight matrix, in output
/// storage order (one fixed accumulation order, so results are deterministic).
///
/// # Errors
/// Returns [`MachineError::ShapeMismatch`] when the input or weight tensor
/// does not match the layer.
pub fn host_projection(
    layer: &Layer,
    input: &Tensor,
    weights: &Tensor,
) -> Result<Tensor, MachineError> {
    if !matches!(layer.op, LayerOp::Projection) {
        return Err(MachineError::Unsupported {
            detail: format!("layer `{}` is not a projection", layer.name),
        });
    }
    if input.shape() != layer.input {
        return Err(MachineError::ShapeMismatch {
            detail: format!("input {} != layer input {}", input.shape(), layer.input),
        });
    }
    let expected = NetworkWeights::expected_shape(layer);
    if weights.shape() != expected {
        return Err(MachineError::ShapeMismatch {
            detail: format!("weights {} != expected {}", weights.shape(), expected),
        });
    }
    let flat_in = input.data();
    let mut output = Tensor::zeros(layer.output);
    for (o, slot) in output.data_mut().iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (i, &v) in flat_in.iter().enumerate() {
            acc += weights.at_filter(o, i, 0, 0, 0) * v;
        }
        *slot = acc;
    }
    Ok(output)
}

/// Runs a whole network through the `ganax_tensor` reference implementations
/// ([`conv`]/[`tconv`] plus [`host_projection`]), applying the same
/// inter-stage epilogue as the machine. This is the functional oracle
/// [`GanaxMachine::execute_network`] is validated against.
///
/// # Errors
/// Returns [`MachineError::ShapeMismatch`] when the input does not match the
/// network or a layer's weights do not match its geometry.
pub fn reference_network_forward(
    network: &Network,
    input: &Tensor,
    weights: &NetworkWeights,
) -> Result<Tensor, MachineError> {
    check_network_inputs(network, input, weights)?;
    let mut current = input.clone();
    for (i, layer) in network.layers().iter().enumerate() {
        let mut out = match &layer.op {
            LayerOp::Projection => host_projection(layer, &current, weights.weight(i))?,
            LayerOp::Conv(p) => {
                conv(&current, weights.weight(i), p).map_err(|e| MachineError::ShapeMismatch {
                    detail: format!("layer `{}`: {e}", layer.name),
                })?
            }
            LayerOp::TConv(p) => {
                tconv(&current, weights.weight(i), p).map_err(|e| MachineError::ShapeMismatch {
                    detail: format!("layer `{}`: {e}", layer.name),
                })?
            }
        };
        finish_layer_output(layer, &mut out, weights.bias(i));
        current = out;
    }
    Ok(current)
}

/// Shared entry validation of the network-execution paths.
fn check_network_inputs(
    network: &Network,
    input: &Tensor,
    weights: &NetworkWeights,
) -> Result<(), MachineError> {
    if weights.len() != network.layers().len() {
        return Err(MachineError::ShapeMismatch {
            detail: format!(
                "{} weight tensors for {} layers",
                weights.len(),
                network.layers().len()
            ),
        });
    }
    if input.shape() != network.input_shape() {
        return Err(MachineError::ShapeMismatch {
            detail: format!(
                "input {} != network input {}",
                input.shape(),
                network.input_shape()
            ),
        });
    }
    Ok(())
}

impl GanaxMachine {
    /// Executes a whole network end to end on the cycle-level machine,
    /// choosing the worker count from [`std::thread::available_parallelism`].
    ///
    /// See [`NetworkExecution`] for what is reported. Outputs and counters
    /// are bit-identical for every worker count.
    ///
    /// # Errors
    /// Returns [`MachineError::Unsupported`] for volumetric layers,
    /// [`MachineError::ShapeMismatch`] when the input or weights do not match
    /// the network, and propagates per-layer execution errors.
    pub fn execute_network(
        &self,
        network: &Network,
        input: &Tensor,
        weights: &NetworkWeights,
    ) -> Result<NetworkExecution, MachineError> {
        let available = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.execute_network_threaded(network, input, weights, available)
    }

    /// Executes a whole network end to end with an explicit worker count, by
    /// compiling it and running the result once on a fresh
    /// [`InferenceEngine`](crate::InferenceEngine) — so every one-shot caller
    /// exercises the exact serving path, paying the compile cost that a
    /// long-lived engine amortizes across requests. The returned report's
    /// [`NetworkExecution::plan_seconds`] carries that compile cost;
    /// [`NetworkExecution::wall_seconds`] includes it. Results are
    /// bit-identical at every worker count.
    ///
    /// # Errors
    /// As [`GanaxMachine::execute_network`].
    pub fn execute_network_threaded(
        &self,
        network: &Network,
        input: &Tensor,
        weights: &NetworkWeights,
        threads: usize,
    ) -> Result<NetworkExecution, MachineError> {
        check_network_inputs(network, input, weights)?;
        let start = Instant::now();
        let engine = crate::InferenceEngine::new(*self, threads);
        let compiled = engine.compile(network, weights)?;
        let mut run = engine.execute(&compiled, input)?;
        run.plan_seconds = compiled.plan_seconds();
        run.wall_seconds = start.elapsed().as_secs_f64();
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_models::NetworkBuilder;
    use ganax_tensor::ConvParams;

    fn xorshift_tensor(shape: Shape, seed: u64) -> Tensor {
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
            .map(|(i, l)| xorshift_tensor(NetworkWeights::expected_shape(l), seed + i as u64))
            .collect();
        NetworkWeights::new(network, tensors).unwrap()
    }

    #[test]
    fn execute_network_matches_tensor_reference() {
        let net = toy_network();
        let weights = toy_weights(&net, 3);
        let input = xorshift_tensor(net.input_shape(), 17);
        let run = GanaxMachine::paper()
            .execute_network(&net, &input, &weights)
            .unwrap();
        let reference = reference_network_forward(&net, &input, &weights).unwrap();
        assert_eq!(run.output.shape(), net.output_shape());
        assert!(
            run.output.approx_eq(&reference, 1e-4),
            "machine network run diverges from the tensor reference (max diff {})",
            run.output.max_abs_diff(&reference).unwrap()
        );
        assert_eq!(run.layers.len(), 3);
        assert!(run.layers[0].host);
        assert_eq!(run.layers[0].busy_pe_cycles, 0);
        assert!(run.layers[1].is_tconv);
        assert!(run.total_busy_pe_cycles() > 0);
        assert_eq!(
            run.total_counts().alu_ops,
            run.total_busy_pe_cycles(),
            "PE-array layers are all consequential MACs"
        );
    }

    #[test]
    fn execute_network_is_thread_count_invariant() {
        let net = toy_network();
        let weights = toy_weights(&net, 5);
        let input = xorshift_tensor(net.input_shape(), 23);
        let machine = GanaxMachine::paper();
        let serial = machine
            .execute_network_threaded(&net, &input, &weights, 1)
            .unwrap();
        for threads in [2, 3, 7] {
            let threaded = machine
                .execute_network_threaded(&net, &input, &weights, threads)
                .unwrap();
            assert_eq!(serial.output, threaded.output, "{threads}-thread output");
            for (a, b) in serial.layers.iter().zip(&threaded.layers) {
                assert_eq!(a.busy_pe_cycles, b.busy_pe_cycles, "{}", a.name);
                assert_eq!(a.counts, b.counts, "{}", a.name);
                assert_eq!(a.work_units, b.work_units, "{}", a.name);
            }
        }
    }

    #[test]
    fn execute_network_matches_hand_chained_layers() {
        let net = toy_network();
        let weights = toy_weights(&net, 11);
        let machine = GanaxMachine::paper();
        for seed in [29, 31] {
            let input = xorshift_tensor(net.input_shape(), seed);
            let run = machine
                .execute_network_threaded(&net, &input, &weights, 2)
                .unwrap();

            let mut current = input.clone();
            for (i, layer) in net.layers().iter().enumerate() {
                let mut out = if matches!(layer.op, LayerOp::Projection) {
                    host_projection(layer, &current, weights.weight(i)).unwrap()
                } else {
                    let single_step = machine
                        .execute_layer_reference(layer, &current, weights.weight(i))
                        .unwrap();
                    assert_eq!(run.layers[i].counts, single_step.counts, "{}", layer.name);
                    assert_eq!(run.layers[i].busy_pe_cycles, single_step.busy_pe_cycles);
                    single_step.output
                };
                finish_layer_output(layer, &mut out, weights.bias(i));
                current = out;
            }
            assert_eq!(run.output, current, "network path diverged from hand chain");
        }
    }

    #[test]
    fn bias_is_applied_before_activation() {
        let net = NetworkBuilder::new("biased", Shape::new_2d(1, 3, 3))
            .conv("c", 1, ConvParams::conv_2d(1, 1, 0), Activation::Relu)
            .build()
            .unwrap();
        // Identity 1×1 kernel; bias -2 pushes small positives below zero, so
        // Relu(x + b) must clamp them (activation-after-bias ordering).
        let weights = NetworkWeights::new(&net, vec![Tensor::filled_filter(1, 1, 1, 1, 1, 1.0)])
            .unwrap()
            .with_bias(0, vec![-2.0])
            .unwrap();
        let input = Tensor::from_fn_2d(1, 3, 3, |_, y, x| (y * 3 + x) as f32);
        let run = GanaxMachine::paper()
            .execute_network(&net, &input, &weights)
            .unwrap();
        let expected = Tensor::from_fn_2d(1, 3, 3, |_, y, x| ((y * 3 + x) as f32 - 2.0).max(0.0));
        assert_eq!(run.output, expected);
        let reference = reference_network_forward(&net, &input, &weights).unwrap();
        assert_eq!(run.output, reference);
    }

    #[test]
    fn rejects_mismatched_weight_bundles() {
        let net = toy_network();
        // Too few tensors.
        assert!(matches!(
            NetworkWeights::new(&net, vec![Tensor::zeros(Shape::new_2d(1, 1, 1))]),
            Err(MachineError::ShapeMismatch { .. })
        ));
        // Wrong shape for the first layer.
        let mut tensors: Vec<Tensor> = net
            .layers()
            .iter()
            .map(|l| Tensor::zeros(NetworkWeights::expected_shape(l)))
            .collect();
        tensors[1] = Tensor::zeros(Shape::filter(1, 1, 1, 2, 2));
        assert!(matches!(
            NetworkWeights::new(&net, tensors),
            Err(MachineError::ShapeMismatch { .. })
        ));
        // Bad bias length.
        let weights = toy_weights(&net, 1);
        assert!(matches!(
            weights.clone().with_bias(1, vec![0.0; 99]),
            Err(MachineError::ShapeMismatch { .. })
        ));
        assert!(weights.clone().with_bias(1, vec![0.0; 3]).is_ok());
        // Bad input shape at execution time.
        let input = Tensor::zeros(Shape::new_2d(2, 1, 1));
        assert!(matches!(
            GanaxMachine::paper().execute_network(&net, &input, &weights),
            Err(MachineError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn cross_check_agrees_with_the_analytic_model() {
        let net = toy_network();
        let weights = toy_weights(&net, 59);
        let input = xorshift_tensor(net.input_shape(), 61);
        let run = GanaxMachine::paper()
            .execute_network(&net, &input, &weights)
            .unwrap();
        let checks = crate::GanaxModel::paper().cross_check(&net, &run).unwrap();
        assert_eq!(checks.len(), net.layers().len());
        for check in &checks {
            assert!(
                check.is_consistent(),
                "{}: analytic {} MACs vs simulated {}",
                check.layer,
                check.analytical_macs,
                check.simulated_macs
            );
            if !check.host {
                assert!(check.analytical_cycles > 0);
            }
        }
    }

    #[test]
    fn balance_and_throughput_are_reported() {
        let net = toy_network();
        let weights = toy_weights(&net, 41);
        let input = xorshift_tensor(net.input_shape(), 43);
        let run = GanaxMachine::paper()
            .execute_network_threaded(&net, &input, &weights, 2)
            .unwrap();
        for layer in run.machine_layers() {
            assert!(
                layer.balance > 0.0 && layer.balance <= 1.0,
                "{}",
                layer.name
            );
        }
        assert!(run.average_balance() > 0.0);
        assert!(run.cycles_per_second() > 0.0);
        assert!(run.array_cycles(256) >= 1);
        assert!(run.array_cycles(256) <= run.total_busy_pe_cycles());
    }
}
