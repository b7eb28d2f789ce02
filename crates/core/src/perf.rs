//! The GANAX layer-level performance and energy model.

use ganax_dataflow::{DataflowMode, LayerGeometry, ScheduleEstimate};
use ganax_eyeriss::{AcceleratorConfig, LayerStats, NetworkStats, TrafficModel};
use ganax_models::{Layer, Network};

use crate::compiler::GanaxCompiler;
use crate::config::GanaxConfig;
use crate::machine::{refuse_cropping, MachineError};
use crate::network::NetworkExecution;

/// Which subset of the GANAX mechanisms is enabled — used by the ablation
/// study of the design choices called out in Section III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AblationVariant {
    /// The full design: reorganized dataflow, MIMD-SIMD execution and the
    /// decoupled access-execute µ-engines.
    Full,
    /// Output/filter-row reorganization but a *pure SIMD* schedule: every pass
    /// must wait for the slowest phase group (the situation Section II ends
    /// with, before the MIMD-SIMD architecture is introduced).
    ReorganizedSimdOnly,
    /// No reorganization at all: the baseline's dense schedule, but with zero
    /// gating (this is simply the Eyeriss behaviour and is provided so
    /// ablation sweeps can include the baseline point).
    ConventionalDense,
}

/// The GANAX accelerator's analytic model (the counterpart of
/// [`ganax_eyeriss::EyerissModel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GanaxModel {
    config: GanaxConfig,
    variant: AblationVariant,
}

impl GanaxModel {
    /// Creates a model with an explicit configuration.
    pub fn new(config: GanaxConfig) -> Self {
        GanaxModel {
            config,
            variant: AblationVariant::Full,
        }
    }

    /// Creates the model with the paper's configuration.
    pub fn paper() -> Self {
        Self::new(GanaxConfig::paper())
    }

    /// Creates a model restricted to an ablation variant.
    pub fn with_variant(config: GanaxConfig, variant: AblationVariant) -> Self {
        GanaxModel { config, variant }
    }

    /// The configuration in use.
    pub fn config(&self) -> GanaxConfig {
        self.config
    }

    /// The ablation variant in use.
    pub fn variant(&self) -> AblationVariant {
        self.variant
    }

    /// The shared accelerator configuration.
    fn base(&self) -> AcceleratorConfig {
        self.config.base
    }

    /// Runs one layer and returns its statistics.
    ///
    /// # Errors
    /// [`MachineError::Unsupported`] for a transposed convolution whose
    /// padding is not below its kernel on some axis: it crops its output,
    /// which the model's zero-insertion geometry cannot express (the
    /// cycle-level machine refuses it the same way).
    pub fn run_layer(&self, layer: &Layer) -> Result<LayerStats, MachineError> {
        if let Some(params) = layer.op.conv_params() {
            refuse_cropping(&params)?;
        }
        let geometry = LayerGeometry::for_layer(layer);
        let array = self.base().array;

        let (schedule, mode) = match self.variant {
            AblationVariant::ConventionalDense => (
                ScheduleEstimate::estimate(&geometry, array, DataflowMode::Conventional),
                DataflowMode::Conventional,
            ),
            AblationVariant::Full => (
                ScheduleEstimate::estimate(&geometry, array, DataflowMode::Reorganized),
                DataflowMode::Reorganized,
            ),
            AblationVariant::ReorganizedSimdOnly => {
                let mut schedule =
                    ScheduleEstimate::estimate(&geometry, array, DataflowMode::Reorganized);
                // Without MIMD-SIMD the phase groups cannot run concurrently
                // with different microprograms: every pass stretches to the
                // longest group's length. First-order penalty: scale the
                // schedule by the ratio of the dense accumulation depth to the
                // average consequential depth, bounded by the dense schedule.
                let dense =
                    ScheduleEstimate::estimate(&geometry, array, DataflowMode::Conventional);
                let groups = geometry.phase_groups();
                if geometry.is_tconv && !groups.is_empty() {
                    let max_nodes = groups
                        .iter()
                        .map(|g| g.consequential_nodes)
                        .max()
                        .unwrap_or(1) as f64;
                    let avg_nodes = groups
                        .iter()
                        .map(|g| g.num_rows as f64 * g.consequential_nodes as f64)
                        .sum::<f64>()
                        / groups
                            .iter()
                            .map(|g| g.num_rows as f64)
                            .sum::<f64>()
                            .max(1.0);
                    let penalty = (max_nodes / avg_nodes.max(1.0)).max(1.0);
                    let stretched = (schedule.schedule_cycles as f64 * penalty) as u64;
                    schedule.schedule_cycles = stretched.min(dense.schedule_cycles);
                }
                (schedule, DataflowMode::Reorganized)
            }
        };

        let traffic = TrafficModel::layer_traffic(&geometry, &schedule, mode);

        // GANAX never executes an inconsequential MAC; the conventional-dense
        // ablation variant behaves like the zero-gated baseline.
        let (full_ops, gated_ops) = match mode {
            DataflowMode::Reorganized => (geometry.consequential_macs, 0),
            DataflowMode::Conventional => (
                geometry.consequential_macs,
                geometry.dense_macs - geometry.consequential_macs,
            ),
        };

        // µop-fetch accounting: SIMD layers fetch one global µop per pass;
        // MIMD-SIMD layers additionally fetch one local µop per PV per pass.
        let global_uop_fetches = schedule.passes;
        let local_uop_fetches = if GanaxCompiler::uses_simd_mode(layer) {
            0
        } else {
            schedule.passes * array.num_pvs as u64
        };

        let counts = TrafficModel::to_event_counts(
            &traffic,
            full_ops,
            gated_ops,
            local_uop_fetches,
            global_uop_fetches,
        );
        let energy = self.base().energy.energy(&counts);

        Ok(LayerStats {
            name: layer.name.clone(),
            is_tconv: layer.is_tconv(),
            cycles: schedule.schedule_cycles,
            dense_macs: geometry.dense_macs,
            consequential_macs: geometry.consequential_macs,
            counts,
            energy,
            utilization: schedule.utilization(array),
        })
    }

    /// Runs a whole network.
    ///
    /// # Errors
    /// Propagates [`GanaxModel::run_layer`]'s refusal of the first layer it
    /// cannot model.
    pub fn run_network(&self, network: &Network) -> Result<NetworkStats, MachineError> {
        Ok(NetworkStats {
            network: network.name().to_string(),
            accelerator: "GANAX",
            layers: network
                .layers()
                .iter()
                .map(|l| self.run_layer(l))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Cross-checks a cycle-level [`NetworkExecution`] against this analytic
    /// model, layer by layer: the machine's measured ALU operations must
    /// equal the layer's exact in-bounds MAC count
    /// ([`ganax_tensor::ConvParams::in_bounds_macs`]) and never exceed the
    /// consequential MACs the analytic schedule charges (the analytic model
    /// additionally counts zero-padding taps on conventional convolutions;
    /// host layers, which the machine does not simulate, are exempt).
    ///
    /// This is the contract that lets the analytic whole-GAN numbers stand on
    /// the machine's per-pass behaviour.
    ///
    /// # Errors
    /// Propagates [`GanaxModel::run_layer`]'s refusal of a layer.
    ///
    /// # Panics
    /// Panics when `execution` does not report one layer per network layer —
    /// i.e. it was produced from a different network (a reduced variant, for
    /// example); a silent partial check would vacuously pass.
    pub fn cross_check(
        &self,
        network: &Network,
        execution: &NetworkExecution,
    ) -> Result<Vec<LayerCrossCheck>, MachineError> {
        assert_eq!(
            network.layers().len(),
            execution.layers.len(),
            "cross_check requires the execution of this very network \
             (`{}` has {} layers, the execution reports {})",
            network.name(),
            network.layers().len(),
            execution.layers.len(),
        );
        network
            .layers()
            .iter()
            .zip(&execution.layers)
            .map(|(layer, run)| {
                let stats = self.run_layer(layer)?;
                let expected_machine_macs = match layer.op.conv_params() {
                    Some(p) => p
                        .in_bounds_macs(layer.input, layer.output.channels)
                        .expect("layer geometry validated at construction"),
                    // Projections run on the host; the machine simulates none
                    // of their MACs.
                    None => 0,
                };
                Ok(LayerCrossCheck {
                    layer: layer.name.clone(),
                    host: run.host,
                    analytical_cycles: stats.cycles,
                    analytical_macs: stats.consequential_macs,
                    expected_machine_macs,
                    simulated_macs: run.counts.alu_ops,
                })
            })
            .collect()
    }
}

/// One row of [`GanaxModel::cross_check`]: the analytic model's per-layer
/// charge next to what the cycle-level machine actually did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerCrossCheck {
    /// Layer name.
    pub layer: String,
    /// Whether the machine ran the layer on the host (no simulated MACs).
    pub host: bool,
    /// Analytic schedule cycles of the layer.
    pub analytical_cycles: u64,
    /// Consequential MACs the analytic model charges.
    pub analytical_macs: u64,
    /// Exact in-bounds MACs the machine is expected to execute.
    pub expected_machine_macs: u64,
    /// ALU operations the machine measured.
    pub simulated_macs: u64,
}

impl LayerCrossCheck {
    /// Whether the machine's measured work agrees with the analytic charge.
    pub fn is_consistent(&self) -> bool {
        self.host
            || (self.simulated_macs == self.expected_machine_macs
                && self.simulated_macs <= self.analytical_macs)
    }
}

impl Default for GanaxModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_eyeriss::EyerissModel;
    use ganax_models::{zoo, Activation, NetworkBuilder};
    use ganax_tensor::{ConvParams, Shape};

    /// A transposed convolution whose padding reaches its kernel crops its
    /// output (tensor maps tconv k3 s2 p3 on 2×4×4 to 3×3). The model
    /// refuses it with a typed error, where it used to underflow the
    /// zero-insertion border: a panic in debug builds, wrapped statistics in
    /// release builds.
    #[test]
    fn cropping_transposed_convolutions_are_refused() {
        let net = NetworkBuilder::new("crop", Shape::new_2d(2, 4, 4))
            .tconv(
                "crop",
                2,
                ConvParams::transposed_2d(3, 2, 3),
                Activation::None,
            )
            .build()
            .unwrap();
        let layer = &net.layers()[0];
        assert_eq!(layer.output, Shape::new_2d(2, 3, 3));
        let model = GanaxModel::paper();
        let refused = |result: Result<(), MachineError>, what: &str| {
            assert!(
                matches!(result, Err(MachineError::Unsupported { .. })),
                "{what}: {result:?}"
            );
        };
        refused(model.run_layer(layer).map(drop), "run_layer");
        refused(model.run_network(&net).map(drop), "run_network");
        // One step less padding keeps a zero border and is modelled.
        let edge = NetworkBuilder::new("edge", Shape::new_2d(2, 4, 4))
            .tconv(
                "edge",
                2,
                ConvParams::transposed_2d(3, 2, 2),
                Activation::None,
            )
            .build()
            .unwrap();
        assert!(model.run_network(&edge).is_ok());
    }

    #[test]
    fn ganax_never_performs_gated_ops_in_full_mode() {
        let model = GanaxModel::paper();
        let stats = model.run_network(&zoo::dcgan().generator).unwrap();
        for layer in &stats.layers {
            assert_eq!(layer.counts.gated_ops, 0, "{}", layer.name);
        }
    }

    #[test]
    fn generator_speedup_over_eyeriss_is_substantial() {
        let ganax = GanaxModel::paper();
        let eyeriss = EyerissModel::paper();
        let gen = zoo::dcgan().generator;
        let speedup = eyeriss.run_network(&gen).total_cycles() as f64
            / ganax.run_network(&gen).unwrap().total_cycles() as f64;
        assert!(speedup > 2.0, "speedup = {speedup}");
        assert!(speedup < 8.0, "speedup = {speedup}");
    }

    #[test]
    fn discriminator_performance_is_preserved() {
        let ganax = GanaxModel::paper();
        let eyeriss = EyerissModel::paper();
        let disc = zoo::dcgan().discriminator;
        let g = ganax.run_network(&disc).unwrap().total_cycles();
        let e = eyeriss.run_network(&disc).total_cycles();
        assert_eq!(g, e, "GANAX must not slow conventional convolutions down");
    }

    #[test]
    fn ganax_pe_utilization_is_high_on_generators() {
        let model = GanaxModel::paper();
        for gan in zoo::all_models() {
            let util = model
                .run_network(&gan.generator)
                .unwrap()
                .average_utilization();
            assert!(util > 0.55, "{}: utilization = {util}", gan.name);
        }
    }

    #[test]
    fn mimd_layers_fetch_local_uops() {
        let model = GanaxModel::paper();
        let gen = zoo::dcgan().generator;
        let stats = model.run_network(&gen).unwrap();
        let tconv = stats.layers.iter().find(|l| l.is_tconv).unwrap();
        assert!(tconv.counts.local_uop_fetches > 0);
        let disc_stats = model.run_network(&zoo::dcgan().discriminator).unwrap();
        for layer in &disc_stats.layers {
            assert_eq!(layer.counts.local_uop_fetches, 0);
        }
    }

    #[test]
    fn ablation_ordering_full_beats_simd_only_beats_dense() {
        let config = GanaxConfig::paper();
        let gen = zoo::dcgan().generator;
        let full = GanaxModel::with_variant(config, AblationVariant::Full)
            .run_network(&gen)
            .unwrap()
            .total_cycles();
        let simd_only = GanaxModel::with_variant(config, AblationVariant::ReorganizedSimdOnly)
            .run_network(&gen)
            .unwrap()
            .total_cycles();
        let dense = GanaxModel::with_variant(config, AblationVariant::ConventionalDense)
            .run_network(&gen)
            .unwrap()
            .total_cycles();
        assert!(full <= simd_only, "{full} > {simd_only}");
        assert!(simd_only <= dense, "{simd_only} > {dense}");
        assert!(full < dense);
    }

    #[test]
    fn energy_reduction_over_eyeriss() {
        let ganax = GanaxModel::paper();
        let eyeriss = EyerissModel::paper();
        let gen = zoo::three_d_gan().generator;
        let reduction = eyeriss.run_network(&gen).total_energy().total_pj()
            / ganax.run_network(&gen).unwrap().total_energy().total_pj();
        assert!(reduction > 2.0, "reduction = {reduction}");
    }
}
