//! The Eyeriss baseline model: conventional dataflow with zero gating.

use ganax_dataflow::{DataflowMode, LayerGeometry, ScheduleEstimate};
use ganax_models::{Layer, Network, NetworkError};

use crate::config::AcceleratorConfig;
use crate::stats::{LayerStats, NetworkStats};
use crate::traffic::TrafficModel;

/// The Eyeriss-style baseline accelerator.
///
/// It runs every layer — conventional or transposed — with the conventional
/// convolution dataflow. Transposed convolutions are executed densely over the
/// zero-inserted input: zero-gating saves most of the arithmetic energy for
/// the inserted zeros, but each one still costs a cycle and its operand
/// traffic, which is where GANAX's advantage comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EyerissModel {
    config: AcceleratorConfig,
}

impl EyerissModel {
    /// Creates the baseline with an explicit configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        EyerissModel { config }
    }

    /// Creates the baseline with the paper's configuration.
    pub fn paper() -> Self {
        Self::new(AcceleratorConfig::paper())
    }

    /// The configuration in use.
    pub fn config(&self) -> AcceleratorConfig {
        self.config
    }

    /// Runs one layer and returns its statistics.
    ///
    /// # Errors
    /// [`NetworkError::InvalidGeometry`] for a layer
    /// [`LayerGeometry::for_layer`] refuses: a transposed convolution whose
    /// padding is not below its kernel on some axis crops its output.
    pub fn run_layer(&self, layer: &Layer) -> Result<LayerStats, NetworkError> {
        let geometry = LayerGeometry::for_layer(layer)?;
        let schedule =
            ScheduleEstimate::estimate(&geometry, self.config.array, DataflowMode::Conventional);
        let traffic = TrafficModel::layer_traffic(&geometry, &schedule, DataflowMode::Conventional);

        // Zero gating: consequential MACs pay the full PE energy, the rest are
        // gated (detected and suppressed) but still occupy their cycle.
        let full_ops = geometry.consequential_macs;
        let gated_ops = geometry.dense_macs - geometry.consequential_macs;
        // The baseline runs in pure SIMD mode: one global µop fetch per pass,
        // no local µop buffers.
        let global_uop_fetches = schedule.passes;
        let counts =
            TrafficModel::to_event_counts(&traffic, full_ops, gated_ops, 0, global_uop_fetches);
        let energy = self.config.energy.energy(&counts);

        Ok(LayerStats {
            name: layer.name.clone(),
            is_tconv: layer.is_tconv(),
            cycles: schedule.schedule_cycles,
            dense_macs: geometry.dense_macs,
            consequential_macs: geometry.consequential_macs,
            counts,
            energy,
            utilization: schedule.utilization(self.config.array),
        })
    }

    /// Runs a whole network and returns its statistics.
    ///
    /// # Errors
    /// As [`EyerissModel::run_layer`], for the first layer it refuses.
    pub fn run_network(&self, network: &Network) -> Result<NetworkStats, NetworkError> {
        Ok(NetworkStats {
            network: network.name().to_string(),
            accelerator: "EYERISS",
            layers: network
                .layers()
                .iter()
                .map(|l| self.run_layer(l))
                .collect::<Result<_, _>>()?,
        })
    }
}

impl Default for EyerissModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_models::{zoo, Activation, NetworkBuilder};
    use ganax_tensor::{ConvParams, Shape};

    #[test]
    fn conv_layers_have_no_gated_ops() {
        let model = EyerissModel::paper();
        let dcgan = zoo::dcgan();
        let stats = model.run_network(&dcgan.discriminator).unwrap();
        for layer in &stats.layers {
            assert_eq!(layer.counts.gated_ops, 0, "{}", layer.name);
            assert_eq!(layer.dense_macs, layer.consequential_macs);
        }
    }

    #[test]
    fn tconv_layers_spend_cycles_on_inserted_zeros() {
        let model = EyerissModel::paper();
        let dcgan = zoo::dcgan();
        let stats = model.run_network(&dcgan.generator).unwrap();
        let tconv = stats
            .layers
            .iter()
            .find(|l| l.is_tconv)
            .expect("generator has tconv layers");
        assert!(tconv.counts.gated_ops > 0);
        assert!(tconv.counts.gated_ops > tconv.counts.alu_ops);
        // Utilization suffers accordingly.
        assert!(
            tconv.utilization < 0.5,
            "utilization = {}",
            tconv.utilization
        );
    }

    #[test]
    fn discriminator_utilization_is_high() {
        let model = EyerissModel::paper();
        let stats = model.run_network(&zoo::dcgan().discriminator).unwrap();
        assert!(
            stats.average_utilization() > 0.6,
            "utilization = {}",
            stats.average_utilization()
        );
    }

    #[test]
    fn generator_energy_exceeds_zero() {
        let model = EyerissModel::paper();
        let stats = model.run_network(&zoo::dcgan().generator).unwrap();
        let energy = stats.total_energy();
        assert!(energy.pe_pj > 0.0);
        assert!(energy.register_file_pj > 0.0);
        assert!(energy.dram_pj > 0.0);
        assert!(energy.global_buffer_pj > 0.0);
        assert!(energy.noc_pj > 0.0);
    }

    #[test]
    fn cycles_scale_with_model_size() {
        let model = EyerissModel::paper();
        let dcgan = model
            .run_network(&zoo::dcgan().generator)
            .unwrap()
            .total_cycles();
        let three_d = model
            .run_network(&zoo::three_d_gan().generator)
            .unwrap()
            .total_cycles();
        // The volumetric 3D-GAN generator is far more expensive than DCGAN's.
        assert!(three_d > dcgan);
    }

    #[test]
    fn run_layer_matches_network_totals() {
        let model = EyerissModel::paper();
        let gen = zoo::dcgan().generator;
        let per_layer: u64 = gen
            .layers()
            .iter()
            .map(|l| model.run_layer(l).unwrap().cycles)
            .sum();
        assert_eq!(per_layer, model.run_network(&gen).unwrap().total_cycles());
    }

    /// A transposed convolution whose padding reaches its kernel crops its
    /// output (tconv k3 s2 p3 maps a 2×4×4 input to 3×3). The baseline
    /// refuses it with a typed error where its phase analysis used to
    /// panic.
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
        let model = EyerissModel::paper();
        let refused = |result: Result<(), NetworkError>, what: &str| {
            assert!(
                matches!(&result, Err(NetworkError::InvalidGeometry { layer, .. }) if layer == "crop"),
                "{what}: {result:?}"
            );
        };
        refused(model.run_layer(&net.layers()[0]).map(drop), "run_layer");
        refused(model.run_network(&net).map(drop), "run_network");
    }
}
