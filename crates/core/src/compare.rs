//! GANAX-vs-Eyeriss comparison reports: the numbers behind Figures 8–11.
//!
//! The central type is [`ModelComparison`]: it runs one Table I GAN on both
//! accelerator models and exposes every derived metric the paper plots.
//!
//! ```
//! use ganax::compare::{geometric_mean, ModelComparison};
//! use ganax_models::zoo;
//!
//! // Figure 8, one bar: DCGAN's generator on GANAX vs. Eyeriss.
//! let report = ModelComparison::compare(&zoo::dcgan());
//! assert!(report.generator_speedup() > 2.0);
//! assert!(report.generator_energy_reduction() > 1.5);
//!
//! // The discriminator is conventional convolution, so GANAX matches the
//! // baseline there instead of beating it.
//! assert!((report.discriminator_speedup() - 1.0).abs() < 0.05);
//!
//! // The "Geomean" column combines per-model ratios.
//! let geomean = geometric_mean([report.generator_speedup(); 2]);
//! assert!((geomean - report.generator_speedup()).abs() < 1e-9);
//! ```

use ganax_energy::{EnergyBreakdown, EnergyCategory};
use ganax_eyeriss::{EyerissModel, NetworkStats};
use ganax_models::{GanModel, Network};
use ganax_tensor::Tensor;

use crate::config::GanaxConfig;
use crate::machine::{GanaxMachine, MachineError};
use crate::network::{NetworkExecution, NetworkWeights};
use crate::perf::{GanaxModel, LayerCrossCheck};

/// The complete head-to-head comparison of one GAN on the two accelerators.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ModelComparison {
    /// GAN name (Table I).
    pub gan_name: String,
    /// Eyeriss statistics for the generative model.
    pub eyeriss_generator: NetworkStats,
    /// GANAX statistics for the generative model.
    pub ganax_generator: NetworkStats,
    /// Eyeriss statistics for the discriminative model.
    pub eyeriss_discriminator: NetworkStats,
    /// GANAX statistics for the discriminative model.
    pub ganax_discriminator: NetworkStats,
}

impl ModelComparison {
    /// Runs a GAN on both accelerators with the paper's configuration.
    pub fn compare(gan: &GanModel) -> Self {
        Self::compare_with(gan, GanaxConfig::paper())
    }

    /// Runs a GAN on both accelerators with an explicit configuration.
    ///
    /// # Panics
    /// On a transposed convolution whose padding is not below its kernel on
    /// some axis: it crops its output, which neither analytic model covers
    /// (no zoo GAN has one).
    pub fn compare_with(gan: &GanModel, config: GanaxConfig) -> Self {
        let eyeriss = EyerissModel::new(config.base);
        let ganax = GanaxModel::new(config);
        let ganax_run = |network| {
            ganax
                .run_network(network)
                .unwrap_or_else(|e| panic!("`{}`: {e}", gan.name))
        };
        ModelComparison {
            gan_name: gan.name.clone(),
            eyeriss_generator: eyeriss.run_network(&gan.generator),
            ganax_generator: ganax_run(&gan.generator),
            eyeriss_discriminator: eyeriss.run_network(&gan.discriminator),
            ganax_discriminator: ganax_run(&gan.discriminator),
        }
    }

    /// Figure 8a: speedup of the generative model on GANAX over Eyeriss.
    pub fn generator_speedup(&self) -> f64 {
        self.eyeriss_generator.total_cycles() as f64
            / self.ganax_generator.total_cycles().max(1) as f64
    }

    /// Figure 8b: energy reduction of the generative model.
    pub fn generator_energy_reduction(&self) -> f64 {
        self.eyeriss_generator.total_energy().total_pj()
            / self
                .ganax_generator
                .total_energy()
                .total_pj()
                .max(f64::MIN_POSITIVE)
    }

    /// Speedup of the discriminative model (expected ≈ 1.0).
    pub fn discriminator_speedup(&self) -> f64 {
        self.eyeriss_discriminator.total_cycles() as f64
            / self.ganax_discriminator.total_cycles().max(1) as f64
    }

    /// Energy ratio of the discriminative model (expected ≈ 1.0).
    pub fn discriminator_energy_ratio(&self) -> f64 {
        self.eyeriss_discriminator.total_energy().total_pj()
            / self
                .ganax_discriminator
                .total_energy()
                .total_pj()
                .max(f64::MIN_POSITIVE)
    }

    /// Figure 9a: runtime split between the discriminative and generative
    /// models, for Eyeriss and GANAX, both normalized to the Eyeriss total.
    /// Returns `((disc, gen) for Eyeriss, (disc, gen) for GANAX)`.
    pub fn runtime_breakdown(&self) -> ((f64, f64), (f64, f64)) {
        let eyeriss_total = (self.eyeriss_discriminator.total_cycles()
            + self.eyeriss_generator.total_cycles()) as f64;
        let e = (
            self.eyeriss_discriminator.total_cycles() as f64 / eyeriss_total,
            self.eyeriss_generator.total_cycles() as f64 / eyeriss_total,
        );
        let g = (
            self.ganax_discriminator.total_cycles() as f64 / eyeriss_total,
            self.ganax_generator.total_cycles() as f64 / eyeriss_total,
        );
        (e, g)
    }

    /// Figure 9b: energy split between the discriminative and generative
    /// models, normalized to the Eyeriss total.
    pub fn energy_breakdown(&self) -> ((f64, f64), (f64, f64)) {
        let eyeriss_total = self.eyeriss_discriminator.total_energy().total_pj()
            + self.eyeriss_generator.total_energy().total_pj();
        let e = (
            self.eyeriss_discriminator.total_energy().total_pj() / eyeriss_total,
            self.eyeriss_generator.total_energy().total_pj() / eyeriss_total,
        );
        let g = (
            self.ganax_discriminator.total_energy().total_pj() / eyeriss_total,
            self.ganax_generator.total_energy().total_pj() / eyeriss_total,
        );
        (e, g)
    }

    /// Figure 10: per-unit energy of the generative model for both
    /// accelerators, normalized to the Eyeriss total. Returns the categories in
    /// `EnergyCategory::ALL` order.
    pub fn generator_unit_energy(&self) -> Vec<(EnergyCategory, f64, f64)> {
        let eyeriss: EnergyBreakdown = self.eyeriss_generator.total_energy();
        let ganax: EnergyBreakdown = self.ganax_generator.total_energy();
        let total = eyeriss.total_pj();
        EnergyCategory::ALL
            .iter()
            .map(|c| (*c, eyeriss.category(*c) / total, ganax.category(*c) / total))
            .collect()
    }

    /// Figure 11: average PE utilization of the generative model on Eyeriss and
    /// GANAX.
    pub fn generator_utilization(&self) -> (f64, f64) {
        (
            self.eyeriss_generator.average_utilization(),
            self.ganax_generator.average_utilization(),
        )
    }
}

/// A *simulated* head-to-head: one network executed end to end on the
/// cycle-level machine ([`GanaxMachine::execute_network`]), cross-checked
/// against the GANAX analytic model and compared against the Eyeriss
/// baseline on the layers the machine actually simulated.
///
/// Where [`ModelComparison`] is entirely analytic, this report grounds the
/// GANAX side in measured machine activity: simulated cycles come from the
/// machine's busy-cycle counters spread over the paper's PE array, and
/// simulated energy is charged to the machine's own [`EventCounts`]
/// (PE-array activity only — the analytic models additionally charge
/// global-buffer and DRAM traffic, so the absolute energy gap is larger than
/// the analytic one; the *direction* is what this report asserts).
///
/// [`EventCounts`]: ganax_energy::EventCounts
#[derive(Debug, Clone)]
pub struct SimulatedComparison {
    /// Network name (typically a Table I generator, possibly reduced).
    pub network_name: String,
    /// The machine execution report.
    pub execution: NetworkExecution,
    /// GANAX analytic statistics for the same network.
    pub analytical: NetworkStats,
    /// Eyeriss analytic statistics for the same network.
    pub eyeriss: NetworkStats,
    /// Per-layer cross-checks of the machine against the analytic model.
    pub checks: Vec<LayerCrossCheck>,
    config: GanaxConfig,
}

impl SimulatedComparison {
    /// Executes `network` on the cycle-level machine with the paper's
    /// configuration and gathers both analytic models for comparison.
    ///
    /// # Errors
    /// Propagates [`MachineError`] from the machine execution.
    pub fn run(
        network: &Network,
        input: &Tensor,
        weights: &NetworkWeights,
    ) -> Result<Self, MachineError> {
        Self::run_with(network, input, weights, GanaxConfig::paper())
    }

    /// As [`SimulatedComparison::run`], with an explicit configuration.
    ///
    /// # Errors
    /// Propagates [`MachineError`] from the machine execution.
    pub fn run_with(
        network: &Network,
        input: &Tensor,
        weights: &NetworkWeights,
        config: GanaxConfig,
    ) -> Result<Self, MachineError> {
        let execution = GanaxMachine::new(config).execute_network(network, input, weights)?;
        let ganax = GanaxModel::new(config);
        let analytical = ganax.run_network(network)?;
        let eyeriss = EyerissModel::new(config.base).run_network(network);
        let checks = ganax.cross_check(network, &execution)?;
        Ok(SimulatedComparison {
            network_name: network.name().to_string(),
            execution,
            analytical,
            eyeriss,
            checks,
            config,
        })
    }

    /// Whether every layer's simulated activity agrees with the analytic
    /// model's charge ([`LayerCrossCheck::is_consistent`]).
    pub fn is_consistent(&self) -> bool {
        self.checks.iter().all(LayerCrossCheck::is_consistent)
    }

    /// Wall cycles of the simulated run on the paper's PE array: per
    /// simulated layer, measured busy cycles spread over the array (the
    /// reorganized dataflow keeps every remaining compute node busy on
    /// consequential work, Figure 5c).
    pub fn simulated_cycles(&self) -> u64 {
        self.execution
            .array_cycles(self.config.array().total_pes() as u64)
    }

    /// Eyeriss baseline cycles over the layers the machine simulated (host
    /// layers are excluded from both sides).
    pub fn baseline_cycles(&self) -> u64 {
        self.zipped_machine_layers(&self.eyeriss)
            .map(|(stats, _)| stats.cycles)
            .sum()
    }

    /// Speedup of the simulated machine run over the Eyeriss baseline.
    pub fn simulated_speedup(&self) -> f64 {
        self.baseline_cycles() as f64 / self.simulated_cycles().max(1) as f64
    }

    /// Energy charged to the machine's measured activity counters.
    pub fn simulated_energy_pj(&self) -> f64 {
        self.execution.energy(&self.config.energy()).total_pj()
    }

    /// Eyeriss baseline energy over the layers the machine simulated.
    pub fn baseline_energy_pj(&self) -> f64 {
        self.zipped_machine_layers(&self.eyeriss)
            .map(|(stats, _)| stats.energy.total_pj())
            .sum()
    }

    /// Energy reduction of the simulated run over the Eyeriss baseline.
    pub fn simulated_energy_reduction(&self) -> f64 {
        self.baseline_energy_pj() / self.simulated_energy_pj().max(f64::MIN_POSITIVE)
    }

    /// Pairs an analytic model's per-layer statistics with the machine's
    /// per-layer reports, keeping only the layers the machine simulated.
    fn zipped_machine_layers<'a>(
        &'a self,
        stats: &'a NetworkStats,
    ) -> impl Iterator<Item = (&'a ganax_eyeriss::LayerStats, &'a crate::LayerExecution)> {
        stats
            .layers
            .iter()
            .zip(&self.execution.layers)
            .filter(|(_, run)| !run.host)
    }
}

/// Runs the comparison for every GAN in the Table I zoo.
pub fn compare_all() -> Vec<ModelComparison> {
    ganax_models::zoo::all_models()
        .iter()
        .map(ModelComparison::compare)
        .collect()
}

/// Geometric mean of an iterator of positive values (used for the "Geomean"
/// columns of Figure 8).
pub fn geometric_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if count == 0 {
        return 0.0;
    }
    (sum / count as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_models::zoo;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(Vec::<f64>::new()), 0.0);
        assert!((geometric_mean([3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dcgan_report_matches_expected_shape() {
        let report = ModelComparison::compare(&zoo::dcgan());
        assert!(report.generator_speedup() > 2.0);
        assert!(report.generator_energy_reduction() > 1.5);
        assert!((report.discriminator_speedup() - 1.0).abs() < 0.05);
        assert!((report.discriminator_energy_ratio() - 1.0).abs() < 0.05);
    }

    #[test]
    fn runtime_breakdown_normalizes_to_eyeriss() {
        let report = ModelComparison::compare(&zoo::dcgan());
        let ((e_disc, e_gen), (g_disc, g_gen)) = report.runtime_breakdown();
        assert!((e_disc + e_gen - 1.0).abs() < 1e-9);
        // GANAX's total is strictly smaller than Eyeriss's.
        assert!(g_disc + g_gen < 1.0);
        assert!(g_gen < e_gen);
    }

    #[test]
    fn energy_breakdown_normalizes_to_eyeriss() {
        let report = ModelComparison::compare(&zoo::three_d_gan());
        let ((e_disc, e_gen), (g_disc, g_gen)) = report.energy_breakdown();
        assert!((e_disc + e_gen - 1.0).abs() < 1e-9);
        assert!(g_disc + g_gen < 1.0);
        assert!(g_gen < e_gen);
    }

    #[test]
    fn unit_energy_shows_reduction_in_every_category() {
        let report = ModelComparison::compare(&zoo::dcgan());
        for (category, eyeriss, ganax) in report.generator_unit_energy() {
            assert!(
                ganax <= eyeriss + 1e-12,
                "{}: {ganax} > {eyeriss}",
                category.label()
            );
        }
    }

    #[test]
    fn simulated_comparison_beats_baseline_on_a_toy_upsampler() {
        use ganax_models::{Activation, NetworkBuilder};
        use ganax_tensor::{ConvParams, Shape};

        let net = NetworkBuilder::new("toy-upsampler", Shape::new_2d(8, 16, 16))
            .tconv(
                "up1",
                8,
                ConvParams::transposed_2d(4, 2, 1),
                Activation::Relu,
            )
            .tconv(
                "up2",
                4,
                ConvParams::transposed_2d(4, 2, 1),
                Activation::Tanh,
            )
            .build()
            .unwrap();
        let tensors = net
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let shape = NetworkWeights::expected_shape(l);
                let mut t = Tensor::zeros(shape);
                for (j, v) in t.data_mut().iter_mut().enumerate() {
                    *v = ((i + j) % 7) as f32 * 0.25 - 0.75;
                }
                t
            })
            .collect();
        let weights = NetworkWeights::new(&net, tensors).unwrap();
        let mut input = Tensor::zeros(net.input_shape());
        for (j, v) in input.data_mut().iter_mut().enumerate() {
            *v = ((j % 11) as f32 - 5.0) * 0.125;
        }

        let report = SimulatedComparison::run(&net, &input, &weights).unwrap();
        assert!(report.is_consistent(), "machine diverged from the model");
        assert!(report.simulated_cycles() > 0);
        assert!(
            report.simulated_speedup() > 1.0,
            "simulated speedup = {}",
            report.simulated_speedup()
        );
        assert!(
            report.simulated_energy_reduction() > 1.0,
            "simulated energy reduction = {}",
            report.simulated_energy_reduction()
        );
    }

    #[test]
    fn utilization_improves_for_every_gan() {
        for gan in zoo::all_models() {
            let report = ModelComparison::compare(&gan);
            let (eyeriss, ganax) = report.generator_utilization();
            assert!(ganax > eyeriss, "{}: {ganax} <= {eyeriss}", gan.name);
            assert!(ganax > 0.55, "{}: GANAX utilization = {ganax}", gan.name);
        }
    }
}
