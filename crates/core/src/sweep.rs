//! Design-space sweeps over the accelerator geometry.
//!
//! The paper evaluates one fixed design point (16 × 16 PEs with
//! Eyeriss-equivalent storage); this module turns that fixed reproduction
//! into an explorable simulator. A [`SweepSpec`] names a set of validated
//! [`GanaxConfig`] design points (typically a geometry grid) and a set of
//! Table I networks; [`SweepSpec::run`] evaluates every (point, network)
//! cell in parallel through the analytic models — GANAX *and* a same-budget
//! Eyeriss baseline built from the very same [`GanaxConfig::base`] — and
//! derives a Pareto front over (speedup, energy reduction) per design point.
//! [`SweepSpec::machine_spot_checks`] optionally grounds chosen points in
//! the cycle-level machine on reduced networks.
//!
//! ```
//! use ganax::SweepSpec;
//!
//! let spec = SweepSpec::geometry_grid(
//!     &[(16, 16), (8, 8), (8, 32)],
//!     &["DCGAN", "3D-GAN"],
//! )
//! .unwrap();
//! let result = spec.run();
//! assert_eq!(result.cells.len(), 3 * 2);
//! // Every point beats its same-budget baseline, and the Pareto front over
//! // (geomean speedup, geomean energy reduction) is never empty.
//! assert!(result.cells.iter().all(|c| c.speedup > 1.0));
//! assert!(!result.pareto_front().is_empty());
//! ```

use std::fmt;

use ganax_models::zoo;
use ganax_tensor::Tensor;
use serde::Serialize;

use crate::compare::{geometric_mean, ModelComparison, SimulatedComparison, ZOO_IS_MODELLED};
use crate::config::{ConfigError, GanaxConfig};
use crate::machine::MachineError;
use crate::network::NetworkWeights;

/// One labelled design point of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct DesignPoint {
    /// Human-readable label (e.g. `16x16`), unique within a sweep.
    pub label: String,
    /// The validated accelerator configuration of this point.
    pub config: GanaxConfig,
}

impl DesignPoint {
    /// A design point at `num_pvs × pes_per_pv` PEs, labelled
    /// `"{num_pvs}x{pes_per_pv}"`, otherwise identical to the paper's
    /// configuration.
    ///
    /// # Errors
    /// Propagates [`ConfigError`] for zero-sized geometries.
    pub fn from_geometry(num_pvs: usize, pes_per_pv: usize) -> Result<Self, ConfigError> {
        Ok(DesignPoint {
            label: format!("{num_pvs}x{pes_per_pv}"),
            config: GanaxConfig::paper().with_geometry(num_pvs, pes_per_pv)?,
        })
    }
}

/// Errors building a [`SweepSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A design point's configuration failed validation.
    Config(ConfigError),
    /// A network name is not in the Table I zoo.
    UnknownNetwork {
        /// The unresolvable name.
        name: String,
    },
    /// The spec has no design points or no networks.
    Empty {
        /// Which axis is empty (`"points"` or `"networks"`).
        what: &'static str,
    },
    /// Two design points share a label (results would be ambiguous).
    DuplicateLabel {
        /// The repeated label.
        label: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Config(error) => write!(f, "invalid design point: {error}"),
            SweepError::UnknownNetwork { name } => {
                write!(f, "`{name}` is not a Table I zoo model")
            }
            SweepError::Empty { what } => write!(f, "sweep has no {what}"),
            SweepError::DuplicateLabel { label } => {
                write!(f, "duplicate design-point label `{label}`")
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ConfigError> for SweepError {
    fn from(error: ConfigError) -> Self {
        SweepError::Config(error)
    }
}

/// A grid of design points × Table I networks to evaluate.
#[derive(Debug, Clone, Serialize)]
pub struct SweepSpec {
    /// The design points, each a validated configuration.
    pub points: Vec<DesignPoint>,
    /// Table I GAN names whose generators the sweep evaluates.
    pub networks: Vec<String>,
    /// Worker threads for [`SweepSpec::run`] (`0` = use
    /// [`std::thread::available_parallelism`]). Results are bit-identical
    /// for every thread count: cells are pure functions of their (point,
    /// network) pair and are reduced in task order.
    pub threads: usize,
}

impl SweepSpec {
    /// Builds a spec from explicit design points, validating every point's
    /// config, the network names, and label uniqueness.
    ///
    /// # Errors
    /// Returns the first [`SweepError`] found.
    pub fn new(points: Vec<DesignPoint>, networks: &[&str]) -> Result<Self, SweepError> {
        if points.is_empty() {
            return Err(SweepError::Empty { what: "points" });
        }
        if networks.is_empty() {
            return Err(SweepError::Empty { what: "networks" });
        }
        for (i, point) in points.iter().enumerate() {
            point.config.validate()?;
            if points[..i].iter().any(|p| p.label == point.label) {
                return Err(SweepError::DuplicateLabel {
                    label: point.label.clone(),
                });
            }
        }
        let mut resolved = Vec::with_capacity(networks.len());
        for name in networks {
            match zoo::by_name(name) {
                // Keep the zoo's canonical capitalization so cells join
                // cleanly against other reports.
                Some(model) => resolved.push(model.name),
                None => {
                    return Err(SweepError::UnknownNetwork {
                        name: (*name).to_string(),
                    })
                }
            }
        }
        Ok(SweepSpec {
            points,
            networks: resolved,
            threads: 0,
        })
    }

    /// Builds a spec over a list of `(num_pvs, pes_per_pv)` geometries, each
    /// otherwise identical to the paper's configuration.
    ///
    /// # Errors
    /// As [`SweepSpec::new`] (zero-sized geometries surface as
    /// [`SweepError::Config`]).
    pub fn geometry_grid(
        geometries: &[(usize, usize)],
        networks: &[&str],
    ) -> Result<Self, SweepError> {
        let points = geometries
            .iter()
            .map(|&(pvs, pes)| DesignPoint::from_geometry(pvs, pes))
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(points, networks)
    }

    /// Returns the spec with an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Evaluates every (design point, network) cell through the analytic
    /// models, in parallel, and summarizes each design point with geometric
    /// means and a Pareto-optimality flag.
    ///
    /// Every cell compares GANAX against an Eyeriss baseline built from the
    /// *same* [`GanaxConfig::base`] — the same array geometry, clock and
    /// energy constants — so each point is a same-budget head-to-head, not a
    /// comparison against the paper's fixed 16 × 16 baseline.
    pub fn run(&self) -> SweepResult {
        let gans: Vec<_> = self
            .networks
            .iter()
            .map(|name| zoo::by_name(name).expect("networks validated at construction"))
            .collect();
        let tasks: Vec<(usize, usize)> = (0..self.points.len())
            .flat_map(|p| (0..gans.len()).map(move |n| (p, n)))
            .collect();

        let available = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let threads = if self.threads == 0 {
            available
        } else {
            self.threads
        }
        .clamp(1, tasks.len());

        let evaluate = |&(p, n): &(usize, usize)| {
            let point = &self.points[p];
            let gan = &gans[n];
            let config = point.config;
            let report = ModelComparison::compare_with(gan, config).expect(ZOO_IS_MODELLED);
            SweepCell {
                design: point.label.clone(),
                network: gan.name.clone(),
                num_pvs: config.array().num_pvs,
                pes_per_pv: config.array().pes_per_pv,
                total_pes: config.array().total_pes(),
                frequency_mhz: config.base.frequency_hz / 1e6,
                speedup: report.generator_speedup(),
                energy_reduction: report.generator_energy_reduction(),
                ganax_cycles: report.ganax_generator.total_cycles(),
                eyeriss_cycles: report.eyeriss_generator.total_cycles(),
                ganax_energy_pj: report.ganax_generator.total_energy().total_pj(),
                eyeriss_energy_pj: report.eyeriss_generator.total_energy().total_pj(),
                ganax_utilization: report.ganax_generator.average_utilization(),
                eyeriss_utilization: report.eyeriss_generator.average_utilization(),
                ganax_seconds: config
                    .base
                    .cycles_to_seconds(report.ganax_generator.total_cycles()),
            }
        };

        // Static round-robin sharding; each worker returns (task index, cell)
        // pairs and the reduction sorts by task index, so the result is
        // independent of the thread count and interleaving.
        let mut indexed: Vec<(usize, SweepCell)> = if threads == 1 {
            tasks.iter().map(evaluate).enumerate().collect()
        } else {
            let mut indexed = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        let tasks = &tasks;
                        let evaluate = &evaluate;
                        scope.spawn(move || {
                            tasks
                                .iter()
                                .enumerate()
                                .skip(w)
                                .step_by(threads)
                                .map(|(i, task)| (i, evaluate(task)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("sweep worker panicked"))
                    .collect::<Vec<_>>()
            });
            indexed.sort_by_key(|(i, _)| *i);
            indexed
        };
        let cells: Vec<SweepCell> = indexed.drain(..).map(|(_, cell)| cell).collect();

        let mut designs: Vec<DesignSummary> = self
            .points
            .iter()
            .enumerate()
            .map(|(p, point)| {
                let point_cells = &cells[p * gans.len()..(p + 1) * gans.len()];
                DesignSummary {
                    design: point.label.clone(),
                    num_pvs: point.config.array().num_pvs,
                    pes_per_pv: point.config.array().pes_per_pv,
                    total_pes: point.config.array().total_pes(),
                    geomean_speedup: geometric_mean(point_cells.iter().map(|c| c.speedup)),
                    geomean_energy_reduction: geometric_mean(
                        point_cells.iter().map(|c| c.energy_reduction),
                    ),
                    pareto_optimal: false,
                }
            })
            .collect();
        mark_pareto_front(&mut designs);

        SweepResult {
            networks: self.networks.clone(),
            cells,
            designs,
        }
    }

    /// Grounds the sweep in the cycle-level machine: for every (point,
    /// network) cell, executes the network's *reduced* generator
    /// ([`zoo::reduced_generator`], channels capped at `max_channels`) end to
    /// end on the machine under that point's configuration, with
    /// deterministic weights, and reports the measured speedup/energy
    /// direction plus the machine-vs-analytic cross-check.
    ///
    /// # Errors
    /// Propagates [`MachineError`] from any machine execution.
    pub fn machine_spot_checks(
        &self,
        max_channels: usize,
    ) -> Result<Vec<MachineSweepCell>, MachineError> {
        let mut cells = Vec::with_capacity(self.points.len() * self.networks.len());
        for point in &self.points {
            for name in &self.networks {
                let network = zoo::reduced_generator(name, max_channels)
                    .expect("networks validated at construction");
                let weights = deterministic_weights(&network, 0x5EED);
                let input = Tensor::deterministic(network.input_shape(), 0xF00D);
                let report =
                    SimulatedComparison::run_with(&network, &input, &weights, point.config)?;
                cells.push(MachineSweepCell {
                    design: point.label.clone(),
                    network: name.clone(),
                    max_channels,
                    busy_pe_cycles: report.execution.total_busy_pe_cycles(),
                    simulated_speedup: report.simulated_speedup(),
                    simulated_energy_reduction: report.simulated_energy_reduction(),
                    consistent: report.is_consistent(),
                });
            }
        }
        Ok(cells)
    }
}

/// One (design point, network) cell of a sweep: the generator head-to-head
/// against the same-budget Eyeriss baseline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepCell {
    /// Design-point label.
    pub design: String,
    /// Table I GAN name.
    pub network: String,
    /// Processing vectors (MIMD rows) of the point.
    pub num_pvs: usize,
    /// PEs per processing vector (SIMD lanes) of the point.
    pub pes_per_pv: usize,
    /// Total PEs of the point.
    pub total_pes: usize,
    /// Clock frequency in MHz.
    pub frequency_mhz: f64,
    /// Generator speedup of GANAX over the same-budget Eyeriss baseline.
    pub speedup: f64,
    /// Generator energy reduction over the same-budget Eyeriss baseline.
    pub energy_reduction: f64,
    /// GANAX generator cycles.
    pub ganax_cycles: u64,
    /// Eyeriss generator cycles at the same geometry.
    pub eyeriss_cycles: u64,
    /// GANAX generator energy in picojoules.
    pub ganax_energy_pj: f64,
    /// Eyeriss generator energy in picojoules.
    pub eyeriss_energy_pj: f64,
    /// GANAX average PE utilization on the generator.
    pub ganax_utilization: f64,
    /// Eyeriss average PE utilization on the generator.
    pub eyeriss_utilization: f64,
    /// GANAX generator latency in seconds at the point's clock.
    pub ganax_seconds: f64,
}

/// Per-design-point summary across the sweep's networks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DesignSummary {
    /// Design-point label.
    pub design: String,
    /// Processing vectors (MIMD rows).
    pub num_pvs: usize,
    /// PEs per processing vector (SIMD lanes).
    pub pes_per_pv: usize,
    /// Total PEs.
    pub total_pes: usize,
    /// Geometric-mean speedup across the sweep's networks.
    pub geomean_speedup: f64,
    /// Geometric-mean energy reduction across the sweep's networks.
    pub geomean_energy_reduction: f64,
    /// Whether no other design point dominates this one on
    /// (geomean speedup, geomean energy reduction).
    pub pareto_optimal: bool,
}

/// One cycle-level spot check of [`SweepSpec::machine_spot_checks`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MachineSweepCell {
    /// Design-point label.
    pub design: String,
    /// Table I GAN name (its reduced generator was executed).
    pub network: String,
    /// Channel cap of the reduced generator.
    pub max_channels: usize,
    /// Measured busy PE cycles of the end-to-end run.
    pub busy_pe_cycles: u64,
    /// Measured speedup over the same-budget Eyeriss baseline.
    pub simulated_speedup: f64,
    /// Measured energy reduction over the same-budget Eyeriss baseline.
    pub simulated_energy_reduction: f64,
    /// Whether the machine's activity agrees with the analytic model
    /// ([`SimulatedComparison::is_consistent`]).
    pub consistent: bool,
}

/// The full result of [`SweepSpec::run`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepResult {
    /// The networks evaluated (canonical zoo names, sweep order).
    pub networks: Vec<String>,
    /// Every (design point, network) cell, point-major in spec order.
    pub cells: Vec<SweepCell>,
    /// Per-design-point summaries in spec order, Pareto-flagged.
    pub designs: Vec<DesignSummary>,
}

impl SweepResult {
    /// The Pareto-optimal design points (spec order).
    pub fn pareto_front(&self) -> Vec<&DesignSummary> {
        self.designs.iter().filter(|d| d.pareto_optimal).collect()
    }

    /// Looks one cell up by design label and network name.
    pub fn cell(&self, design: &str, network: &str) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.design == design && c.network == network)
    }
}

/// Flags every design that no other design dominates on the maximization
/// objectives (geomean speedup, geomean energy reduction). `b` dominates `a`
/// when it is at least as good on both and strictly better on one.
fn mark_pareto_front(designs: &mut [DesignSummary]) {
    let metrics: Vec<(f64, f64)> = designs
        .iter()
        .map(|d| (d.geomean_speedup, d.geomean_energy_reduction))
        .collect();
    for (i, design) in designs.iter_mut().enumerate() {
        let (s, e) = metrics[i];
        design.pareto_optimal = !metrics
            .iter()
            .enumerate()
            .any(|(j, &(bs, be))| j != i && bs >= s && be >= e && (bs > s || be > e));
    }
}

/// Deterministic weights (no biases) for every layer of `network`, built
/// from [`Tensor::deterministic`] so spot-check numbers are reproducible
/// across runs and hosts and comparable with the bench/conformance suites.
fn deterministic_weights(network: &ganax_models::Network, seed: u64) -> NetworkWeights {
    let tensors = network
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| Tensor::deterministic(NetworkWeights::expected_shape(l), seed + i as u64))
        .collect();
    NetworkWeights::new(network, tensors).expect("weights generated from the network's own shapes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_rejects_bad_inputs() {
        assert_eq!(
            SweepSpec::geometry_grid(&[], &["DCGAN"]).unwrap_err(),
            SweepError::Empty { what: "points" }
        );
        assert_eq!(
            SweepSpec::geometry_grid(&[(16, 16)], &[]).unwrap_err(),
            SweepError::Empty { what: "networks" }
        );
        assert!(matches!(
            SweepSpec::geometry_grid(&[(0, 16)], &["DCGAN"]).unwrap_err(),
            SweepError::Config(ConfigError::EmptyArray { .. })
        ));
        assert_eq!(
            SweepSpec::geometry_grid(&[(16, 16)], &["NoSuchGAN"]).unwrap_err(),
            SweepError::UnknownNetwork {
                name: "NoSuchGAN".to_string()
            }
        );
        assert_eq!(
            SweepSpec::geometry_grid(&[(16, 16), (16, 16)], &["DCGAN"]).unwrap_err(),
            SweepError::DuplicateLabel {
                label: "16x16".to_string()
            }
        );
    }

    #[test]
    fn network_names_resolve_case_insensitively_to_canonical_names() {
        let spec = SweepSpec::geometry_grid(&[(16, 16)], &["dcgan", "3d-gan"]).unwrap();
        assert_eq!(spec.networks, vec!["DCGAN", "3D-GAN"]);
    }

    #[test]
    fn run_produces_point_major_cells_and_summaries() {
        let spec = SweepSpec::geometry_grid(&[(16, 16), (8, 8)], &["DCGAN"]).unwrap();
        let result = spec.run();
        assert_eq!(result.cells.len(), 2);
        assert_eq!(result.cells[0].design, "16x16");
        assert_eq!(result.cells[1].design, "8x8");
        assert_eq!(result.designs.len(), 2);
        for cell in &result.cells {
            assert!(
                cell.speedup > 1.0,
                "{}: speedup {}",
                cell.design,
                cell.speedup
            );
            assert!(cell.energy_reduction > 1.0);
            assert!(cell.ganax_cycles < cell.eyeriss_cycles);
            assert!(cell.ganax_seconds > 0.0);
        }
        // A single-network sweep's geomeans equal the cell values.
        for (design, cell) in result.designs.iter().zip(&result.cells) {
            assert!((design.geomean_speedup - cell.speedup).abs() < 1e-12);
        }
    }

    #[test]
    fn run_is_thread_count_invariant() {
        let spec =
            SweepSpec::geometry_grid(&[(16, 16), (8, 16), (16, 8)], &["DCGAN", "MAGAN"]).unwrap();
        let serial = spec.clone().with_threads(1).run();
        let threaded = spec.with_threads(4).run();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn pareto_front_is_consistent() {
        let spec = SweepSpec::geometry_grid(
            &[(16, 16), (8, 8), (8, 32), (32, 8), (4, 16)],
            &["DCGAN", "3D-GAN"],
        )
        .unwrap();
        let result = spec.run();
        let front = result.pareto_front();
        assert!(!front.is_empty());
        // The lexicographic argmax on (speedup, energy reduction) can never
        // be dominated, so it must be flagged.
        let best = result
            .designs
            .iter()
            .max_by(|a, b| {
                (a.geomean_speedup, a.geomean_energy_reduction)
                    .partial_cmp(&(b.geomean_speedup, b.geomean_energy_reduction))
                    .unwrap()
            })
            .unwrap();
        assert!(best.pareto_optimal, "argmax design off the front");
        // No front member may be dominated by any other design.
        for a in &front {
            for b in &result.designs {
                let dominates = b.geomean_speedup >= a.geomean_speedup
                    && b.geomean_energy_reduction >= a.geomean_energy_reduction
                    && (b.geomean_speedup > a.geomean_speedup
                        || b.geomean_energy_reduction > a.geomean_energy_reduction);
                assert!(
                    !dominates,
                    "{} dominates front member {}",
                    b.design, a.design
                );
            }
        }
    }

    #[test]
    fn cell_lookup_finds_cells() {
        let spec = SweepSpec::geometry_grid(&[(16, 16)], &["DCGAN"]).unwrap();
        let result = spec.run();
        assert!(result.cell("16x16", "DCGAN").is_some());
        assert!(result.cell("8x8", "DCGAN").is_none());
    }

    #[test]
    fn machine_spot_checks_are_consistent_and_directionally_right() {
        let spec = SweepSpec::geometry_grid(&[(16, 16), (8, 8)], &["DCGAN"]).unwrap();
        let checks = spec.machine_spot_checks(4).unwrap();
        assert_eq!(checks.len(), 2);
        for check in &checks {
            assert!(check.consistent, "{}: machine diverged", check.design);
            assert!(check.busy_pe_cycles > 0);
            assert!(
                check.simulated_speedup > 1.0,
                "{}: simulated speedup {}",
                check.design,
                check.simulated_speedup
            );
        }
    }
}
