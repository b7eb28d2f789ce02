//! PE-array schedule estimation for a layer under either dataflow.
//!
//! The paper's evaluation compares two ways of mapping the same layer onto the
//! same 16 × 16 PE array:
//!
//! * **Conventional** (the Eyeriss baseline): every output row occupies one
//!   compute node per kernel row, zeros included; all nodes run the same-length
//!   SIMD program, and partial sums are accumulated across the full kernel
//!   depth.
//! * **Reorganized** (GANAX): output rows are grouped by phase, inconsequential
//!   nodes are eliminated, and each group runs its own (shorter) microprogram
//!   in MIMD-SIMD fashion.
//!
//! The estimate below follows the same first-order accounting the paper's
//! simulator uses: compute nodes are assigned to PEs within a processing
//! vector, output rows to processing vectors, and cycles accumulate per
//! "pass" of the array (node work + horizontal partial-sum accumulation).

use serde::{Deserialize, Serialize};

use crate::geometry::LayerGeometry;

/// Dimensions of the PE array.
///
/// The array is MIMD across its rows and SIMD along them: each processing
/// vector (PV) follows its own microprogram while the PEs inside a PV stay in
/// lockstep. `num_pvs` is therefore the MIMD dimension and `pes_per_pv` the
/// SIMD lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Number of processing vectors (rows of PEs sharing a local µop buffer).
    pub num_pvs: usize,
    /// Number of PEs per processing vector (the SIMD lane count).
    pub pes_per_pv: usize,
}

impl ArrayConfig {
    /// The paper's configuration: 16 PVs × 16 PEs.
    pub fn paper() -> Self {
        ArrayConfig {
            num_pvs: 16,
            pes_per_pv: 16,
        }
    }

    /// Total number of PEs.
    pub fn total_pes(&self) -> usize {
        self.num_pvs * self.pes_per_pv
    }

    /// The SIMD lane count (alias for [`ArrayConfig::pes_per_pv`]).
    pub fn simd_lanes(&self) -> usize {
        self.pes_per_pv
    }
}

impl Default for ArrayConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Which dataflow the schedule models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataflowMode {
    /// Dense execution over the zero-inserted input (conventional accelerator).
    Conventional,
    /// GANAX output/filter-row reorganized execution.
    Reorganized,
}

/// First-order schedule estimate of one layer on the PE array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleEstimate {
    /// Dataflow the estimate was computed for.
    pub mode: DataflowMode,
    /// Wall-clock cycles to execute the layer.
    pub schedule_cycles: u64,
    /// PE-cycles spent executing operations (including inconsequential ones in
    /// the conventional dataflow).
    pub occupied_pe_cycles: u64,
    /// PE-cycles spent on consequential operations.
    pub productive_pe_cycles: u64,
    /// Horizontal partial-sum accumulation transfers between PEs.
    pub accumulation_transfers: u64,
    /// Number of array passes (used for µop-fetch accounting).
    pub passes: u64,
}

impl ScheduleEstimate {
    /// PE utilization: the fraction of PE-cycles over the whole schedule that
    /// perform consequential work (Figure 11's metric).
    pub fn utilization(&self, array: ArrayConfig) -> f64 {
        let capacity = self
            .schedule_cycles
            .saturating_mul(array.total_pes() as u64);
        if capacity == 0 {
            return 0.0;
        }
        (self.productive_pe_cycles as f64 / capacity as f64).min(1.0)
    }

    /// Estimates the schedule of `geometry` on `array` under `mode`.
    pub fn estimate(geometry: &LayerGeometry, array: ArrayConfig, mode: DataflowMode) -> Self {
        if geometry.is_projection {
            return Self::estimate_projection(geometry, array, mode);
        }
        let dense_unit = geometry.dense_unit_macs().max(1);
        let cons_unit = geometry.consequential_unit_macs().max(1);
        let mut schedule_cycles = 0u64;
        let mut accumulation = 0u64;
        let mut passes = 0u64;

        for group in geometry.phase_groups() {
            let (nodes_per_row, unit) = match mode {
                DataflowMode::Conventional => (group.dense_nodes, dense_unit),
                DataflowMode::Reorganized => (group.consequential_nodes, cons_unit),
            };
            let nodes_per_row = nodes_per_row.max(1);
            // A row may need several sequential chunks if its nodes exceed the
            // PEs of one PV; conversely several rows share a PV when the nodes
            // are few.
            let chunks = nodes_per_row.div_ceil(array.pes_per_pv) as u64;
            let nodes_per_chunk = nodes_per_row.min(array.pes_per_pv);
            let rows_per_pv = (array.pes_per_pv / nodes_per_chunk).max(1) as u64;
            let concurrent_rows = rows_per_pv * array.num_pvs as u64;
            let row_waves = group.num_rows.div_ceil(concurrent_rows);
            let group_passes = row_waves * chunks;
            // Each pass: every node streams `unit` MACs, then the partial sums
            // of the chunk are reduced across the PEs that produced them.
            let pass_cycles = unit + nodes_per_chunk as u64;
            schedule_cycles += group_passes * pass_cycles;
            passes += group_passes;
            accumulation += group.num_rows * nodes_per_row as u64 * chunks;
        }

        // Productive work is identical under both dataflows (the consequential
        // MACs); what differs is how many PE-cycles are *occupied*: the
        // conventional dataflow spends a cycle on every dense MAC (zeros
        // included), the reorganized one only on consequential MACs. The exact
        // layer-level counts are used so energy accounting does not drift with
        // boundary effects.
        let productive = geometry.consequential_macs;
        let occupied = match mode {
            DataflowMode::Conventional => geometry.dense_macs,
            DataflowMode::Reorganized => geometry.consequential_macs,
        };

        ScheduleEstimate {
            mode,
            schedule_cycles: schedule_cycles.max(1),
            occupied_pe_cycles: occupied,
            productive_pe_cycles: productive,
            accumulation_transfers: accumulation,
            passes: passes.max(1),
        }
    }

    /// Projection (fully-connected) layers behave identically under both
    /// dataflows: the MACs are spread across every PE.
    fn estimate_projection(
        geometry: &LayerGeometry,
        array: ArrayConfig,
        mode: DataflowMode,
    ) -> Self {
        let macs = geometry.dense_macs;
        let cycles = macs.div_ceil(array.total_pes() as u64).max(1);
        // One reduction step per output element.
        let accumulation = geometry.output.volume() as u64;
        ScheduleEstimate {
            mode,
            schedule_cycles: cycles + accumulation.div_ceil(array.total_pes() as u64),
            occupied_pe_cycles: macs,
            productive_pe_cycles: macs,
            accumulation_transfers: accumulation,
            passes: macs.div_ceil((array.total_pes() as u64) * 1024).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_models::{Activation, Layer};
    use ganax_tensor::{ConvParams, Shape};

    fn tconv_layer() -> LayerGeometry {
        LayerGeometry::for_layer(
            &Layer::conv(
                "tconv",
                Shape::new_2d(64, 8, 8),
                32,
                ConvParams::transposed_2d(5, 2, 2).with_output_padding(0, 1, 1),
                Activation::Relu,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn conv_layer() -> LayerGeometry {
        LayerGeometry::for_layer(
            &Layer::conv(
                "conv",
                Shape::new_2d(64, 16, 16),
                32,
                ConvParams::conv_2d(5, 2, 2),
                Activation::LeakyRelu,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn reorganized_tconv_is_faster_than_conventional() {
        let geo = tconv_layer();
        let array = ArrayConfig::paper();
        let conventional = ScheduleEstimate::estimate(&geo, array, DataflowMode::Conventional);
        let reorganized = ScheduleEstimate::estimate(&geo, array, DataflowMode::Reorganized);
        let speedup = conventional.schedule_cycles as f64 / reorganized.schedule_cycles as f64;
        assert!(speedup > 1.5, "speedup = {speedup}");
        assert!(speedup < 6.0, "speedup = {speedup}");
        assert!(reorganized.productive_pe_cycles <= reorganized.occupied_pe_cycles);
        assert!(conventional.occupied_pe_cycles > reorganized.occupied_pe_cycles);
    }

    #[test]
    fn conventional_and_reorganized_agree_on_conv_layers() {
        let geo = conv_layer();
        let array = ArrayConfig::paper();
        let conventional = ScheduleEstimate::estimate(&geo, array, DataflowMode::Conventional);
        let reorganized = ScheduleEstimate::estimate(&geo, array, DataflowMode::Reorganized);
        assert_eq!(conventional.schedule_cycles, reorganized.schedule_cycles);
        assert_eq!(
            conventional.occupied_pe_cycles,
            reorganized.occupied_pe_cycles
        );
    }

    #[test]
    fn utilization_improves_with_reorganization() {
        let geo = tconv_layer();
        let array = ArrayConfig::paper();
        let conventional = ScheduleEstimate::estimate(&geo, array, DataflowMode::Conventional);
        let reorganized = ScheduleEstimate::estimate(&geo, array, DataflowMode::Reorganized);
        let u_conv = conventional.utilization(array);
        let u_ganax = reorganized.utilization(array);
        assert!(u_ganax > u_conv, "{u_ganax} <= {u_conv}");
        assert!(u_ganax > 0.6, "GANAX utilization = {u_ganax}");
        assert!(u_conv < 0.5, "conventional utilization = {u_conv}");
    }

    #[test]
    fn occupied_cycles_match_exact_mac_counts() {
        let geo = tconv_layer();
        let array = ArrayConfig::paper();
        let conventional = ScheduleEstimate::estimate(&geo, array, DataflowMode::Conventional);
        let reorganized = ScheduleEstimate::estimate(&geo, array, DataflowMode::Reorganized);
        assert_eq!(conventional.occupied_pe_cycles, geo.dense_macs);
        assert_eq!(reorganized.productive_pe_cycles, geo.consequential_macs);
    }

    #[test]
    fn projection_layers_are_mode_independent() {
        let layer = Layer::projection(
            "project",
            Shape::new_2d(100, 1, 1),
            Shape::new_2d(1024, 4, 4),
            Activation::Relu,
        );
        let geo = LayerGeometry::for_layer(&layer).unwrap();
        let array = ArrayConfig::paper();
        let a = ScheduleEstimate::estimate(&geo, array, DataflowMode::Conventional);
        let b = ScheduleEstimate::estimate(&geo, array, DataflowMode::Reorganized);
        assert_eq!(a.schedule_cycles, b.schedule_cycles);
        assert_eq!(a.occupied_pe_cycles, geo.dense_macs);
    }

    #[test]
    fn volumetric_layer_speedup_is_larger_than_2d() {
        let layer3d = Layer::conv(
            "tconv3d",
            Shape::new(64, 8, 8, 8),
            32,
            ConvParams::transposed_3d(4, 2, 1),
            Activation::Relu,
        )
        .unwrap();
        let geo3d = LayerGeometry::for_layer(&layer3d).unwrap();
        let array = ArrayConfig::paper();
        let conv3d = ScheduleEstimate::estimate(&geo3d, array, DataflowMode::Conventional);
        let reorg3d = ScheduleEstimate::estimate(&geo3d, array, DataflowMode::Reorganized);
        let speedup3d = conv3d.schedule_cycles as f64 / reorg3d.schedule_cycles as f64;

        let geo2d = tconv_layer();
        let conv2d = ScheduleEstimate::estimate(&geo2d, array, DataflowMode::Conventional);
        let reorg2d = ScheduleEstimate::estimate(&geo2d, array, DataflowMode::Reorganized);
        let speedup2d = conv2d.schedule_cycles as f64 / reorg2d.schedule_cycles as f64;

        assert!(
            speedup3d > speedup2d,
            "3d speedup {speedup3d} should exceed 2d speedup {speedup2d}"
        );
    }

    #[test]
    fn array_config_totals() {
        let array = ArrayConfig::paper();
        assert_eq!(array.total_pes(), 256);
        assert_eq!(ArrayConfig::default(), array);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The reorganized dataflow is never slower than the conventional
            /// one and never occupies more PE-cycles, for arbitrary transposed
            /// convolution geometries and array shapes.
            #[test]
            fn prop_reorganization_never_loses(
                kernel in 2usize..6,
                stride in 1usize..3,
                extent in 2usize..12,
                channels in 1usize..8,
                out_channels in 1usize..8,
                num_pvs in 2usize..20,
                pes_per_pv in 2usize..20,
            ) {
                let padding = kernel / 2;
                prop_assume!(kernel > padding);
                let params = ConvParams::transposed_2d(kernel, stride, padding);
                let input = Shape::new_2d(channels, extent, extent);
                prop_assume!(params.output_shape(input, out_channels).is_ok());
                let layer = Layer::conv("prop", input, out_channels, params, Activation::None)
                    .unwrap();
                let geo = LayerGeometry::for_layer(&layer).unwrap();
                let array = ArrayConfig { num_pvs, pes_per_pv };
                let conv = ScheduleEstimate::estimate(&geo, array, DataflowMode::Conventional);
                let reorg = ScheduleEstimate::estimate(&geo, array, DataflowMode::Reorganized);
                prop_assert!(reorg.schedule_cycles <= conv.schedule_cycles);
                prop_assert!(reorg.occupied_pe_cycles <= conv.occupied_pe_cycles);
                prop_assert!(reorg.productive_pe_cycles == conv.productive_pe_cycles);
                // Utilization is a fraction for both.
                prop_assert!(reorg.utilization(array) <= 1.0 + 1e-12);
                prop_assert!(conv.utilization(array) <= 1.0 + 1e-12);
            }

            /// Occupied PE-cycles always equal the exact layer-level MAC counts.
            #[test]
            fn prop_occupied_cycles_match_mac_counts(
                kernel in 2usize..6,
                stride in 1usize..3,
                extent in 2usize..10,
            ) {
                let padding = kernel / 2;
                prop_assume!(kernel > padding);
                let params = ConvParams::transposed_2d(kernel, stride, padding);
                let input = Shape::new_2d(3, extent, extent);
                prop_assume!(params.output_shape(input, 4).is_ok());
                let layer = Layer::conv("prop", input, 4, params, Activation::None).unwrap();
                let geo = LayerGeometry::for_layer(&layer).unwrap();
                let array = ArrayConfig::paper();
                let conv = ScheduleEstimate::estimate(&geo, array, DataflowMode::Conventional);
                let reorg = ScheduleEstimate::estimate(&geo, array, DataflowMode::Reorganized);
                prop_assert_eq!(conv.occupied_pe_cycles, layer.dense_macs());
                prop_assert_eq!(reorg.occupied_pe_cycles, layer.consequential_macs());
            }
        }
    }
}
