//! First-order memory-traffic model shared by both accelerator models.
//!
//! The paper's evaluation charges every data movement against the Table II
//! costs. This module derives the per-layer movement counts from the layer
//! geometry and the schedule estimate using first-order, documented formulas —
//! the same formulas for both accelerators, so that the *relative* results
//! depend only on how many operations and operand fetches each dataflow
//! actually performs:
//!
//! * **Register file**: two operand reads and one partial-sum update per
//!   executed (or zero-gated) MAC.
//! * **NoC**: one transfer per horizontal partial-sum accumulation hop plus a
//!   one-time distribution of the filter weights down the array.
//! * **Global buffer**: every input row is staged once per (vertical) kernel
//!   tap that consumes it, weights are staged once, outputs written once.
//! * **DRAM**: inputs, weights and outputs move on/off chip once. The baseline
//!   cannot perform zero insertion on the fly (no such hardware exists in a
//!   conventional convolution accelerator), so for transposed convolutions it
//!   fetches the *expanded* input from DRAM; GANAX fetches the original one.

use ganax_dataflow::{DataflowMode, LayerGeometry, ScheduleEstimate};
use ganax_energy::EventCounts;

/// Which operands move between the memory levels for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryTraffic {
    /// Words read from DRAM.
    pub dram_reads: u64,
    /// Words written to DRAM.
    pub dram_writes: u64,
    /// Words read from the global on-chip buffer.
    pub global_buffer_reads: u64,
    /// Words written to the global on-chip buffer.
    pub global_buffer_writes: u64,
    /// Register-file reads.
    pub register_file_reads: u64,
    /// Register-file writes.
    pub register_file_writes: u64,
    /// Inter-PE word transfers.
    pub inter_pe_transfers: u64,
}

/// Derives memory traffic for a layer under a given dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficModel;

impl TrafficModel {
    /// Computes the traffic of one layer.
    pub fn layer_traffic(
        geometry: &LayerGeometry,
        schedule: &ScheduleEstimate,
        mode: DataflowMode,
    ) -> MemoryTraffic {
        let input_words = geometry.input.volume() as u64;
        let output_words = geometry.output.volume() as u64;
        let weight_words = Self::weight_words(geometry);
        // MACs that actually occupy the datapath (dense for the conventional
        // dataflow, consequential for the reorganized one).
        let executed = schedule.occupied_pe_cycles;

        // DRAM: the conventional dataflow must stream the zero-inserted input
        // (a conventional convolution accelerator has no zero-insertion
        // hardware); the reorganized dataflow streams the original input.
        let effective_input = match (mode, geometry.is_tconv) {
            (DataflowMode::Conventional, true) => Self::expanded_input_words(geometry),
            _ => input_words,
        };
        let dram_reads = effective_input + weight_words;
        let dram_writes = output_words;

        // Global buffer: inputs staged once per vertical kernel tap that reads
        // them, weights staged once, outputs written through once.
        let taps_per_input_row = match mode {
            DataflowMode::Conventional => geometry.dense_nodes_per_row() as u64,
            DataflowMode::Reorganized => {
                // Average consequential nodes per output row.
                let groups = geometry.phase_groups();
                let rows: u64 = groups.iter().map(|g| g.num_rows).sum();
                let weighted: u64 = groups
                    .iter()
                    .map(|g| g.num_rows * g.consequential_nodes as u64)
                    .sum();
                weighted.checked_div(rows).map_or(1, |n| n.max(1))
            }
        };
        let global_buffer_reads = effective_input * taps_per_input_row + weight_words;
        let global_buffer_writes = output_words;

        // Register files: two operand reads and one partial-sum update per
        // executed MAC, plus the final output write per element.
        let register_file_reads = 2 * executed;
        let register_file_writes = executed + output_words;

        // NoC: horizontal accumulation plus one-time weight distribution.
        let inter_pe_transfers = schedule.accumulation_transfers + weight_words;

        MemoryTraffic {
            dram_reads,
            dram_writes,
            global_buffer_reads,
            global_buffer_writes,
            register_file_reads,
            register_file_writes,
            inter_pe_transfers,
        }
    }

    /// Number of weight words of a layer.
    pub fn weight_words(geometry: &LayerGeometry) -> u64 {
        if geometry.is_projection {
            geometry.input.volume() as u64 * geometry.output.volume() as u64
        } else {
            geometry.output.channels as u64
                * geometry.input.channels as u64
                * geometry.kernel.0 as u64
                * geometry.kernel.1 as u64
                * geometry.kernel.2 as u64
        }
    }

    /// Volume of the zero-inserted input of a transposed convolution.
    pub fn expanded_input_words(geometry: &LayerGeometry) -> u64 {
        // The expanded extent per axis is output extent + kernel - 1 (stride-1
        // sliding); channels are unchanged.
        let d = geometry.output.depth + geometry.kernel.0 - 1;
        let h = geometry.output.height + geometry.kernel.1 - 1;
        let w = geometry.output.width + geometry.kernel.2 - 1;
        (geometry.input.channels * d * h * w) as u64
    }

    /// Converts traffic plus datapath activity into Table II event counts.
    pub fn to_event_counts(
        traffic: &MemoryTraffic,
        full_ops: u64,
        gated_ops: u64,
        local_uop_fetches: u64,
        global_uop_fetches: u64,
    ) -> EventCounts {
        EventCounts {
            alu_ops: full_ops,
            gated_ops,
            register_file_reads: traffic.register_file_reads,
            register_file_writes: traffic.register_file_writes,
            inter_pe_transfers: traffic.inter_pe_transfers,
            global_buffer_reads: traffic.global_buffer_reads,
            global_buffer_writes: traffic.global_buffer_writes,
            dram_reads: traffic.dram_reads,
            dram_writes: traffic.dram_writes,
            local_uop_fetches,
            global_uop_fetches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_dataflow::ArrayConfig;
    use ganax_models::{Activation, Layer};
    use ganax_tensor::{ConvParams, Shape};

    fn tconv_geometry() -> LayerGeometry {
        LayerGeometry::for_layer(
            &Layer::conv(
                "tconv",
                Shape::new_2d(64, 8, 8),
                32,
                ConvParams::transposed_2d(4, 2, 1),
                Activation::Relu,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn conventional_tconv_reads_expanded_input_from_dram() {
        let geo = tconv_geometry();
        let array = ArrayConfig::paper();
        let conv_sched = ScheduleEstimate::estimate(&geo, array, DataflowMode::Conventional);
        let ganax_sched = ScheduleEstimate::estimate(&geo, array, DataflowMode::Reorganized);
        let conv = TrafficModel::layer_traffic(&geo, &conv_sched, DataflowMode::Conventional);
        let ganax = TrafficModel::layer_traffic(&geo, &ganax_sched, DataflowMode::Reorganized);
        assert!(conv.dram_reads > ganax.dram_reads);
        // Both write the same output volume.
        assert_eq!(conv.dram_writes, ganax.dram_writes);
    }

    #[test]
    fn register_file_traffic_scales_with_executed_macs() {
        let geo = tconv_geometry();
        let array = ArrayConfig::paper();
        let conv_sched = ScheduleEstimate::estimate(&geo, array, DataflowMode::Conventional);
        let conv = TrafficModel::layer_traffic(&geo, &conv_sched, DataflowMode::Conventional);
        assert_eq!(conv.register_file_reads, 2 * geo.dense_macs);
        assert_eq!(
            conv.register_file_writes,
            geo.dense_macs + geo.output.volume() as u64
        );
    }

    #[test]
    fn reorganized_traffic_is_smaller_on_every_channel() {
        let geo = tconv_geometry();
        let array = ArrayConfig::paper();
        let conv_sched = ScheduleEstimate::estimate(&geo, array, DataflowMode::Conventional);
        let ganax_sched = ScheduleEstimate::estimate(&geo, array, DataflowMode::Reorganized);
        let conv = TrafficModel::layer_traffic(&geo, &conv_sched, DataflowMode::Conventional);
        let ganax = TrafficModel::layer_traffic(&geo, &ganax_sched, DataflowMode::Reorganized);
        assert!(ganax.register_file_reads < conv.register_file_reads);
        assert!(ganax.global_buffer_reads < conv.global_buffer_reads);
        assert!(ganax.inter_pe_transfers <= conv.inter_pe_transfers);
        assert!(ganax.dram_reads < conv.dram_reads);
    }

    #[test]
    fn weight_words_matches_filter_volume() {
        let geo = tconv_geometry();
        assert_eq!(TrafficModel::weight_words(&geo), 32 * 64 * 16);
    }

    #[test]
    fn expanded_input_is_larger_than_original() {
        let geo = tconv_geometry();
        assert!(TrafficModel::expanded_input_words(&geo) > geo.input.volume() as u64);
    }

    #[test]
    fn event_count_conversion_copies_fields() {
        let traffic = MemoryTraffic {
            dram_reads: 10,
            dram_writes: 5,
            global_buffer_reads: 20,
            global_buffer_writes: 6,
            register_file_reads: 100,
            register_file_writes: 60,
            inter_pe_transfers: 8,
        };
        let counts = TrafficModel::to_event_counts(&traffic, 50, 25, 3, 2);
        assert_eq!(counts.alu_ops, 50);
        assert_eq!(counts.gated_ops, 25);
        assert_eq!(counts.dram_reads, 10);
        assert_eq!(counts.global_buffer_reads, 20);
        assert_eq!(counts.local_uop_fetches, 3);
        assert_eq!(counts.global_uop_fetches, 2);
    }
}
