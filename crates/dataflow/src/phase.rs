//! Per-axis phase analysis of zero-inserted inputs.

use ganax_tensor::{ConvParams, ZeroInsertion};

/// Phase analysis of one spatial axis of a (transposed) convolution.
///
/// In the zero-inserted domain, original input elements sit at positions
/// `border + i * step`; every other position holds an inserted zero or border
/// padding. An output position `o` gathers the expanded positions
/// `o .. o + kernel`, so which kernel taps are consequential depends only on
/// `o mod step` — the output position's *phase*. There are exactly `step`
/// distinct phases (two in the paper's Figure 4 example).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisPhases {
    kernel: usize,
    step: usize,
    border: usize,
    input_extent: usize,
    output_extent: usize,
}

impl AxisPhases {
    /// Builds the phase analysis for one axis.
    ///
    /// * `kernel` — kernel extent along the axis.
    /// * `step` — upsampling stride (1 + number of inserted zeros); `1` for
    ///   conventional convolutions.
    /// * `border` — implicit padding of the expanded domain
    ///   (`kernel - 1 - padding` for transposed convolutions).
    /// * `input_extent` — number of original input elements along the axis.
    /// * `output_extent` — number of output elements along the axis.
    pub fn new(
        kernel: usize,
        step: usize,
        border: usize,
        input_extent: usize,
        output_extent: usize,
    ) -> Self {
        assert!(step >= 1, "step must be at least 1");
        assert!(kernel >= 1, "kernel must be at least 1");
        AxisPhases {
            kernel,
            step,
            border,
            input_extent,
            output_extent,
        }
    }

    fn from_axis(params: &ConvParams, axis: usize, input_extent: usize) -> Option<Self> {
        let ins = ZeroInsertion::from_params(params)?;
        let (kernel, step, border) = match axis {
            0 => (params.kernel.0, ins.inserted.0 + 1, ins.border.0),
            1 => (params.kernel.1, ins.inserted.1 + 1, ins.border.1),
            _ => (params.kernel.2, ins.inserted.2 + 1, ins.border.2),
        };
        let expanded = ins.extent(axis, input_extent);
        let output_extent = if params.is_transposed() {
            expanded.saturating_sub(kernel) + 1
        } else {
            // Conventional convolution: classic output extent using the
            // convolution's own (down-sampling) stride.
            let conv_stride = match axis {
                0 => params.stride.0,
                1 => params.stride.1,
                _ => params.stride.2,
            };
            (input_extent + 2 * border - kernel) / conv_stride + 1
        };
        // A conventional convolution inserts no zeros (step 1), so its phase
        // structure is trivial: a single phase with every tap active.
        Some(AxisPhases::new(
            kernel,
            step,
            border,
            input_extent,
            output_extent,
        ))
    }

    /// Phase analysis of the depth axis, or `None` for a transposed
    /// convolution whose padding is not below its kernel on some axis (it
    /// crops its output; see `ZeroInsertion::from_params`).
    pub fn depth(params: &ConvParams, input_extent: usize) -> Option<Self> {
        Self::from_axis(params, 0, input_extent)
    }

    /// Phase analysis of the vertical (height) axis; `None` as for
    /// [`AxisPhases::depth`].
    pub fn vertical(params: &ConvParams, input_extent: usize) -> Option<Self> {
        Self::from_axis(params, 1, input_extent)
    }

    /// Phase analysis of the horizontal (width) axis; `None` as for
    /// [`AxisPhases::depth`].
    pub fn horizontal(params: &ConvParams, input_extent: usize) -> Option<Self> {
        Self::from_axis(params, 2, input_extent)
    }

    /// Number of distinct phases along the axis (equals the upsampling step).
    pub fn num_phases(&self) -> usize {
        self.step
    }

    /// Kernel extent along the axis.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Output extent along the axis.
    pub fn output_extent(&self) -> usize {
        self.output_extent
    }

    /// The phase of an output position.
    pub fn phase_of(&self, output_pos: usize) -> usize {
        output_pos % self.step
    }

    /// Kernel taps that are consequential for outputs of the given phase,
    /// ignoring boundary truncation (the steady-state, interior pattern).
    pub fn consequential_taps(&self, phase: usize) -> Vec<usize> {
        let phase = phase % self.step;
        (0..self.kernel)
            .filter(|tap| {
                (phase + tap + self.step - (self.border % self.step)).is_multiple_of(self.step)
            })
            .collect()
    }

    /// Exact consequential taps for one output position, including boundary
    /// effects (taps that would read before the first or after the last
    /// original element are excluded).
    pub fn taps_at(&self, output_pos: usize) -> Vec<usize> {
        (0..self.kernel)
            .filter(|tap| {
                let expanded = output_pos + tap;
                if expanded < self.border {
                    return false;
                }
                let rel = expanded - self.border;
                rel.is_multiple_of(self.step) && rel / self.step < self.input_extent
            })
            .collect()
    }

    /// Total consequential (output position, tap) pairs along the axis —
    /// i.e. the exact per-axis factor of the consequential MAC count.
    pub fn total_consequential_taps(&self) -> u64 {
        (0..self.output_extent)
            .map(|o| self.taps_at(o).len() as u64)
            .sum()
    }

    /// Total dense (output position, tap) pairs along the axis.
    pub fn total_dense_taps(&self) -> u64 {
        (self.output_extent * self.kernel) as u64
    }

    /// Average number of consequential taps per output position.
    pub fn average_consequential_taps(&self) -> f64 {
        if self.output_extent == 0 {
            return 0.0;
        }
        self.total_consequential_taps() as f64 / self.output_extent as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_tensor::ConvParams;
    use proptest::prelude::*;

    /// The paper's Figure 4 example: 4x4 input, 5x5 kernel, 1 inserted zero.
    fn paper_vertical() -> AxisPhases {
        AxisPhases::vertical(&ConvParams::transposed_2d(5, 2, 2), 4).unwrap()
    }

    #[test]
    fn paper_example_has_two_phases() {
        let phases = paper_vertical();
        assert_eq!(phases.num_phases(), 2);
        assert_eq!(phases.output_extent(), 7);
    }

    #[test]
    fn paper_example_tap_patterns() {
        let phases = paper_vertical();
        // Phase 0 (output rows 0, 2, 4, ...): filter rows 1, 3, 5 (0-indexed 0, 2, 4).
        assert_eq!(phases.consequential_taps(0), vec![0, 2, 4]);
        // Phase 1 (output rows 1, 3, 5, ...): filter rows 2, 4 (0-indexed 1, 3).
        assert_eq!(phases.consequential_taps(1), vec![1, 3]);
    }

    #[test]
    fn paper_example_output_row_two_uses_rows_two_and_four() {
        // The paper: "the 2nd output row only needs ... the 2nd and 4th filter
        // rows". Output row 2 is index 1.
        let phases = paper_vertical();
        assert_eq!(phases.taps_at(1), vec![1, 3]);
        // Output row 3 (index 2) uses the 1st, 3rd and 5th filter rows.
        assert_eq!(phases.taps_at(2), vec![0, 2, 4]);
    }

    #[test]
    fn boundary_rows_lose_taps() {
        let phases = paper_vertical();
        // The very first output row can only reach the first input row.
        let first = phases.taps_at(0);
        assert!(first.len() <= phases.consequential_taps(0).len());
        assert!(!first.is_empty());
        // The last output row similarly sees fewer original elements.
        let last = phases.taps_at(phases.output_extent() - 1);
        assert!(last.len() <= 3);
    }

    #[test]
    fn conventional_convolution_is_single_phase_all_taps() {
        let phases = AxisPhases::vertical(&ConvParams::conv_2d(3, 2, 1), 16).unwrap();
        assert_eq!(phases.num_phases(), 1);
        assert_eq!(phases.consequential_taps(0), vec![0, 1, 2]);
        assert_eq!(phases.output_extent(), 8);
    }

    #[test]
    fn total_taps_match_params_consequential_count_per_axis() {
        // For a 1-channel, 1-output-channel layer the product of the per-axis
        // consequential tap totals equals the exact consequential MAC count.
        let params = ConvParams::transposed_2d(5, 2, 2);
        let input = ganax_tensor::Shape::new_2d(1, 4, 4);
        let v = AxisPhases::vertical(&params, 4).unwrap();
        let h = AxisPhases::horizontal(&params, 4).unwrap();
        let product = v.total_consequential_taps() * h.total_consequential_taps();
        assert_eq!(product, params.consequential_macs(input, 1).unwrap());
    }

    #[test]
    fn average_taps_close_to_kernel_over_step() {
        let params = ConvParams::transposed_2d(4, 2, 1);
        let v = AxisPhases::vertical(&params, 32).unwrap();
        let avg = v.average_consequential_taps();
        assert!((avg - 2.0).abs() < 0.2, "avg = {avg}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Interior positions of each phase share exactly the steady-state
        /// pattern reported by `consequential_taps`.
        #[test]
        fn prop_interior_positions_match_phase_pattern(
            kernel in 2usize..7,
            step in 1usize..4,
            extent in 6usize..20,
        ) {
            let padding = kernel / 2;
            prop_assume!(kernel > padding);
            let params = ConvParams::transposed_2d(kernel, step, padding);
            let phases = AxisPhases::vertical(&params, extent).unwrap();
            let border = kernel - 1 - padding;
            // Positions far from both boundaries.
            for pos in 0..phases.output_extent() {
                if pos >= kernel + border && pos + kernel + border < phases.output_extent() {
                    prop_assert_eq!(
                        phases.taps_at(pos),
                        phases.consequential_taps(phases.phase_of(pos)),
                        "pos {}", pos
                    );
                }
            }
        }

        /// Every phase pattern has between floor(k/step) and ceil(k/step) taps.
        #[test]
        fn prop_pattern_sizes_bracket_kernel_over_step(
            kernel in 1usize..8,
            step in 1usize..5,
        ) {
            let phases = AxisPhases::new(kernel, step, kernel / 2, 100, 100);
            for phase in 0..phases.num_phases() {
                let n = phases.consequential_taps(phase).len();
                prop_assert!(n >= kernel / step);
                prop_assert!(n <= kernel / step + 1);
            }
        }

        /// The union of taps across phases covers every kernel tap exactly once
        /// per step-aligned residue class.
        #[test]
        fn prop_phases_partition_taps(
            kernel in 1usize..8,
            step in 1usize..5,
            border in 0usize..4,
        ) {
            let phases = AxisPhases::new(kernel, step, border, 100, 100);
            let mut seen = vec![0usize; kernel];
            for phase in 0..phases.num_phases() {
                for tap in phases.consequential_taps(phase) {
                    seen[tap] += 1;
                }
            }
            // Each tap is consequential for exactly one phase.
            prop_assert!(seen.iter().all(|c| *c == 1), "seen = {:?}", seen);
        }
    }
}
