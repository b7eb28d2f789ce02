//! Output-row and filter-row reorganization (Figure 5 of the paper).

use crate::phase::AxisPhases;

/// A group of output rows that share the same computation pattern (phase) and
/// therefore the same set of consequential filter rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRowGroup {
    /// The phase shared by every row of the group.
    pub phase: usize,
    /// Output rows (in original order) belonging to the group.
    pub rows: Vec<usize>,
    /// Consequential filter rows for this phase (the filter-row
    /// reorganization): only these need compute nodes.
    pub filter_rows: Vec<usize>,
}

impl OutputRowGroup {
    /// Number of cycles needed to accumulate the partial sums of one output
    /// row of this group horizontally across its compute nodes.
    pub fn accumulation_depth(&self) -> usize {
        self.filter_rows.len()
    }
}

/// The GANAX output-row reorganization: output rows grouped by phase so that
/// rows with identical zero patterns sit on adjacent processing vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRowGroups {
    groups: Vec<OutputRowGroup>,
    kernel: usize,
    output_rows: usize,
}

impl OutputRowGroups {
    /// Groups the `output_rows` rows of a layer whose vertical phase structure
    /// is `phases`.
    pub fn new(phases: &AxisPhases, output_rows: usize) -> Self {
        let mut groups: Vec<OutputRowGroup> = (0..phases.num_phases())
            .map(|phase| OutputRowGroup {
                phase,
                rows: Vec::new(),
                filter_rows: phases.consequential_taps(phase),
            })
            .collect();
        for row in 0..output_rows {
            let phase = phases.phase_of(row);
            groups[phase].rows.push(row);
        }
        // Drop phases that own no rows (can happen when the output extent is
        // smaller than the number of phases). Groups whose phase has no
        // consequential filter rows are kept: their rows are all-zero outputs
        // that still have to be produced (they just need no compute nodes).
        groups.retain(|g| !g.rows.is_empty());
        OutputRowGroups {
            groups,
            kernel: phases.kernel(),
            output_rows,
        }
    }

    /// The reorganized groups, ordered by phase.
    pub fn groups(&self) -> &[OutputRowGroup] {
        &self.groups
    }

    /// Number of output rows covered by the groups.
    pub fn output_rows(&self) -> usize {
        self.output_rows
    }

    /// Total compute nodes (output row × filter row pairs) the conventional
    /// dataflow instantiates: every output row occupies a node for *every*
    /// filter row, consequential or not.
    pub fn conventional_compute_nodes(&self) -> usize {
        self.output_rows * self.kernel
    }

    /// Compute nodes that perform consequential work.
    pub fn consequential_compute_nodes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.rows.len() * g.filter_rows.len())
            .sum()
    }

    /// Compute-node utilization of the conventional dataflow (Figure 4b):
    /// the fraction of instantiated nodes doing consequential work.
    pub fn conventional_utilization(&self) -> f64 {
        if self.conventional_compute_nodes() == 0 {
            return 0.0;
        }
        self.consequential_compute_nodes() as f64 / self.conventional_compute_nodes() as f64
    }

    /// Compute-node utilization after output- and filter-row reorganization
    /// (Figure 5c): idle nodes are eliminated, so every remaining node is
    /// consequential.
    pub fn reorganized_utilization(&self) -> f64 {
        if self.consequential_compute_nodes() == 0 {
            0.0
        } else {
            1.0
        }
    }

    /// Accumulation depth (horizontal partial-sum cycles per output row) of the
    /// conventional dataflow: always the full kernel extent.
    pub fn conventional_accumulation_depth(&self) -> usize {
        self.kernel
    }

    /// Per-group accumulation depths after reorganization (e.g. `{2, 3}` for
    /// the paper's worked example instead of a uniform 5).
    pub fn reorganized_accumulation_depths(&self) -> Vec<usize> {
        self.groups
            .iter()
            .map(OutputRowGroup::accumulation_depth)
            .collect()
    }

    /// The output rows in phase-major order: every row of the first phase
    /// group, then every row of the second, and so on.
    ///
    /// This is the order the reorganized dataflow stages rows in during
    /// inter-layer handoff: rows of one phase share a tap count, so assigning
    /// workers round-robin over this order balances the PE array even when
    /// phases have unequal accumulation depths (assigning by raw row index
    /// would give one worker all the deep-phase rows whenever the worker
    /// count is a multiple of the phase stride).
    pub fn phase_major_rows(&self) -> Vec<usize> {
        self.groups
            .iter()
            .flat_map(|g| g.rows.iter().copied())
            .collect()
    }

    /// Verifies the reorganization is a permutation of the output rows: every
    /// row appears in exactly one group. Returns the sorted list of covered
    /// rows for inspection.
    pub fn covered_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.groups.iter().flat_map(|g| g.rows.clone()).collect();
        rows.sort_unstable();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_tensor::ConvParams;
    use proptest::prelude::*;

    /// The paper's worked example: 4x4 input, 5x5 filter, upsample 2, pad 2.
    fn paper_groups() -> OutputRowGroups {
        let params = ConvParams::transposed_2d(5, 2, 2);
        let phases = AxisPhases::vertical(&params, 4).unwrap();
        OutputRowGroups::new(&phases, phases.output_extent())
    }

    #[test]
    fn paper_example_has_two_groups() {
        let groups = paper_groups();
        assert_eq!(groups.groups().len(), 2);
        let even = &groups.groups()[0];
        let odd = &groups.groups()[1];
        assert_eq!(even.filter_rows, vec![0, 2, 4]);
        assert_eq!(odd.filter_rows, vec![1, 3]);
        // 7 output rows: rows 0,2,4,6 are even-phase; 1,3,5 odd-phase.
        assert_eq!(even.rows, vec![0, 2, 4, 6]);
        assert_eq!(odd.rows, vec![1, 3, 5]);
    }

    #[test]
    fn paper_example_utilization_improves_from_50_to_100_percent() {
        let groups = paper_groups();
        // Figure 4(b): half of the compute nodes are idle.
        assert!((groups.conventional_utilization() - 0.5).abs() < 0.08);
        // Figure 5(c): after reorganization every node is consequential.
        assert_eq!(groups.reorganized_utilization(), 1.0);
    }

    #[test]
    fn paper_example_accumulation_depths_shrink() {
        let groups = paper_groups();
        // Conventional: five cycles regardless of the output row.
        assert_eq!(groups.conventional_accumulation_depth(), 5);
        // Reorganized: two cycles for even rows, three for odd rows
        // (the paper quotes "from five to two ... and from five to three").
        let mut depths = groups.reorganized_accumulation_depths();
        depths.sort_unstable();
        assert_eq!(depths, vec![2, 3]);
    }

    #[test]
    fn covered_rows_is_a_permutation() {
        let groups = paper_groups();
        assert_eq!(groups.covered_rows(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn phase_major_rows_orders_by_group() {
        let groups = paper_groups();
        // Even-phase rows first, then odd-phase rows.
        assert_eq!(groups.phase_major_rows(), vec![0, 2, 4, 6, 1, 3, 5]);
        // Still a permutation of the output rows.
        let mut sorted = groups.phase_major_rows();
        sorted.sort_unstable();
        assert_eq!(sorted, groups.covered_rows());
    }

    #[test]
    fn conventional_convolution_collapses_to_one_full_group() {
        let params = ConvParams::conv_2d(3, 1, 1);
        let phases = AxisPhases::vertical(&params, 16).unwrap();
        let groups = OutputRowGroups::new(&phases, phases.output_extent());
        assert_eq!(groups.groups().len(), 1);
        assert_eq!(groups.conventional_utilization(), 1.0);
        assert_eq!(groups.groups()[0].filter_rows.len(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Reorganization never loses or duplicates an output row.
        #[test]
        fn prop_groups_partition_rows(
            kernel in 2usize..7,
            step in 1usize..4,
            input in 4usize..24,
        ) {
            let padding = kernel / 2;
            prop_assume!(kernel > padding);
            let params = ConvParams::transposed_2d(kernel, step, padding);
            let phases = AxisPhases::vertical(&params, input).unwrap();
            let groups = OutputRowGroups::new(&phases, phases.output_extent());
            prop_assert_eq!(
                groups.covered_rows(),
                (0..phases.output_extent()).collect::<Vec<_>>()
            );
        }

        /// Consequential nodes never exceed conventional nodes, and the
        /// utilization ratio equals their quotient.
        #[test]
        fn prop_utilization_is_consistent(
            kernel in 2usize..7,
            step in 1usize..4,
            input in 4usize..24,
        ) {
            let padding = kernel / 2;
            prop_assume!(kernel > padding);
            let params = ConvParams::transposed_2d(kernel, step, padding);
            let phases = AxisPhases::vertical(&params, input).unwrap();
            let groups = OutputRowGroups::new(&phases, phases.output_extent());
            let conv = groups.conventional_compute_nodes();
            let cons = groups.consequential_compute_nodes();
            prop_assert!(cons <= conv);
            prop_assert!((groups.conventional_utilization() - cons as f64 / conv as f64).abs() < 1e-12);
        }
    }
}
