//! Layer geometry: the structural view of a layer that the PE-array schedules
//! are computed from.

use ganax_models::{Layer, LayerOp};
use ganax_tensor::Shape;

use crate::phase::AxisPhases;

/// How a (filter-row, output-row) compute node behaves in the reorganized flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// The node multiplies original input data — it must be executed.
    Consequential,
    /// The node would only ever multiply inserted zeros — GANAX eliminates it.
    Inconsequential,
}

/// One kernel-tap position along the vertical/depth axes, tagged with whether
/// it is consequential for a given output-row phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterRowTap {
    /// Kernel depth index.
    pub kz: usize,
    /// Kernel height index.
    pub ky: usize,
    /// Whether the tap is consequential for the phase it was queried for.
    pub kind: RowKind,
}

/// A group of output rows sharing one (depth-phase, height-phase) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseGroup {
    /// Depth-axis phase.
    pub phase_z: usize,
    /// Height-axis phase.
    pub phase_y: usize,
    /// Number of output rows (across all output channels and depth slices)
    /// belonging to the group.
    pub num_rows: u64,
    /// Number of consequential compute nodes (filter-row taps) per output row.
    pub consequential_nodes: usize,
    /// Number of compute nodes a dense execution instantiates per output row.
    pub dense_nodes: usize,
}

/// The structural geometry of one layer, as seen by the PE-array mapping.
///
/// An *output row* is one `(output channel, output depth slice, output row)`
/// triple; a *compute node* processes one vertical/depth kernel tap of one
/// output row and performs `unit` multiply-accumulates (one per output column,
/// kernel column and input channel it touches).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGeometry {
    /// Layer name (for reporting).
    pub name: String,
    /// Whether the layer is a transposed convolution.
    pub is_tconv: bool,
    /// Whether the layer is a projection (fully-connected) layer.
    pub is_projection: bool,
    /// Input shape.
    pub input: Shape,
    /// Output shape.
    pub output: Shape,
    /// Phase structure of the depth axis.
    pub depth_phases: Option<AxisPhases>,
    /// Phase structure of the height axis.
    pub height_phases: Option<AxisPhases>,
    /// Phase structure of the width axis.
    pub width_phases: Option<AxisPhases>,
    /// Kernel extents (depth, height, width); `(1, 1, 1)` for projections.
    pub kernel: (usize, usize, usize),
    /// Dense MACs of the layer.
    pub dense_macs: u64,
    /// Consequential MACs of the layer.
    pub consequential_macs: u64,
}

impl LayerGeometry {
    /// Builds the geometry of a layer.
    ///
    /// # Panics
    /// On a transposed convolution whose padding is not below its kernel on
    /// some axis (it crops its output, which the phase analysis cannot
    /// express); callers refuse such layers first.
    pub fn for_layer(layer: &Layer) -> Self {
        let (depth_phases, height_phases, width_phases, kernel) = match &layer.op {
            LayerOp::Projection => (None, None, None, (1, 1, 1)),
            LayerOp::Conv(p) | LayerOp::TConv(p) => (
                Some(AxisPhases::depth(p, layer.input.depth)),
                Some(AxisPhases::vertical(p, layer.input.height)),
                Some(AxisPhases::horizontal(p, layer.input.width)),
                p.kernel,
            ),
        };
        LayerGeometry {
            name: layer.name.clone(),
            is_tconv: layer.is_tconv(),
            is_projection: matches!(layer.op, LayerOp::Projection),
            input: layer.input,
            output: layer.output,
            depth_phases,
            height_phases,
            width_phases,
            kernel,
            dense_macs: layer.dense_macs(),
            consequential_macs: layer.consequential_macs(),
        }
    }

    /// Total output rows: one per (output channel, depth slice, row) triple.
    pub fn total_output_rows(&self) -> u64 {
        self.output.channels as u64 * self.output.depth as u64 * self.output.height as u64
    }

    /// Compute nodes per output row under the dense (conventional) dataflow.
    pub fn dense_nodes_per_row(&self) -> usize {
        self.kernel.0 * self.kernel.1
    }

    /// MAC cycles one dense compute node spends on one output row: every output
    /// column, kernel column and input channel.
    pub fn dense_unit_macs(&self) -> u64 {
        self.output.width as u64 * self.kernel.2 as u64 * self.input.channels as u64
    }

    /// MAC cycles one consequential compute node spends on one output row:
    /// only kernel columns that land on original data, summed exactly over all
    /// output columns.
    pub fn consequential_unit_macs(&self) -> u64 {
        if !self.is_tconv {
            // Conventional convolutions have no inserted zeros: every tap is
            // consequential and the unit length equals the dense one.
            return self.dense_unit_macs();
        }
        match &self.width_phases {
            Some(w) => w.total_consequential_taps() * self.input.channels as u64,
            None => self.dense_unit_macs(),
        }
    }

    /// The (depth-phase, height-phase) groups of the layer's output rows, i.e.
    /// the output-row reorganization extended to volumetric layers. Projection
    /// layers return a single trivial group.
    pub fn phase_groups(&self) -> Vec<PhaseGroup> {
        let (Some(zp), Some(yp)) = (&self.depth_phases, &self.height_phases) else {
            return vec![PhaseGroup {
                phase_z: 0,
                phase_y: 0,
                num_rows: self.total_output_rows(),
                consequential_nodes: 1,
                dense_nodes: 1,
            }];
        };
        let rows_per_phase = |phases: &AxisPhases, extent: usize, phase: usize| -> u64 {
            (0..extent).filter(|p| phases.phase_of(*p) == phase).count() as u64
        };
        let mut groups = Vec::new();
        for pz in 0..zp.num_phases() {
            let z_rows = rows_per_phase(zp, self.output.depth, pz);
            let z_taps = zp.consequential_taps(pz).len();
            for py in 0..yp.num_phases() {
                let y_rows = rows_per_phase(yp, self.output.height, py);
                let y_taps = yp.consequential_taps(py).len();
                let num_rows = self.output.channels as u64 * z_rows * y_rows;
                if num_rows == 0 || z_taps == 0 || y_taps == 0 {
                    continue;
                }
                groups.push(PhaseGroup {
                    phase_z: pz,
                    phase_y: py,
                    num_rows,
                    consequential_nodes: z_taps * y_taps,
                    dense_nodes: self.dense_nodes_per_row(),
                });
            }
        }
        groups
    }

    /// The filter-row taps (vertical × depth kernel positions) of one phase
    /// pair, each tagged consequential or inconsequential — the per-row view
    /// used when building per-PV microprograms.
    pub fn filter_row_taps(&self, phase_z: usize, phase_y: usize) -> Vec<FilterRowTap> {
        let (Some(zp), Some(yp)) = (&self.depth_phases, &self.height_phases) else {
            return vec![FilterRowTap {
                kz: 0,
                ky: 0,
                kind: RowKind::Consequential,
            }];
        };
        let z_taps = zp.consequential_taps(phase_z);
        let y_taps = yp.consequential_taps(phase_y);
        let mut taps = Vec::with_capacity(self.kernel.0 * self.kernel.1);
        for kz in 0..self.kernel.0 {
            for ky in 0..self.kernel.1 {
                let kind = if z_taps.contains(&kz) && y_taps.contains(&ky) {
                    RowKind::Consequential
                } else {
                    RowKind::Inconsequential
                };
                taps.push(FilterRowTap { kz, ky, kind });
            }
        }
        taps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_models::{Activation, Layer};
    use ganax_tensor::ConvParams;

    fn dcgan_like_layer() -> Layer {
        Layer::conv(
            "tconv",
            Shape::new_2d(64, 8, 8),
            32,
            ConvParams::transposed_2d(5, 2, 2).with_output_padding(0, 1, 1),
            Activation::Relu,
        )
        .unwrap()
    }

    #[test]
    fn geometry_counts_match_layer_counts() {
        let layer = dcgan_like_layer();
        let geo = LayerGeometry::for_layer(&layer);
        assert_eq!(geo.dense_macs, layer.dense_macs());
        assert_eq!(geo.consequential_macs, layer.consequential_macs());
        assert_eq!(geo.total_output_rows(), 32 * 16);
        assert_eq!(geo.dense_nodes_per_row(), 5);
        assert_eq!(geo.dense_unit_macs(), 16 * 5 * 64);
    }

    #[test]
    fn phase_groups_cover_all_rows() {
        let geo = LayerGeometry::for_layer(&dcgan_like_layer());
        let groups = geo.phase_groups();
        assert_eq!(groups.len(), 2);
        let covered: u64 = groups.iter().map(|g| g.num_rows).sum();
        assert_eq!(covered, geo.total_output_rows());
        for group in &groups {
            assert!(group.consequential_nodes <= group.dense_nodes);
            assert!(group.consequential_nodes >= 2);
        }
    }

    #[test]
    fn volumetric_layer_has_phase_pairs() {
        let layer = Layer::conv(
            "tconv3d",
            Shape::new(16, 4, 4, 4),
            8,
            ConvParams::transposed_3d(4, 2, 1),
            Activation::Relu,
        )
        .unwrap();
        let geo = LayerGeometry::for_layer(&layer);
        let groups = geo.phase_groups();
        // Two depth phases x two height phases.
        assert_eq!(groups.len(), 4);
        let covered: u64 = groups.iter().map(|g| g.num_rows).sum();
        assert_eq!(covered, geo.total_output_rows());
        // Each group's nodes: 2x2 consequential out of 4x4 dense.
        for g in &groups {
            assert_eq!(g.dense_nodes, 16);
            assert_eq!(g.consequential_nodes, 4);
        }
    }

    #[test]
    fn filter_row_taps_tag_consequential_nodes() {
        let geo = LayerGeometry::for_layer(&dcgan_like_layer());
        let taps = geo.filter_row_taps(0, 0);
        assert_eq!(taps.len(), 5);
        let consequential: Vec<usize> = taps
            .iter()
            .filter(|t| t.kind == RowKind::Consequential)
            .map(|t| t.ky)
            .collect();
        // Same pattern as the vertical phase analysis.
        let expected = geo.height_phases.as_ref().unwrap().consequential_taps(0);
        assert_eq!(consequential, expected);
    }

    #[test]
    fn projection_layer_is_a_single_trivial_group() {
        let layer = Layer::projection(
            "project",
            Shape::new_2d(100, 1, 1),
            Shape::new_2d(256, 4, 4),
            Activation::Relu,
        );
        let geo = LayerGeometry::for_layer(&layer);
        assert!(geo.is_projection);
        let groups = geo.phase_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].consequential_nodes, 1);
        assert_eq!(geo.filter_row_taps(0, 0).len(), 1);
    }

    #[test]
    fn conventional_layer_groups_are_fully_dense() {
        let layer = Layer::conv(
            "conv",
            Shape::new_2d(3, 64, 64),
            64,
            ConvParams::conv_2d(5, 2, 2),
            Activation::LeakyRelu,
        )
        .unwrap();
        let geo = LayerGeometry::for_layer(&layer);
        let groups = geo.phase_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].consequential_nodes, groups[0].dense_nodes);
        assert_eq!(geo.consequential_macs, geo.dense_macs);
    }
}
