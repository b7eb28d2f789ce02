//! The explicit zero-insertion (input expansion) step of a transposed convolution.
//!
//! A transposed convolution with stride `s` inserts `s - 1` zero rows/columns
//! (and, for volumetric data, zero planes) between adjacent input elements and
//! then applies a border of implicit padding before sliding the kernel with a
//! stride of one. This module materialises that expansion so that the
//! "conventional convolution dataflow" path of the paper can be executed and
//! measured directly.

use crate::error::Result;
use crate::params::{ConvKind, ConvParams};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Description of a zero-insertion expansion along the three spatial axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroInsertion {
    /// Zeros inserted between adjacent elements along (depth, height, width).
    pub inserted: (usize, usize, usize),
    /// Border padding applied after insertion along (depth, height, width).
    pub border: (usize, usize, usize),
    /// Trailing padding appended after the last element (output padding)
    /// along (depth, height, width).
    pub trailing: (usize, usize, usize),
}

impl ZeroInsertion {
    /// Derives the expansion performed by a transposed convolution's
    /// zero-insertion step. For a conventional convolution, the insertion count
    /// is zero and the border equals the convolution padding.
    pub fn from_params(params: &ConvParams) -> Self {
        match params.kind {
            ConvKind::Conventional => ZeroInsertion {
                inserted: (0, 0, 0),
                border: params.padding,
                trailing: (0, 0, 0),
            },
            ConvKind::Transposed => ZeroInsertion {
                inserted: (
                    params.stride.0 - 1,
                    params.stride.1 - 1,
                    params.stride.2 - 1,
                ),
                border: (
                    params.kernel.0 - 1 - params.padding.0,
                    params.kernel.1 - 1 - params.padding.1,
                    params.kernel.2 - 1 - params.padding.2,
                ),
                trailing: params.output_padding,
            },
        }
    }

    /// Expanded extent along one axis for an input of the given extent.
    pub fn extent(&self, axis: usize, input: usize) -> usize {
        let (ins, border, trailing) = match axis {
            0 => (self.inserted.0, self.border.0, self.trailing.0),
            1 => (self.inserted.1, self.border.1, self.trailing.1),
            _ => (self.inserted.2, self.border.2, self.trailing.2),
        };
        if input == 0 {
            return 0;
        }
        (input - 1) * (ins + 1) + 1 + 2 * border + trailing
    }

    /// Maps an expanded-domain coordinate back to the original input
    /// coordinate it holds, if any. Returns `None` for positions that contain
    /// an inserted zero or padding.
    pub fn source(&self, axis: usize, expanded: usize, input: usize) -> Option<usize> {
        let (ins, border) = match axis {
            0 => (self.inserted.0, self.border.0),
            1 => (self.inserted.1, self.border.1),
            _ => (self.inserted.2, self.border.2),
        };
        let step = ins + 1;
        if expanded < border {
            return None;
        }
        let rel = expanded - border;
        if !rel.is_multiple_of(step) {
            return None;
        }
        let idx = rel / step;
        if idx < input {
            Some(idx)
        } else {
            None
        }
    }
}

/// Extent of the zero-inserted input (including the border padding) along the
/// three spatial axes, for the given transposed-convolution geometry.
///
/// For the paper's Figure 4 example (4×4 input, 5×5 kernel, upsampling 2,
/// padding 2) the expanded extent is 11×11.
pub fn zero_inserted_extent(params: &ConvParams, input: Shape) -> (usize, usize, usize) {
    let ins = ZeroInsertion::from_params(params);
    (
        ins.extent(0, input.depth),
        ins.extent(1, input.height),
        ins.extent(2, input.width),
    )
}

/// Materialises the zero-inserted (and border-padded) input of a transposed
/// convolution as an explicit tensor.
///
/// The returned tensor can be convolved with a stride of one and no extra
/// padding to produce exactly the transposed-convolution output (see
/// [`crate::tconv_via_zero_insertion`]).
///
/// # Errors
/// Propagates shape errors from the underlying geometry.
pub fn zero_insert(input: &Tensor, params: &ConvParams) -> Result<Tensor> {
    let ins = ZeroInsertion::from_params(params);
    let shape = input.shape();
    let (ed, eh, ew) = zero_inserted_extent(params, shape);
    let expanded_shape = Shape::new(shape.channels, ed, eh, ew);
    let mut out = Tensor::zeros(expanded_shape);
    for c in 0..shape.channels {
        for z in 0..ed {
            let Some(sz) = ins.source(0, z, shape.depth) else {
                continue;
            };
            for y in 0..eh {
                let Some(sy) = ins.source(1, y, shape.height) else {
                    continue;
                };
                for x in 0..ew {
                    let Some(sx) = ins.source(2, x, shape.width) else {
                        continue;
                    };
                    out.set(c, z, y, x, input.at(c, sz, sy, sx));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_expands_4x4_to_11x11() {
        let params = ConvParams::transposed_2d(5, 2, 2);
        let (d, h, w) = zero_inserted_extent(&params, Shape::new_2d(1, 4, 4));
        assert_eq!((d, h, w), (1, 11, 11));
    }

    #[test]
    fn conventional_expansion_is_just_padding() {
        let params = ConvParams::conv_2d(3, 1, 1);
        let (d, h, w) = zero_inserted_extent(&params, Shape::new_2d(1, 4, 4));
        assert_eq!((d, h, w), (1, 6, 6));
    }

    #[test]
    fn expanded_tensor_preserves_values_and_zero_fraction() {
        let params = ConvParams::transposed_2d(5, 2, 2);
        let input = Tensor::from_fn_2d(1, 4, 4, |_, y, x| (1 + y * 4 + x) as f32);
        let expanded = zero_insert(&input, &params).unwrap();
        assert_eq!(expanded.shape(), Shape::new(1, 1, 11, 11));
        // All 16 original values survive.
        let non_zero = expanded.len() - expanded.zero_count();
        assert_eq!(non_zero, 16);
        // Centre of the border: expanded coordinate (2,2) is input (0,0).
        assert_eq!(expanded.at_2d(0, 2, 2), 1.0);
        assert_eq!(expanded.at_2d(0, 2 + 2, 2 + 2), 6.0);
        // Odd rows inside the border are entirely zero.
        for x in 0..11 {
            assert_eq!(expanded.at_2d(0, 3, x), 0.0);
        }
    }

    #[test]
    fn source_mapping_round_trips() {
        let params = ConvParams::transposed_2d(5, 2, 2);
        let ins = ZeroInsertion::from_params(&params);
        // Border is 2, step is 2: expanded 2 -> 0, 4 -> 1, 6 -> 2, 8 -> 3.
        assert_eq!(ins.source(1, 2, 4), Some(0));
        assert_eq!(ins.source(1, 4, 4), Some(1));
        assert_eq!(ins.source(1, 8, 4), Some(3));
        assert_eq!(ins.source(1, 3, 4), None);
        assert_eq!(ins.source(1, 1, 4), None);
        assert_eq!(ins.source(1, 10, 4), None);
    }

    #[test]
    fn trailing_output_padding_grows_extent() {
        let params = ConvParams::transposed_2d(5, 2, 2).with_output_padding(0, 1, 1);
        let (_, h, w) = zero_inserted_extent(&params, Shape::new_2d(1, 4, 4));
        assert_eq!((h, w), (12, 12));
    }

    #[test]
    fn volumetric_expansion() {
        let params = ConvParams::transposed_3d(4, 2, 1);
        let input = Tensor::filled(Shape::new(1, 2, 2, 2), 1.0);
        let expanded = zero_insert(&input, &params).unwrap();
        // (2-1)*2 + 1 + 2*(4-1-1) = 7 along each axis.
        assert_eq!(expanded.shape(), Shape::new(1, 7, 7, 7));
        assert_eq!(expanded.len() - expanded.zero_count(), 8);
    }
}
