//! Small-geometry scan: every 2-D convolution and transposed convolution on
//! a grid that `Layer::conv` accepts is either computed exactly or refused
//! with a typed error.
//!
//! Operands are small integers (−2..=2), so every f32 sum is exact and any
//! accumulation order gives the same value: the engine's resident-PE shard
//! runner (pool 2), the single-step `execute_layer_reference` and the
//! `ganax_tensor` reference must agree exactly. The transposed convolutions
//! whose padding is not below the kernel on some axis crop their output,
//! which the machine's plan cannot express; exactly those must come back as
//! `MachineError::Unsupported` from both machine paths.
//!
//! `reduced_geometry_grid_matches_the_references` runs in the default test
//! pass; the full grid is `#[ignore]`d and runs in release:
//!
//! ```sh
//! cargo test --release --test geometry_scan -- --ignored
//! ```

use ganax::{GanaxMachine, MachineError};
use ganax_models::{Activation, Layer};
use ganax_tensor::{conv, tconv, ConvKind, ConvParams, Shape, Tensor};

/// One scan grid: the values each geometry parameter takes.
struct Grid {
    kernel_h: &'static [usize],
    kernel_w: &'static [usize],
    stride_h: &'static [usize],
    stride_w: &'static [usize],
    /// Input shapes `(channels, height, width)`.
    inputs: &'static [(usize, usize, usize)],
    /// Output channels of every layer.
    out_channels: usize,
}

impl Grid {
    /// Every `(kind, kernel, stride, padding, output padding)` of the grid.
    /// Padding runs over `0..=k` on the height axis and `{0, k/2, k, k+1}`
    /// on the width axis; a transposed convolution takes output padding
    /// `(0, 0)` and `(s_h - 1, s_w - 1)`.
    fn params(&self) -> Vec<ConvParams> {
        let mut all = Vec::new();
        for kind in [ConvKind::Conventional, ConvKind::Transposed] {
            for &kh in self.kernel_h {
                for &kw in self.kernel_w {
                    for &sh in self.stride_h {
                        for &sw in self.stride_w {
                            let mut pads_w = vec![0, kw / 2, kw, kw + 1];
                            pads_w.dedup();
                            let mut output_pads = vec![(0, 0)];
                            if kind == ConvKind::Transposed && (sh, sw) != (1, 1) {
                                output_pads.push((sh - 1, sw - 1));
                            }
                            for ph in 0..=kh {
                                for &pw in &pads_w {
                                    for &(oph, opw) in &output_pads {
                                        all.push(ConvParams {
                                            kind,
                                            kernel: (1, kh, kw),
                                            stride: (1, sh, sw),
                                            padding: (0, ph, pw),
                                            output_padding: (0, oph, opw),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        all
    }
}

/// A tensor of small integers in −2..=2 drawn from `seed`.
fn small_integers(shape: Shape, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let data = (0..shape.volume())
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 5) as f32 - 2.0
        })
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// Outcome counts of one scan, pinned so a grid that silently shrinks (or a
/// `Layer::conv` that starts refusing geometries) fails the scan.
#[derive(Debug, Default)]
struct Scan {
    computed: usize,
    refused: usize,
}

/// Runs every accepted geometry of `grid` through the three paths.
fn scan(grid: &Grid) -> Scan {
    let machine = GanaxMachine::paper();
    let mut outcome = Scan::default();
    for (i, params) in grid.params().into_iter().enumerate() {
        for &(channels, height, width) in grid.inputs {
            let input_shape = Shape::new_2d(channels, height, width);
            let Ok(layer) = Layer::conv(
                "scan",
                input_shape,
                grid.out_channels,
                params,
                Activation::None,
            ) else {
                continue;
            };
            let case = format!("{params:?} on {input_shape}");
            let input = small_integers(input_shape, 2 * i as u64 + 1);
            let weights = small_integers(
                Shape::filter(
                    grid.out_channels,
                    channels,
                    1,
                    params.kernel.1,
                    params.kernel.2,
                ),
                2 * i as u64 + 2,
            );
            let engine = machine.execute_layer_threaded(&layer, &input, &weights, 2);
            let reference = machine.execute_layer_reference(&layer, &input, &weights);
            let crops = layer.is_tconv()
                && (params.padding.1 >= params.kernel.1 || params.padding.2 >= params.kernel.2);
            if crops {
                for (path, result) in [("engine", &engine), ("reference", &reference)] {
                    assert!(
                        matches!(result, Err(MachineError::Unsupported { .. })),
                        "{path} must refuse the cropping {case}"
                    );
                }
                outcome.refused += 1;
                continue;
            }
            let engine = engine.unwrap_or_else(|e| panic!("engine on {case}: {e}"));
            let reference = reference.unwrap_or_else(|e| panic!("reference on {case}: {e}"));
            let tensor = if layer.is_tconv() {
                tconv(&input, &weights, &params)
            } else {
                conv(&input, &weights, &params)
            }
            .unwrap_or_else(|e| panic!("tensor on {case}: {e}"));
            assert_eq!(
                engine.output, reference.output,
                "engine vs reference on {case}"
            );
            assert_eq!(engine.output, tensor, "engine vs tensor on {case}");
            outcome.computed += 1;
        }
    }
    outcome
}

#[test]
fn reduced_geometry_grid_matches_the_references() {
    let outcome = scan(&Grid {
        kernel_h: &[1, 2, 3],
        kernel_w: &[1, 3],
        stride_h: &[1, 2],
        stride_w: &[1, 3],
        inputs: &[(2, 3, 4), (1, 5, 2)],
        out_channels: 2,
    });
    assert_eq!((outcome.computed, outcome.refused), (720, 333));
}

#[test]
#[ignore = "full grid; run in release with --ignored"]
fn full_geometry_grid_matches_the_references() {
    let outcome = scan(&Grid {
        kernel_h: &[1, 2, 3, 4, 5],
        kernel_w: &[1, 2, 3, 5, 7],
        stride_h: &[1, 2, 3, 4],
        stride_w: &[1, 2, 3, 5],
        inputs: &[(1, 1, 1), (2, 3, 4), (1, 5, 2), (3, 6, 7)],
        out_channels: 3,
    });
    assert_eq!((outcome.computed, outcome.refused), (34_610, 15_681));
}
