//! Runs a scaled-down DCGAN-style generator layer on the cycle-level GANAX
//! machine and checks it against the functional reference.
//!
//! ```text
//! cargo run --example dcgan_generator
//! ```
//!
//! The machine drives real strided µindex generators and decoupled
//! access-execute PEs, so this is the "see the hardware actually compute a
//! transposed convolution" demo: it prints the per-layer compiled µop program,
//! executes the layer, verifies the output and reports how many
//! multiply-accumulates the reorganized dataflow actually performed compared
//! to what a dense execution would have done.

use ganax_repro::prelude::*;
use ganax_tensor::tconv;

fn main() {
    // A DCGAN-style upsampling layer, scaled down so the cycle-level machine
    // finishes instantly: 8 channels of 8x8 -> 4 channels of 16x16.
    let layer = ganax_repro::models::Layer::conv(
        "dcgan-up-scaled",
        Shape::new_2d(8, 8, 8),
        4,
        ConvParams::transposed_2d(5, 2, 2).with_output_padding(0, 1, 1),
        Activation::Relu,
    )
    .expect("layer geometry is valid");
    println!("layer {}: {} -> {}", layer.name, layer.input, layer.output);
    println!(
        "  dense MACs {}, consequential MACs {} ({:.1}% skippable)",
        layer.dense_macs(),
        layer.consequential_macs(),
        layer.inconsequential_fraction() * 100.0
    );

    // Compile the layer to its uop program (Section IV of the paper).
    let compiler = GanaxCompiler::paper();
    let program = compiler
        .compile_layer(&layer)
        .expect("DCGAN's layers are all modelled");
    let stats = program.stats();
    println!(
        "  compiled program: {} access uops, {} global entries ({} MIMD-SIMD), {} local uops max",
        stats.access_uops,
        stats.global_entries,
        stats.mimd_entries(),
        stats.max_local_entries
    );

    // Execute it on the cycle-level machine with random-ish data.
    let input = Tensor::from_fn_2d(8, 8, 8, |c, y, x| {
        ((c * 31 + y * 7 + x) % 13) as f32 * 0.1 - 0.6
    });
    let weights = Tensor::from_filter_fn(Shape::filter(4, 8, 1, 5, 5), |co, ci, _z, y, x| {
        ((co * 17 + ci * 5 + y * 3 + x) % 11) as f32 * 0.05 - 0.25
    });
    let machine = GanaxMachine::paper();
    let run = machine
        .execute_layer(&layer, &input, &weights)
        .expect("2-D layer is supported by the machine");

    // Validate against the functional reference.
    let params = ConvParams::transposed_2d(5, 2, 2).with_output_padding(0, 1, 1);
    let reference = tconv(&input, &weights, &params).expect("reference tconv");
    let max_diff = run.output.max_abs_diff(&reference).expect("shapes match");
    println!("  max |machine - reference| = {max_diff:.2e}");
    assert!(
        max_diff < 1e-3,
        "machine output diverged from the reference"
    );

    println!(
        "  machine executed {} MACs ({} work units); dense execution would need {}",
        run.counts.alu_ops,
        run.work_units,
        layer.dense_macs()
    );
    println!(
        "  -> {:.1}% of the dense work was skipped by the reorganized dataflow",
        (1.0 - run.counts.alu_ops as f64 / layer.dense_macs() as f64) * 100.0
    );
}
