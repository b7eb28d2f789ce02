//! Evaluates a user-defined GAN on GANAX: build your own generator and
//! discriminator with the `NetworkBuilder`, then compare the accelerators.
//!
//! ```text
//! cargo run --example custom_gan
//! ```
//!
//! This is the workflow a downstream user follows to size GANAX for a model
//! that is not part of the Table I zoo — here a 128x128 image generator with a
//! mix of stride-2 upsampling and stride-1 refinement layers.

use ganax_repro::prelude::*;

/// The models refuse only a transposed convolution with padding ≥ kernel,
/// and this GAN has none.
const NOT_CROPPING: &str = "the custom GAN has no cropping transposed convolution";

fn main() {
    // Generator: latent vector -> 128x128 RGB image.
    let generator = NetworkBuilder::new("custom-generator", Shape::new_2d(128, 1, 1))
        .projection("project", Shape::new_2d(512, 8, 8), Activation::Relu)
        .tconv(
            "up1",
            256,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::Relu,
        )
        .tconv(
            "up2",
            128,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::Relu,
        )
        .tconv(
            "refine",
            128,
            ConvParams::transposed_2d(3, 1, 1),
            Activation::Relu,
        )
        .tconv(
            "up3",
            64,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::Relu,
        )
        .tconv(
            "up4",
            3,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::Tanh,
        )
        .build()
        .expect("generator geometry is valid");

    // Discriminator: 128x128 RGB image -> real/fake score.
    let discriminator = NetworkBuilder::new("custom-discriminator", Shape::new_2d(3, 128, 128))
        .conv(
            "down1",
            64,
            ConvParams::conv_2d(4, 2, 1),
            Activation::LeakyRelu,
        )
        .conv(
            "down2",
            128,
            ConvParams::conv_2d(4, 2, 1),
            Activation::LeakyRelu,
        )
        .conv(
            "down3",
            256,
            ConvParams::conv_2d(4, 2, 1),
            Activation::LeakyRelu,
        )
        .conv(
            "down4",
            512,
            ConvParams::conv_2d(4, 2, 1),
            Activation::LeakyRelu,
        )
        .conv(
            "score",
            1,
            ConvParams::conv_2d(8, 1, 0),
            Activation::Sigmoid,
        )
        .build()
        .expect("discriminator geometry is valid");

    let gan = GanModel::new(
        "CustomGAN",
        2026,
        "user-defined 128x128 generator",
        generator,
        discriminator,
    );

    println!("custom GAN: {}", gan.name);
    println!(
        "  generator layers: {} conv + {} tconv, output {}",
        gan.generator.conv_layer_count(),
        gan.generator.tconv_layer_count(),
        gan.generator.output_shape()
    );
    let stats = gan.generator.op_stats();
    println!(
        "  inconsequential MACs in tconv layers: {:.1}%",
        stats.tconv_inconsequential_fraction() * 100.0
    );

    // Per-layer view: which layers does GANAX help, and by how much?
    let eyeriss = EyerissModel::paper();
    let ganax = GanaxModel::paper();
    let eyeriss_gen = eyeriss.run_network(&gan.generator).expect(NOT_CROPPING);
    let ganax_gen = ganax.run_network(&gan.generator).expect(NOT_CROPPING);
    println!("\n  per-layer generator cycles (Eyeriss -> GANAX):");
    for (e, g) in eyeriss_gen.layers.iter().zip(&ganax_gen.layers) {
        println!(
            "    {:<10} {:>12} -> {:>12}  ({:.2}x)",
            e.name,
            e.cycles,
            g.cycles,
            e.cycles as f64 / g.cycles.max(1) as f64
        );
    }

    let report = ModelComparison::compare(&gan).expect(NOT_CROPPING);
    println!(
        "\n  generator speedup        : {:.2}x",
        report.generator_speedup()
    );
    println!(
        "  generator energy saving  : {:.2}x",
        report.generator_energy_reduction()
    );
    println!(
        "  discriminator speedup    : {:.2}x (unchanged, as intended)",
        report.discriminator_speedup()
    );
}
