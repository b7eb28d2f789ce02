//! Quickstart: compare GANAX against the Eyeriss baseline on DCGAN.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! This walks the typical workflow: pick a workload from the Table I zoo, run
//! it through both accelerator models, and read the headline numbers the paper
//! reports (generator speedup, energy reduction, discriminator neutrality and
//! the GANAX area overhead).

use ganax_repro::prelude::*;

fn main() {
    // 1. Pick a workload. The zoo contains the six GANs of Table I.
    let dcgan = zoo::dcgan();
    println!("workload: {} ({})", dcgan.name, dcgan.description);
    println!(
        "  generator : {:>2} transposed-convolution layers, output {}",
        dcgan.generator.tconv_layer_count(),
        dcgan.generator.output_shape()
    );
    println!(
        "  discriminator: {:>2} convolution layers, input {}",
        dcgan.discriminator.conv_layer_count(),
        dcgan.discriminator.input_shape()
    );

    // 2. How much of the generator's work lands on inserted zeros? (Figure 1)
    let stats = dcgan.generator.op_stats();
    println!(
        "  inconsequential MACs in transposed-convolution layers: {:.1}%",
        stats.tconv_inconsequential_fraction() * 100.0
    );

    // 3. Run the head-to-head comparison (Figures 8-11 in one report).
    let report = ModelComparison::compare(&dcgan).expect("DCGAN's layers are all modelled");
    println!("\nGANAX vs EYERISS on the {} generator:", dcgan.name);
    println!("  speedup          : {:.2}x", report.generator_speedup());
    println!(
        "  energy reduction : {:.2}x",
        report.generator_energy_reduction()
    );
    let (eyeriss_util, ganax_util) = report.generator_utilization();
    println!(
        "  PE utilization   : {:.0}% -> {:.0}%",
        eyeriss_util * 100.0,
        ganax_util * 100.0
    );
    println!(
        "  discriminator    : {:.2}x speedup (GANAX keeps the SIMD efficiency)",
        report.discriminator_speedup()
    );

    // 4. What does the flexibility cost in silicon? (Table III)
    let config = GanaxConfig::paper();
    println!(
        "\narea overhead over the baseline: {:.1}%",
        config.area_overhead() * 100.0
    );
}
