//! Figures 8a/8b: per-GAN generator speedup and energy reduction over EYERISS.

use criterion::{criterion_group, criterion_main, Criterion};
use ganax::compare::ModelComparison;
use ganax_bench::{all_comparisons, figure8};
use ganax_models::zoo;

fn bench_fig8(c: &mut Criterion) {
    let comparisons = all_comparisons();
    let (rows, speedup_geomean, energy_geomean) = figure8(&comparisons);
    println!("\nFigure 8a/8b (GANAX vs EYERISS, generative models):");
    for row in &rows {
        println!(
            "  {:<10} speedup {:4.2}x  energy reduction {:4.2}x",
            row.model, row.speedup, row.energy_reduction
        );
    }
    println!(
        "  {:<10} speedup {:4.2}x  energy reduction {:4.2}x",
        "Geomean", speedup_geomean, energy_geomean
    );

    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);
    for gan in zoo::all_models() {
        group.bench_function(&gan.name, |b| {
            b.iter(|| {
                std::hint::black_box(ModelComparison::compare(&gan).unwrap().generator_speedup())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
