//! Figure 10: per-unit energy breakdown (PE, RegF, NoC, GBuf, DRAM).

use criterion::{criterion_group, criterion_main, Criterion};
use ganax::compare::ModelComparison;
use ganax_bench::{all_comparisons, figure10};
use ganax_models::zoo;

fn bench_fig10(c: &mut Criterion) {
    let comparisons = all_comparisons();
    println!("\nFigure 10 (generator energy by unit, normalized to EYERISS):");
    for row in figure10(&comparisons) {
        println!(
            "  {:<10} {:<5} eyeriss {:5.1}%  ganax {:5.1}%",
            row.model,
            row.unit,
            row.eyeriss * 100.0,
            row.ganax * 100.0
        );
    }

    let mut group = c.benchmark_group("fig10");
    group.sample_size(10);
    let three_d = zoo::three_d_gan();
    group.bench_function("3d_gan_unit_energy", |b| {
        b.iter(|| {
            std::hint::black_box(
                ModelComparison::compare(&three_d)
                    .unwrap()
                    .generator_unit_energy(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
