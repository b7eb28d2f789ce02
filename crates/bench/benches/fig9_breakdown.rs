//! Figures 9a/9b: runtime and energy breakdown between discriminative and
//! generative models, normalized to EYERISS.

use criterion::{criterion_group, criterion_main, Criterion};
use ganax::compare::ModelComparison;
use ganax_bench::{all_comparisons, figure9};
use ganax_models::zoo;

fn bench_fig9(c: &mut Criterion) {
    let comparisons = all_comparisons();
    for (energy, title) in [(false, "Figure 9a (runtime)"), (true, "Figure 9b (energy)")] {
        println!("\n{title}: disc/gen shares normalized to EYERISS");
        for row in figure9(&comparisons, energy) {
            println!(
                "  {:<10} eyeriss {:4.1}%/{:4.1}%  ganax {:4.1}%/{:4.1}%",
                row.model,
                row.eyeriss_discriminative * 100.0,
                row.eyeriss_generative * 100.0,
                row.ganax_discriminative * 100.0,
                row.ganax_generative * 100.0
            );
        }
    }

    let mut group = c.benchmark_group("fig9");
    group.sample_size(10);
    let dcgan = zoo::dcgan();
    group.bench_function("dcgan_breakdowns", |b| {
        b.iter(|| {
            let report = ModelComparison::compare(&dcgan).unwrap();
            std::hint::black_box((report.runtime_breakdown(), report.energy_breakdown()))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
