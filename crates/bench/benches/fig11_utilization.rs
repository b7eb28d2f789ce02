//! Figure 11: PE utilization of the generative models on EYERISS and GANAX.

use criterion::{criterion_group, criterion_main, Criterion};
use ganax::GanaxModel;
use ganax_bench::{all_comparisons, figure11};
use ganax_eyeriss::EyerissModel;
use ganax_models::zoo;

fn bench_fig11(c: &mut Criterion) {
    let comparisons = all_comparisons();
    println!("\nFigure 11 (generator PE utilization):");
    for row in figure11(&comparisons) {
        println!(
            "  {:<10} eyeriss {:5.1}%  ganax {:5.1}%",
            row.model,
            row.eyeriss_utilization * 100.0,
            row.ganax_utilization * 100.0
        );
    }

    let mut group = c.benchmark_group("fig11");
    group.sample_size(10);
    let gen = zoo::gp_gan().generator;
    group.bench_function("eyeriss_utilization", |b| {
        b.iter(|| {
            std::hint::black_box(
                EyerissModel::paper()
                    .run_network(&gen)
                    .unwrap()
                    .average_utilization(),
            )
        })
    });
    group.bench_function("ganax_utilization", |b| {
        b.iter(|| {
            std::hint::black_box(
                GanaxModel::paper()
                    .run_network(&gen)
                    .unwrap()
                    .average_utilization(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
