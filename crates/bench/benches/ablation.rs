//! Ablation of the GANAX design choices (Section III): reorganization alone
//! (pure SIMD schedule) vs the full MIMD-SIMD design vs the dense baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use ganax::{AblationVariant, GanaxConfig, GanaxModel};
use ganax_models::zoo;

fn bench_ablation(c: &mut Criterion) {
    let config = GanaxConfig::paper();
    let variants = [
        ("dense (Eyeriss-like)", AblationVariant::ConventionalDense),
        ("reorg + SIMD only", AblationVariant::ReorganizedSimdOnly),
        ("full GANAX (MIMD-SIMD)", AblationVariant::Full),
    ];
    println!("\nAblation (DCGAN generator cycles):");
    let gen = zoo::dcgan().generator;
    let dense_cycles = GanaxModel::with_variant(config, AblationVariant::ConventionalDense)
        .run_network(&gen)
        .unwrap()
        .total_cycles();
    for (name, variant) in variants {
        let cycles = GanaxModel::with_variant(config, variant)
            .run_network(&gen)
            .unwrap()
            .total_cycles();
        println!(
            "  {:<24} {:>14} cycles  ({:4.2}x vs dense)",
            name,
            cycles,
            dense_cycles as f64 / cycles as f64
        );
    }

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    for (name, variant) in variants {
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(
                    GanaxModel::with_variant(config, variant)
                        .run_network(&gen)
                        .unwrap()
                        .total_cycles(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation, bench_array_sweep);
criterion_main!(benches);

// ---------------------------------------------------------------------------
// Design-space sweep: how the GANAX advantage scales with the PE-array shape.
// ---------------------------------------------------------------------------

use ganax_dataflow::ArrayConfig;
use ganax_eyeriss::EyerissModel;

fn bench_array_sweep(c: &mut Criterion) {
    let shapes = [(8usize, 8usize), (8, 16), (16, 16), (16, 32), (32, 16)];
    println!("\nDesign-space sweep (DCGAN generator, speedup vs array shape):");
    let gen = zoo::dcgan().generator;
    for (pvs, pes) in shapes {
        let mut config = GanaxConfig::paper();
        config.base.array = ArrayConfig {
            num_pvs: pvs,
            pes_per_pv: pes,
        };
        let eyeriss = EyerissModel::new(config.base)
            .run_network(&gen)
            .total_cycles();
        let ganax = GanaxModel::new(config)
            .run_network(&gen)
            .unwrap()
            .total_cycles();
        println!(
            "  {:>2} PVs x {:>2} PEs: speedup {:4.2}x  ({} -> {} cycles)",
            pvs,
            pes,
            eyeriss as f64 / ganax as f64,
            eyeriss,
            ganax
        );
    }

    let mut group = c.benchmark_group("array_sweep");
    group.sample_size(10);
    for (pvs, pes) in shapes {
        let mut config = GanaxConfig::paper();
        config.base.array = ArrayConfig {
            num_pvs: pvs,
            pes_per_pv: pes,
        };
        group.bench_function(format!("{pvs}x{pes}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    GanaxModel::new(config)
                        .run_network(&gen)
                        .unwrap()
                        .total_cycles(),
                )
            })
        });
    }
    group.finish();
}
