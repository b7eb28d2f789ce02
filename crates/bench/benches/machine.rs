//! Machine-focused benches: the PE's closed-form dispatch and row-block
//! retires versus the same program single-stepped, the engine fast path
//! versus the seed single-step serial path on one layer, and the cost per
//! site of an armed fault schedule's run-level scan.
//!
//! The wall-clock comparison that feeds `BENCH_machine.json` lives in the
//! `bench_machine` binary (it needs a JSON emitter, not Criterion's report);
//! this bench tracks the same hot paths under Criterion so regressions show
//! up in `cargo bench machine`.

use criterion::{criterion_group, criterion_main, Criterion};
use ganax::GanaxMachine;
use ganax_bench::{layer_tensors, machine_bench_layers};
use ganax_isa::{AddrGenKind, ExecUop};
use ganax_sim::{FaultInjector, FaultKind, FaultSpec, PeConfig, ProcessingEngine};

fn bench_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine");

    // One dispatch of 8 columns x 3 taps over 2 output channels, issued the
    // way the engine's `dispatch_group` issues it: one gathered input stream
    // replayed per channel, the channels' weight streams back to back, a
    // contiguous output run and virtual `repeat`+`mac` pairs, retired in one
    // `step_burst` call.
    group.bench_function("pe_chunk_retire_8x3", |b| {
        let cols = 8u16;
        let taps = 3u16;
        let channels = 2u16;
        let stream = cols * taps;
        let inputs: Vec<f32> = (0..stream).map(|i| i as f32 * 0.25).collect();
        let weights: Vec<f32> = (0..channels * stream)
            .map(|i| 1.0 - i as f32 * 0.01)
            .collect();
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        b.iter(|| {
            pe.load_input(&inputs);
            pe.load_weights(&weights);
            pe.configure_linear(AddrGenKind::Input, 0, 1, stream, channels);
            pe.configure_linear(AddrGenKind::Weight, 0, 1, channels * stream, 1);
            pe.configure_linear(AddrGenKind::Output, 0, 1, channels * cols, 1);
            pe.start_all();
            pe.set_repeat(taps);
            pe.try_push_mac_pairs((channels * cols) as usize).unwrap();
            let cycles = pe.step_burst(1_000);
            assert!(pe.is_idle(), "the dispatch must retire in one call");
            std::hint::black_box((cycles, pe.read_output(0)))
        })
    });

    // The same dispatch over 8 resident rows, retired the way the engine's
    // `run_resident_shard` retires a row block: one dispatch armed at row 0
    // and one `retire_block` call that moves the input offset from row to
    // row and hands each row's run to a sink.
    group.bench_function("pe_block_retire_8x3x8", |b| {
        let cols = 8u16;
        let taps = 3u16;
        let channels = 2u16;
        let rows = 8u16;
        let stream = cols * taps;
        let inputs: Vec<f32> = (0..rows * stream).map(|i| i as f32 * 0.25).collect();
        let weights: Vec<f32> = (0..channels * stream)
            .map(|i| 1.0 - i as f32 * 0.01)
            .collect();
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        b.iter(|| {
            pe.load_input(&inputs);
            pe.load_weights(&weights);
            pe.configure_linear(AddrGenKind::Input, 0, 1, stream, channels);
            pe.configure_linear(AddrGenKind::Weight, 0, 1, channels * stream, 1);
            pe.configure_linear(AddrGenKind::Output, 0, 1, channels * cols, 1);
            pe.start_all();
            pe.set_repeat(taps);
            pe.try_push_mac_pairs((channels * cols) as usize).unwrap();
            let mut sum = 0.0f32;
            let retired = pe.retire_block(rows.into(), stream.into(), |_, run| sum += run[0]);
            assert!(retired && pe.is_idle(), "the block must retire in one call");
            std::hint::black_box(sum)
        })
    });

    // The same dispatch single-stepped: the per-cycle reference cost.
    group.bench_function("pe_chunk_single_step_8x3", |b| {
        let cols = 8u16;
        let taps = 3u16;
        let channels = 2u16;
        let stream = cols * taps;
        let inputs: Vec<f32> = (0..stream).map(|i| i as f32 * 0.25).collect();
        let weights: Vec<f32> = (0..channels * stream)
            .map(|i| 1.0 - i as f32 * 0.01)
            .collect();
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        b.iter(|| {
            pe.load_input(&inputs);
            pe.load_weights(&weights);
            pe.configure_linear(AddrGenKind::Input, 0, 1, stream, channels);
            pe.configure_linear(AddrGenKind::Weight, 0, 1, channels * stream, 1);
            pe.configure_linear(AddrGenKind::Output, 0, 1, channels * cols, 1);
            pe.start_all();
            pe.set_repeat(taps);
            for _ in 0..channels * cols {
                pe.push_uop(ExecUop::Repeat);
                pe.push_uop(ExecUop::Mac);
            }
            pe.run_until_idle(1_000);
            std::hint::black_box(pe.read_output(0))
        })
    });

    // An armed 1 ppm `INPUT_FLIP | WEIGHT_FLIP` schedule deciding 2^16
    // gathered input sites as one run: the time divided by 65 536 is the
    // cost per site, the SplitMix64 hash floor.
    let injector = FaultInjector::new(FaultSpec::seeded(
        5,
        1,
        FaultKind::INPUT_FLIP | FaultKind::WEIGHT_FLIP,
    ));
    injector.begin_epoch();
    let faults = injector.layer(2);
    let mut sites = vec![1.0f32; 1 << 16];
    group.bench_function("fault_scan_1ppm_65536x1", |b| {
        b.iter(|| {
            faults.corrupt_inputs(0, 7, &mut sites);
            std::hint::black_box(sites[0])
        })
    });

    group.sample_size(10);
    // The mid-size tconv geometry end to end, fast vs reference.
    let layer = machine_bench_layers(true)
        .into_iter()
        .find(|l| l.name == "tconv-mid")
        .expect("bench layers include tconv-mid");
    let (input, weights) = layer_tensors(&layer, 7);
    let machine = GanaxMachine::paper();
    group.bench_function("machine_tconv_mid_fast", |b| {
        b.iter(|| {
            std::hint::black_box(
                machine
                    .execute_layer_threaded(&layer, &input, &weights, 1)
                    .unwrap()
                    .busy_pe_cycles,
            )
        })
    });
    group.bench_function("machine_tconv_mid_reference", |b| {
        b.iter(|| {
            std::hint::black_box(
                machine
                    .execute_layer_reference(&layer, &input, &weights)
                    .unwrap()
                    .busy_pe_cycles,
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_machine);
criterion_main!(benches);
