//! Serving-path bench: warm cached-plan requests and batched execution on
//! the compile-once inference engine, against a cold one-shot request (fresh
//! pool, compile and first execute).
//!
//! The full-size wall-clock report lives in the `bench_serve` binary (it
//! needs a JSON emitter); this bench tracks the engine's hot paths under
//! Criterion so regressions show up in `cargo bench serve`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use ganax::serve::{ServeConfig, Server};
use ganax::{GanaxMachine, InferenceEngine};
use ganax_bench::{deterministic_tensor, network_weights};
use ganax_models::zoo;

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");

    let network = zoo::reduced_generator("DCGAN", 8).expect("DCGAN is in the zoo");
    let weights = network_weights(&network, 7);
    let input = deterministic_tensor(network.input_shape(), 13);
    let machine = GanaxMachine::paper();
    let engine = InferenceEngine::new(machine, 2);
    let compiled = engine
        .compile(&network, &weights)
        .expect("network compiles");

    group.bench_function("dcgan_reduced8_cold_one_shot", |b| {
        b.iter(|| {
            let run = machine
                .execute_network_threaded(&network, &input, &weights, 2)
                .expect("one-shot request executes");
            std::hint::black_box(run.total_busy_pe_cycles())
        })
    });

    group.bench_function("dcgan_reduced8_warm_engine", |b| {
        b.iter(|| {
            let run = engine
                .execute(&compiled, &input)
                .expect("warm request executes");
            std::hint::black_box(run.total_busy_pe_cycles())
        })
    });

    group.bench_function("dcgan_reduced8_batch4", |b| {
        let inputs: Vec<_> = (0..4)
            .map(|k| deterministic_tensor(network.input_shape(), 13 + k))
            .collect();
        b.iter(|| {
            let run = engine
                .execute_batch(&compiled, &inputs)
                .expect("batch executes");
            std::hint::black_box(run.busy_pe_cycles)
        })
    });

    group.bench_function("dcgan_reduced8_server_wave4", |b| {
        // The full async round trip: admission, wave coalescing, batched
        // execution, ticket retirement — 4 requests through one server.
        let server = Server::new(
            InferenceEngine::new(machine, 2),
            ServeConfig {
                max_batch: 4,
                batch_window: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        )
        .expect("server builds");
        let model = server
            .register(&network, &weights)
            .expect("model registers");
        let inputs: Vec<_> = (0..4)
            .map(|k| deterministic_tensor(network.input_shape(), 13 + k))
            .collect();
        b.iter(|| {
            let tickets: Vec<_> = inputs
                .iter()
                .map(|input| server.submit(model, input.clone()).expect("queue has room"))
                .collect();
            for ticket in tickets {
                let response = ticket.wait().expect("request succeeds");
                std::hint::black_box(response.wave_size);
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
