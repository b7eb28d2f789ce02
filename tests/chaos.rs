//! Chaos suite: seeded fault schedules driven through the full
//! submit → coalesce → wave → retire path, plus engine-level pool-recovery
//! properties.
//!
//! Four properties pin the self-healing layer down:
//!
//! 1. **liveness** — under a mixed schedule of maskable faults (NaN poison,
//!    worker panics, worker stalls) every ticket resolves within a generous
//!    timeout: completed, or a typed error — never a hang, never a batcher
//!    panic;
//! 2. **masked faults are invisible** — faults the stack can absorb
//!    (poisoned waves retried on a clean epoch, panicked workers respawned
//!    with their shards requeued) produce responses **bit-identical** to a
//!    fault-free server, with conserved aggregate [`EventCounts`];
//! 3. **unmasked faults are typed** — a persistent fault exhausts the retry
//!    budget and surfaces as [`ServeError::Engine`] with the machine's typed
//!    cause; an open circuit breaker rejects with
//!    [`ServeError::ModelUnhealthy`] while *other* models on the same server
//!    keep serving; expired requests report [`ServeError::DeadlineExceeded`];
//! 4. **pool recovery is deterministic** (proptest) — a worker killed at a
//!    seeded (layer, row) point inside a random reduced-zoo batch is
//!    respawned, its shard requeued, and the batch completes bit-identical
//!    to the fault-free run with conserved counters, at pool sizes 1/2/4.

use std::time::Duration;

use ganax::serve::{CircuitState, ServeConfig, Server};
use ganax::{
    FaultKind, FaultSpec, GanaxConfig, GanaxMachine, InferenceEngine, MachineError, NetworkWeights,
    ServeError,
};
use ganax_bench::{conformance_input, conformance_weights, deterministic_tensor};
use ganax_energy::EventCounts;
use ganax_models::{zoo, Activation, Network, NetworkBuilder};
use ganax_tensor::{ConvParams, Shape, Tensor};
use proptest::prelude::*;

/// Far above any toy wave (even one absorbing stalls and respawns), far
/// below a hang.
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(30);

fn toy_network(name: &str, mid_channels: usize) -> Network {
    NetworkBuilder::new(name, Shape::new_2d(1, 4, 4))
        .tconv(
            "up",
            mid_channels,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::Relu,
        )
        // `Activation::None` passes injected NaNs on unchanged (the engine's
        // guard checks each layer before its activation either way).
        .conv("smooth", 1, ConvParams::conv_2d(3, 1, 1), Activation::None)
        .build()
        .expect("toy network builds")
}

fn toy_weights(network: &Network, seed: u64) -> NetworkWeights {
    let tensors = network
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| deterministic_tensor(NetworkWeights::expected_shape(l), seed + i as u64))
        .collect();
    NetworkWeights::new(network, tensors).expect("weights match the network")
}

fn input_for(network: &Network, seed: u64) -> Tensor {
    deterministic_tensor(network.input_shape(), seed)
}

fn faulty_server(threads: usize, config: ServeConfig, spec: FaultSpec) -> Server {
    let machine = GanaxMachine::new(
        GanaxConfig::paper()
            .with_fault(spec)
            .expect("fault spec is valid"),
    );
    Server::new(InferenceEngine::new(machine, threads), config).expect("server builds")
}

/// Liveness + masked-fault bit-identity: concurrent clients hammer a server
/// whose machine injects NaN poison, worker panics and worker stalls. Every
/// ticket resolves, every response is bit-identical to a fault-free server,
/// aggregate counters are conserved, and the stack visibly absorbed faults
/// (retries or respawns observed) without a single final failure.
#[test]
fn chaos_every_ticket_resolves_and_masked_faults_are_bit_identical() {
    const CLIENTS: usize = 3;
    const REQUESTS_PER_CLIENT: usize = 3;
    let zoo: Vec<(Network, NetworkWeights)> = (0..2)
        .map(|m| {
            let network = toy_network(&format!("chaos-{m}"), m + 1);
            let weights = toy_weights(&network, 40 + 9 * m as u64);
            (network, weights)
        })
        .collect();
    let spec = FaultSpec::seeded(
        0xC0A5,
        120_000,
        FaultKind::NAN_POISON | FaultKind::WORKER_PANIC | FaultKind::WORKER_STALL,
    );
    let config = ServeConfig {
        batch_window: Duration::from_millis(5),
        // Each NaN retry advances the armed frontier one layer, and a
        // panic-cap exhaustion can burn one more attempt — budget for all.
        max_retries: 5,
        retry_backoff: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = faulty_server(2, config, spec);
    let handles: Vec<_> = zoo
        .iter()
        .map(|(network, weights)| server.register(network, weights).expect("model registers"))
        .collect();

    let served: Vec<(usize, u64, ganax::Response)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                let zoo = &zoo;
                let handles = &handles;
                scope.spawn(move || {
                    let tickets: Vec<_> = (0..REQUESTS_PER_CLIENT)
                        .map(|r| {
                            let model = (c + r) % zoo.len();
                            let seed = 2_000 + 31 * c as u64 + 7 * r as u64;
                            let ticket = server
                                .submit(handles[model], input_for(&zoo[model].0, seed))
                                .expect("queue has room");
                            (model, seed, ticket)
                        })
                        .collect();
                    tickets
                        .into_iter()
                        .map(|(model, seed, ticket)| {
                            let response = ticket
                                .wait_timeout(RESOLVE_TIMEOUT)
                                .expect("ticket resolves — no hangs under chaos")
                                .expect("maskable faults are absorbed");
                            (model, seed, response)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread completes"))
            .collect()
    });

    assert_eq!(served.len(), CLIENTS * REQUESTS_PER_CLIENT);
    let clean = GanaxMachine::paper();
    let mut expected_counts = EventCounts::default();
    for (model, seed, response) in &served {
        let (network, weights) = &zoo[*model];
        let fresh = clean
            .execute_network_threaded(network, &input_for(network, *seed), weights, 1)
            .expect("fault-free run executes");
        assert_eq!(
            response.output, fresh.output,
            "masked fault leaked into the output (model {model}, seed {seed})"
        );
        expected_counts += fresh.total_counts();
    }
    let stats = server.stats();
    assert_eq!(stats.failed, 0, "every fault was masked: {stats:?}");
    assert_eq!(stats.cancelled + stats.rejected, 0);
    assert_eq!(stats.completed, served.len() as u64);
    assert_eq!(stats.counts, expected_counts, "EventCounts not conserved");
    assert!(
        stats.retries + stats.respawns > 0,
        "the schedule must actually inject: {stats:?}"
    );
    assert!(server.health().is_healthy());
}

/// A persistent fault is unmaskable: it fires on every retry epoch, so the
/// wave exhausts its budget and every coalesced ticket resolves with the
/// typed machine cause — promptly, not by hanging.
#[test]
fn chaos_unmasked_faults_resolve_with_typed_errors() {
    let network = toy_network("chaos-hard", 1);
    let weights = toy_weights(&network, 51);
    let spec = FaultSpec {
        layer: 1,
        persistent: true,
        ..FaultSpec::seeded(9, 1_000_000, FaultKind::NAN_POISON)
    };
    let config = ServeConfig {
        batch_window: Duration::from_millis(20),
        max_batch: 3,
        retry_backoff: Duration::ZERO,
        breaker_threshold: 0, // keep the breaker out of this property
        ..ServeConfig::default()
    };
    let server = faulty_server(2, config, spec);
    let model = server.register(&network, &weights).expect("registers");
    let tickets: Vec<_> = (0..3u64)
        .map(|r| {
            server
                .submit(model, input_for(&network, 60 + r))
                .expect("queue has room")
        })
        .collect();
    for ticket in tickets {
        match ticket
            .wait_timeout(RESOLVE_TIMEOUT)
            .expect("unmasked faults still resolve tickets")
        {
            Err(ServeError::Engine {
                error: MachineError::NonFiniteOutput { layer, .. },
            }) => assert_eq!(layer, "smooth"),
            other => panic!("expected the typed machine cause, got {other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.failed, 3);
    assert_eq!(stats.completed, 0);
    assert!(stats.retries >= 1, "the budget was spent first: {stats:?}");
}

/// Acceptance case: a seeded worker panic mid-batch is absorbed — the
/// supervisor respawns the worker, requeues the lost shard, and the wave
/// retires bit-identical to the fault-free run.
#[test]
fn chaos_worker_panic_mid_batch_completes_bit_identically() {
    let network = toy_network("chaos-panic", 2);
    let weights = toy_weights(&network, 77);
    let inputs: Vec<Tensor> = (0..3u64).map(|r| input_for(&network, 80 + r)).collect();
    let clean = GanaxMachine::paper();
    let expected: Vec<Tensor> = inputs
        .iter()
        .map(|input| {
            clean
                .execute_network_threaded(&network, input, &weights, 1)
                .expect("fault-free run executes")
                .output
        })
        .collect();

    let spec = FaultSpec {
        layer: 1,
        row: 2,
        ..FaultSpec::seeded(13, 1_000_000, FaultKind::WORKER_PANIC)
    };
    let config = ServeConfig {
        batch_window: Duration::from_millis(50),
        max_batch: 3,
        ..ServeConfig::default()
    };
    let server = faulty_server(2, config, spec);
    let model = server.register(&network, &weights).expect("registers");
    let tickets: Vec<_> = inputs
        .iter()
        .map(|input| server.submit(model, input.clone()).expect("queue has room"))
        .collect();
    for (ticket, expected) in tickets.into_iter().zip(&expected) {
        let response = ticket
            .wait_timeout(RESOLVE_TIMEOUT)
            .expect("panic recovery resolves the ticket")
            .expect("the wave completes despite the dead worker");
        assert_eq!(&response.output, expected, "recovered output diverged");
    }
    let stats = server.stats();
    assert!(stats.respawns >= 1, "the dead worker respawned: {stats:?}");
    assert!(stats.requeued_shards >= 1, "its shard was requeued");
    assert_eq!(stats.failed, 0);
    assert!(server.health().is_healthy(), "the pool recovered");
}

/// The circuit breaker isolates per model: a model whose second layer is
/// persistently poisoned trips open and rejects typed, while a single-layer
/// model on the same server (the fault targets layer 1, which it lacks)
/// keeps serving bit-identically.
#[test]
fn chaos_breaker_isolates_the_sick_model() {
    let sick = toy_network("chaos-sick", 1);
    let sick_weights = toy_weights(&sick, 91);
    let healthy = NetworkBuilder::new("chaos-healthy", Shape::new_2d(1, 4, 4))
        .tconv(
            "up",
            1,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::Relu,
        )
        .build()
        .expect("single-layer network builds");
    let healthy_weights = toy_weights(&healthy, 93);

    let spec = FaultSpec {
        layer: 1, // the healthy model only has layer 0
        persistent: true,
        ..FaultSpec::seeded(17, 1_000_000, FaultKind::NAN_POISON)
    };
    let config = ServeConfig {
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(3600),
        max_retries: 1,
        retry_backoff: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = faulty_server(2, config, spec);
    let sick_model = server.register(&sick, &sick_weights).expect("registers");
    let healthy_model = server
        .register(&healthy, &healthy_weights)
        .expect("registers");

    for _ in 0..2 {
        assert!(
            matches!(
                server.run(sick_model, input_for(&sick, 95)),
                Err(ServeError::Engine { .. })
            ),
            "the poisoned model fails typed"
        );
    }
    assert!(matches!(
        server.submit(sick_model, input_for(&sick, 95)),
        Err(ServeError::ModelUnhealthy { .. })
    ));

    // The sibling model is untouched by the breaker *and* by the fault.
    let input = input_for(&healthy, 97);
    let response = server
        .run(healthy_model, input.clone())
        .expect("healthy model keeps serving");
    let fresh = GanaxMachine::paper()
        .execute_network_threaded(&healthy, &input, &healthy_weights, 1)
        .expect("fault-free run executes");
    assert_eq!(response.output, fresh.output, "healthy model diverged");

    let health = server.health();
    assert!(!health.is_healthy());
    let circuit_of = |name: &str| {
        health
            .models
            .iter()
            .find(|m| m.name == name)
            .expect("model is listed")
            .circuit
    };
    assert_eq!(circuit_of("chaos-sick"), CircuitState::Open);
    assert_eq!(circuit_of("chaos-healthy"), CircuitState::Closed);
    assert_eq!(server.stats().breaker_trips, 1);
}

/// Worker stalls slow a wave past its deadline: the request resolves with
/// the typed deadline error (degradation, not failure — the engine itself
/// still completed, the breaker stays closed, nothing hangs).
#[test]
fn chaos_stalled_waves_miss_deadlines_typed() {
    let network = toy_network("chaos-slow", 1);
    let weights = toy_weights(&network, 101);
    let spec = FaultSpec::seeded(23, 1_000_000, FaultKind::WORKER_STALL);
    let config = ServeConfig {
        request_deadline: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let server = faulty_server(1, config, spec);
    let model = server.register(&network, &weights).expect("registers");
    let ticket = server
        .submit(model, input_for(&network, 103))
        .expect("queue has room");
    match ticket
        .wait_timeout(RESOLVE_TIMEOUT)
        .expect("stalled waves still resolve")
    {
        Err(ServeError::DeadlineExceeded { model, deadline }) => {
            assert_eq!(model, "chaos-slow");
            assert_eq!(deadline, Duration::from_millis(5));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.failed, 0, "a deadline miss is degradation");
    assert!(server.health().is_healthy(), "the breaker stayed closed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pool recovery is deterministic: kill a worker at a seeded
    /// (layer, row) point inside a random reduced-zoo batch, at pool sizes
    /// 1/2/4. The batch must complete with outputs, busy cycles and
    /// `EventCounts` bit-identical to the fault-free engine, the supervisor
    /// must have respawned the worker and requeued its shard, and the pool
    /// must still be alive for the next batch.
    ///
    /// `row_pick` spans well past the first wide-slice block (rows are
    /// carved into contiguous phase-major blocks striped over shards, not
    /// round-robined), so seeded kills land inside every shard's slice —
    /// including deep in a block, mid-run — not just at row 0 of shard 0.
    #[test]
    fn prop_pool_recovers_bit_identically_from_seeded_worker_kill(
        pool_index in 0usize..3,
        model_index in 0usize..3,
        batch in 1usize..4,
        layer_pick in 0u64..8,
        row_pick in 0u64..24,
        seed in 0u64..1_000,
    ) {
        let pool = [1usize, 2, 4][pool_index];
        let name = ["DCGAN", "ArtGAN", "MAGAN"][model_index];
        let network = zoo::reduced_generator(name, 4).expect("model is in the zoo");
        let weights = conformance_weights(&network, 300 + seed);
        let inputs: Vec<Tensor> = (0..batch as u64)
            .map(|j| conformance_input(&network, 900 + seed + j))
            .collect();

        let clean_engine = InferenceEngine::new(GanaxMachine::paper(), pool);
        let clean_compiled = clean_engine.compile(&network, &weights).expect("compiles");
        let clean = clean_engine
            .execute_batch(&clean_compiled, &inputs)
            .expect("fault-free batch executes");

        // Half the cases target every layer at one row, half a single
        // (layer, row) coordinate — either way the panic site is seeded.
        let layers = network.layers().len() as u64;
        let layer = if layer_pick < 4 { -1 } else { (layer_pick % layers) as i64 };
        let spec = FaultSpec {
            layer,
            row: row_pick as i64,
            ..FaultSpec::seeded(seed + 1, 1_000_000, FaultKind::WORKER_PANIC)
        };
        let machine = GanaxMachine::new(
            GanaxConfig::paper().with_fault(spec).expect("spec is valid"),
        );
        let engine = InferenceEngine::new(machine, pool);
        let compiled = engine.compile(&network, &weights).expect("compiles");
        let run = engine
            .execute_batch(&compiled, &inputs)
            .expect("the batch recovers from the worker kill");

        prop_assert_eq!(&run.outputs, &clean.outputs, "recovered outputs diverged");
        prop_assert_eq!(run.counts, clean.counts, "EventCounts not conserved");
        prop_assert_eq!(run.busy_pe_cycles, clean.busy_pe_cycles);
        prop_assert_eq!(run.work_units, clean.work_units);
        if engine.injected_faults() > 0 {
            prop_assert!(engine.respawns() >= 1, "the kill must respawn a worker");
            prop_assert!(engine.requeued_shards() >= 1, "the lost shard must requeue");
        }
        prop_assert!(engine.pool_is_alive(), "the pool survives for the next batch");
    }
}
