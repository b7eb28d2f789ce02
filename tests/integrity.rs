//! Computation-integrity suite: ABFT checksum verification and surgical
//! healing driven through the engine and the serving stack.
//!
//! Four properties pin the integrity layer down:
//!
//! 1. **no false positives** — fault-free runs across the reduced zoo never
//!    flag a violation, and their outputs are byte-identical with integrity
//!    on vs off (verification observes, never perturbs);
//! 2. **detection + surgical healing** — a seeded finite bit flip (the
//!    silent corruption PR 7's guards cannot see) is detected by the
//!    checksum verdicts and healed by re-executing only the flagged rows,
//!    with outputs bit-identical to the fault-free run at pool sizes 1/2/4;
//! 3. **verdicts are pool-invariant** (proptest) — whatever a random flip
//!    schedule does, pool sizes 1/2/4 agree: same result type, bit-identical
//!    outputs on success, identical violation/heal counters;
//! 4. **persistent violations are typed and non-transient** — a flip that
//!    fires on every epoch survives healing, surfaces as
//!    [`MachineError::IntegrityViolation`], does not spin the serve retry
//!    loop, trips the circuit breaker, and is reported per model by
//!    [`Server::health`].

use std::time::Duration;

use ganax::serve::{CircuitState, ServeConfig, Server};
use ganax::{
    FaultKind, FaultSpec, GanaxConfig, GanaxMachine, InferenceEngine, IntegrityMode, MachineError,
    NetworkWeights, ServeError,
};
use ganax_bench::{conformance_input, conformance_weights};
use ganax_models::{zoo, Network};
use ganax_tensor::Tensor;
use proptest::prelude::*;

/// The silent-corruption kinds: finite bit flips on operands and weights.
const FLIPS: u32 = FaultKind::INPUT_FLIP | FaultKind::WEIGHT_FLIP;

/// Seeded flip schedule used by the deterministic detect-and-heal cases.
/// The seed is chosen (see `scan_for_detectable_seeds`) so the schedule
/// actually fires and every consequential flip is above the checksum
/// tolerance — this seed injects 15 flips, 6 above tolerance, and healing
/// restores the clean output bit-for-bit. Injection is deterministic and
/// pool-invariant, so the choice holds at every pool size.
const DETECTABLE_SEED: u64 = 39;
const DETECTABLE_RATE_PPM: u32 = 40;

fn integrity_engine(mode: IntegrityMode, spec: FaultSpec, threads: usize) -> InferenceEngine {
    let config = GanaxConfig::paper()
        .with_fault(spec)
        .expect("fault spec is valid")
        .with_integrity(mode)
        .expect("integrity mode is valid");
    InferenceEngine::new(GanaxMachine::new(config), threads)
}

fn reduced_zoo() -> Vec<(Network, NetworkWeights)> {
    ["DCGAN", "ArtGAN", "MAGAN"]
        .iter()
        .enumerate()
        .map(|(m, name)| {
            let network = zoo::reduced_generator(name, 4).expect("model is in the zoo");
            let weights = conformance_weights(&network, 500 + 11 * m as u64);
            (network, weights)
        })
        .collect()
}

/// Property 1: fault-free runs never false-positive. Across the reduced zoo,
/// a verifying engine completes every batch with zero violations (and a
/// nonzero number of checks actually performed), and its outputs are
/// byte-identical to the same engine with integrity off.
#[test]
fn fault_free_runs_never_false_positive_and_match_off_mode() {
    for (network, weights) in &reduced_zoo() {
        let inputs: Vec<Tensor> = (0..2u64)
            .map(|j| conformance_input(network, 700 + j))
            .collect();

        let off = InferenceEngine::new(GanaxMachine::paper(), 2);
        let off_compiled = off.compile(network, weights).expect("compiles");
        let baseline = off
            .execute_batch(&off_compiled, &inputs)
            .expect("fault-free batch executes");
        assert_eq!(off.integrity_checks(), 0, "Off mode must not checksum");

        let verify = integrity_engine(IntegrityMode::Verify, FaultSpec::disabled(), 2);
        let compiled = verify.compile(network, weights).expect("compiles");
        let run = verify
            .execute_batch(&compiled, &inputs)
            .expect("a clean run must never be flagged");

        assert_eq!(
            run.outputs,
            baseline.outputs,
            "verification must observe, not perturb ({})",
            network.name()
        );
        assert_eq!(run.counts, baseline.counts, "counters must be untouched");
        assert!(verify.integrity_checks() > 0, "verification must engage");
        assert_eq!(verify.integrity_violations(), 0, "false positive");
        assert_eq!(verify.rows_healed(), 0);
        assert_eq!(verify.integrity_undetected(), 0);
    }
}

/// Property 2 (the acceptance case): a seeded finite bit flip is detected
/// and surgically healed, with outputs and activity counters bit-identical
/// to the fault-free run at pool sizes 1, 2 and 4.
#[test]
fn seeded_flip_is_detected_and_healed_bit_identically_at_every_pool_size() {
    let network = zoo::reduced_generator("DCGAN", 4).expect("model is in the zoo");
    let weights = conformance_weights(&network, 320);
    let inputs: Vec<Tensor> = (0..2u64)
        .map(|j| conformance_input(&network, 910 + j))
        .collect();

    let clean_engine = InferenceEngine::new(GanaxMachine::paper(), 1);
    let clean_compiled = clean_engine.compile(&network, &weights).expect("compiles");
    let clean = clean_engine
        .execute_batch(&clean_compiled, &inputs)
        .expect("fault-free batch executes");

    let spec = FaultSpec::seeded(DETECTABLE_SEED, DETECTABLE_RATE_PPM, FLIPS);
    for pool in [1usize, 2, 4] {
        let engine = integrity_engine(IntegrityMode::VerifyAndHeal, spec, pool);
        let compiled = engine.compile(&network, &weights).expect("compiles");
        let run = engine
            .execute_batch(&compiled, &inputs)
            .expect("healing absorbs the corruption");

        assert!(
            engine.injected_faults() > 0,
            "the schedule must actually inject (pool {pool})"
        );
        assert!(
            engine.integrity_violations() > 0,
            "the flip must be detected (pool {pool})"
        );
        assert!(
            engine.rows_healed() > 0,
            "detection must trigger surgical healing (pool {pool})"
        );
        assert_eq!(engine.integrity_undetected(), 0);
        assert_eq!(
            run.outputs, clean.outputs,
            "healed outputs must be bit-identical to fault-free (pool {pool})"
        );
        assert_eq!(
            run.counts, clean.counts,
            "healing must not distort counters"
        );
        assert_eq!(run.busy_pe_cycles, clean.busy_pe_cycles);
        assert_eq!(run.work_units, clean.work_units);
    }
}

/// Satellite: the typed violation is permanent — the serve retry loop must
/// not burn its budget re-executing a fault that cannot heal.
#[test]
fn integrity_violations_are_not_transient() {
    let error = MachineError::IntegrityViolation {
        layer: "up1".into(),
        rows: vec![3, 4],
    };
    assert!(!error.is_transient());
    let rendered = error.to_string();
    assert!(
        rendered.contains("up1") && rendered.contains('2'),
        "{rendered}"
    );
}

/// Property 4a: a persistent flip fires again in every healing epoch, so
/// VerifyAndHeal exhausts its rounds and surfaces the typed violation naming
/// the layer.
#[test]
fn persistent_flips_exhaust_healing_and_surface_typed() {
    let network = zoo::reduced_generator("DCGAN", 4).expect("model is in the zoo");
    let weights = conformance_weights(&network, 320);
    let input = conformance_input(&network, 910);
    let spec = FaultSpec {
        persistent: true,
        ..FaultSpec::seeded(DETECTABLE_SEED, DETECTABLE_RATE_PPM, FLIPS)
    };
    let engine = integrity_engine(IntegrityMode::VerifyAndHeal, spec, 2);
    let compiled = engine.compile(&network, &weights).expect("compiles");
    match engine.execute(&compiled, &input) {
        Err(MachineError::IntegrityViolation { layer, rows }) => {
            assert!(!layer.is_empty());
            assert!(!rows.is_empty(), "the violation must name the rows");
        }
        other => panic!("expected a persistent IntegrityViolation, got {other:?}"),
    }
    assert!(engine.rows_healed() > 0, "healing was attempted first");
}

/// Property 4b: through the serving stack, Verify mode fails fast (no heal,
/// no retry spin on the non-transient cause), trips the breaker, and
/// `health()` pins the violation on the sick model.
#[test]
fn verify_mode_serves_typed_violations_and_trips_the_breaker() {
    let network = zoo::reduced_generator("DCGAN", 4).expect("model is in the zoo");
    let weights = conformance_weights(&network, 320);
    let spec = FaultSpec {
        persistent: true,
        ..FaultSpec::seeded(DETECTABLE_SEED, DETECTABLE_RATE_PPM, FLIPS)
    };
    let machine = GanaxMachine::new(
        GanaxConfig::paper()
            .with_fault(spec)
            .expect("spec is valid"),
    );
    let config = ServeConfig {
        integrity: IntegrityMode::Verify,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(3600),
        retry_backoff: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = Server::new(InferenceEngine::new(machine, 2), config).expect("server builds");
    let model = server.register(&network, &weights).expect("registers");

    for _ in 0..2 {
        match server.run(model, conformance_input(&network, 910)) {
            Err(ServeError::Engine {
                error: MachineError::IntegrityViolation { rows, .. },
            }) => assert!(!rows.is_empty()),
            other => panic!("expected the typed integrity cause, got {other:?}"),
        }
    }
    assert!(matches!(
        server.submit(model, conformance_input(&network, 910)),
        Err(ServeError::ModelUnhealthy { .. })
    ));

    let stats = server.stats();
    assert_eq!(stats.retries, 0, "non-transient failures must not retry");
    assert_eq!(stats.failed, 2);
    assert!(stats.integrity_checks > 0);
    assert!(stats.integrity_violations > 0);
    assert_eq!(stats.rows_healed, 0, "Verify mode never heals");

    let health = server.health();
    assert!(!health.is_healthy());
    assert_eq!(health.models[0].circuit, CircuitState::Open);
    assert!(
        health.models[0].integrity_violations >= 2,
        "health must pin the violations on the model: {health:?}"
    );
}

/// VerifyAndHeal through the serving stack: transient flips are absorbed
/// below the retry layer entirely — requests complete bit-identical to a
/// fault-free server, with the healing visible only in the stats.
#[test]
fn serve_heals_transient_flips_below_the_retry_layer() {
    let network = zoo::reduced_generator("DCGAN", 4).expect("model is in the zoo");
    let weights = conformance_weights(&network, 320);
    let input = conformance_input(&network, 910);

    let clean = GanaxMachine::paper()
        .execute_network_threaded(&network, &input, &weights, 1)
        .expect("fault-free run executes");

    let spec = FaultSpec::seeded(DETECTABLE_SEED, DETECTABLE_RATE_PPM, FLIPS);
    let machine = GanaxMachine::new(
        GanaxConfig::paper()
            .with_fault(spec)
            .expect("spec is valid"),
    );
    let config = ServeConfig {
        integrity: IntegrityMode::VerifyAndHeal,
        ..ServeConfig::default()
    };
    let server = Server::new(InferenceEngine::new(machine, 2), config).expect("server builds");
    let model = server.register(&network, &weights).expect("registers");
    let response = server
        .run(model, input)
        .expect("healing masks the corruption");

    assert_eq!(response.output, clean.output, "healed response diverged");
    let stats = server.stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.retries, 0, "healing happens below the retry layer");
    assert!(stats.integrity_violations > 0, "the flip was detected");
    assert!(stats.rows_healed > 0, "the flip was healed");
    assert_eq!(stats.integrity_undetected, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 3: integrity verdicts are pool-invariant. Whatever a random
    /// flip schedule does — detected and healed, below tolerance, or not
    /// fired at all — pool sizes 1, 2 and 4 agree exactly: the same result
    /// type, bit-identical outputs on success, and identical
    /// checks/violations/heal counters.
    #[test]
    fn prop_flip_verdicts_and_outputs_are_pool_invariant(
        model_index in 0usize..3,
        batch in 1usize..3,
        rate in 20_000u32..200_000,
        seed in 0u64..1_000,
    ) {
        let name = ["DCGAN", "ArtGAN", "MAGAN"][model_index];
        let network = zoo::reduced_generator(name, 4).expect("model is in the zoo");
        let weights = conformance_weights(&network, 400 + seed);
        let inputs: Vec<Tensor> = (0..batch as u64)
            .map(|j| conformance_input(&network, 800 + seed + j))
            .collect();
        let spec = FaultSpec::seeded(seed + 1, rate, FLIPS);

        let mut outcomes = Vec::new();
        for pool in [1usize, 2, 4] {
            let engine = integrity_engine(IntegrityMode::VerifyAndHeal, spec, pool);
            let compiled = engine.compile(&network, &weights).expect("compiles");
            let result = engine.execute_batch(&compiled, &inputs);
            let outputs = match result {
                Ok(run) => Some(run.outputs),
                Err(MachineError::IntegrityViolation { .. }) => None,
                Err(other) => panic!("unexpected error at pool {pool}: {other:?}"),
            };
            outcomes.push((
                outputs,
                engine.integrity_checks(),
                engine.integrity_violations(),
                engine.rows_healed(),
                engine.integrity_undetected(),
            ));
        }
        let (first, rest) = outcomes.split_first().expect("three pools ran");
        for (i, other) in rest.iter().enumerate() {
            prop_assert_eq!(
                first, other,
                "pool 1 and pool {} disagree (seed {}, rate {})",
                [2, 4][i], seed, rate
            );
        }
    }
}

/// Seed-scan helper (ignored): finds `(seed, rate)` pairs where the flip
/// schedule fires on the reduced DCGAN *and* every fired flip is above the
/// checksum tolerance (detected + healed back to bit-identical). Run with
/// `cargo test --test integrity scan -- --ignored --nocapture` when the
/// tolerance or the fault model changes, then update `DETECTABLE_SEED`.
#[test]
#[ignore = "manual helper for picking DETECTABLE_SEED"]
fn scan_for_detectable_seeds() {
    let network = zoo::reduced_generator("DCGAN", 4).expect("model is in the zoo");
    let weights = conformance_weights(&network, 320);
    let inputs: Vec<Tensor> = (0..2u64)
        .map(|j| conformance_input(&network, 910 + j))
        .collect();
    let clean_engine = InferenceEngine::new(GanaxMachine::paper(), 1);
    let clean_compiled = clean_engine.compile(&network, &weights).expect("compiles");
    let clean = clean_engine
        .execute_batch(&clean_compiled, &inputs)
        .expect("fault-free batch executes");

    for seed in 1u64..64 {
        let spec = FaultSpec::seeded(seed, DETECTABLE_RATE_PPM, FLIPS);
        let engine = integrity_engine(IntegrityMode::VerifyAndHeal, spec, 1);
        let compiled = engine.compile(&network, &weights).expect("compiles");
        let verdict = match engine.execute_batch(&compiled, &inputs) {
            Ok(run) if run.outputs == clean.outputs => "bit-identical",
            Ok(_) => "DIVERGED",
            Err(error) => {
                println!("seed {seed}: error {error}");
                continue;
            }
        };
        println!(
            "seed {seed}: {verdict}, injected {}, violations {}, healed {}",
            engine.injected_faults(),
            engine.integrity_violations(),
            engine.rows_healed(),
        );
    }
}
