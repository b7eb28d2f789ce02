//! Manual helpers for maintaining the `integrity` section of `bench_serve`
//! (see `CORRUPTION_SCHEDULES_QUICK` / `CORRUPTION_SCHEDULES_FULL` in
//! `crates/bench/src/lib.rs`). Both are `#[ignore]`d: run them by hand when
//! the checksum tolerance, the fault-site hashing or the DCGAN geometry
//! changes, and refresh the hard-coded schedules from the `GOOD` lines.
//!
//! ```sh
//! cargo test --release --test integrity_scan tax  -- --ignored --nocapture
//! cargo test --release --test integrity_scan scan -- --ignored --nocapture
//! ```

use std::time::Instant;

use ganax::{FaultKind, FaultSpec, GanaxConfig, GanaxMachine, InferenceEngine, IntegrityMode};
use ganax_bench::{bench_generator, deterministic_tensor};

fn engine(mode: IntegrityMode, spec: FaultSpec, threads: usize) -> InferenceEngine {
    let config = GanaxConfig::paper()
        .with_fault(spec)
        .expect("fault spec is valid")
        .with_integrity(mode)
        .expect("integrity mode is valid");
    InferenceEngine::new(GanaxMachine::new(config), threads)
}

/// Measures the ABFT verification tax on both bench geometries — the manual
/// counterpart of the `verify_overhead` number `integrity_bench` records.
#[test]
#[ignore = "manual helper: measures the Verify-mode tax on the bench networks"]
fn tax() {
    for quick in [true, false] {
        let (network, weights) = bench_generator(quick);
        let input = deterministic_tensor(network.input_shape(), 4099);
        let mut ms = Vec::new();
        for mode in [IntegrityMode::Off, IntegrityMode::Verify] {
            let eng = engine(mode, FaultSpec::disabled(), 1);
            let compiled = eng.compile(&network, &weights).expect("network compiles");
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let start = Instant::now();
                eng.execute(&compiled, &input).expect("clean run executes");
                best = best.min(start.elapsed().as_secs_f64() * 1e3);
            }
            ms.push(best);
        }
        eprintln!(
            "quick={quick}: off {:.1} ms, verify {:.1} ms, tax {:+.2}%",
            ms[0],
            ms[1],
            (ms[1] / ms[0] - 1.0) * 100.0
        );
    }
}

/// Scans seeded, layer-targeted flip schedules for ones every consequential
/// flip of which is detected and healed back to the bit-exact clean output —
/// the `GOOD` lines are candidates for the bench's corruption schedules.
/// Layers 1 and 4 (`tconv1`/`tconv4`) have the shortest accumulation chains
/// and therefore the tightest tolerances; untargeted schedules on the big
/// middle layers fire mostly sub-tolerance flips.
#[test]
#[ignore = "manual helper: scans for silent-corruption schedule seeds"]
fn scan() {
    for quick in [true, false] {
        let (network, weights) = bench_generator(quick);
        let input = deterministic_tensor(network.input_shape(), 4099);
        let clean = engine(IntegrityMode::Off, FaultSpec::disabled(), 1);
        let compiled = clean.compile(&network, &weights).expect("network compiles");
        let expected = clean
            .execute(&compiled, &input)
            .expect("clean run executes")
            .output;
        drop(clean);

        let mut found = 0usize;
        for seed in 1u64..=48 {
            let kind = if seed % 2 == 0 {
                FaultKind::WEIGHT_FLIP
            } else {
                FaultKind::INPUT_FLIP
            };
            let layer = if (seed / 2) % 2 == 0 { 1 } else { 4 };
            let spec = FaultSpec {
                layer,
                ..FaultSpec::seeded(seed, 100, kind)
            };
            let eng = engine(IntegrityMode::VerifyAndHeal, spec, 1);
            let compiled = eng.compile(&network, &weights).expect("network compiles");
            let run = eng.execute(&compiled, &input);
            let injected = eng.injected_faults();
            let violations = eng.integrity_violations();
            let healed = eng.rows_healed();
            let undetected = eng.integrity_undetected();
            let identical = run.as_ref().map(|r| r.output == expected).unwrap_or(false);
            let ok = run.is_ok();
            if injected > 0 && violations > 0 && undetected == 0 && identical {
                eprintln!(
                    "quick={quick} seed {seed} layer {layer}: GOOD injected {injected} violations {violations} healed {healed}"
                );
                found += 1;
                if found >= 6 {
                    break;
                }
            } else {
                eprintln!(
                    "quick={quick} seed {seed} layer {layer}: ok={ok} identical={identical} injected {injected} violations {violations} healed {healed} undetected {undetected}"
                );
            }
        }
    }
}
