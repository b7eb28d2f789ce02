//! Benchmarks the compile-once inference engine as a serving system on the
//! DCGAN generator and emits `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p ganax-bench --bin bench_serve             # full size
//! cargo run --release -p ganax-bench --bin bench_serve -- --quick  # CI smoke
//! cargo run --release -p ganax-bench --bin bench_serve -- --out path.json
//! cargo run --release -p ganax-bench --bin bench_serve -- --threads 1,2,4 --batch 8
//! cargo run --release -p ganax-bench --bin bench_serve -- --faults # fault sweep
//! ```
//!
//! The report compares three ways of serving one request:
//!
//! * **cold** — one [`ganax::GanaxMachine::execute_network_threaded`] call:
//!   a fresh pool, compile and first execute;
//! * **warm** — a cached [`ganax::CompiledNetwork`] on the engine's
//!   persistent pool (PEs and buffers reset in place, zero planning —
//!   asserted);
//! * **batched** — [`ganax::InferenceEngine::execute_batch`] amortizing
//!   staged weight streams across batch × rows on a 4+-worker pool.
//!
//! On top of the single-request paths, the offered-load sweep drives the
//! async [`ganax::serve::Server`] through seeded Poisson arrival schedules
//! at sub-capacity, near-capacity and saturating rates — batched wave
//! dispatch versus serial per-request dispatch on same-sized pools — and
//! records p50/p99 latency and throughput per rate.
//!
//! With `--faults`, the report additionally records the fault-tolerance
//! sweep: the server absorbing seeded maskable fault schedules (NaN poison,
//! worker panics, worker stalls) at increasing rates — every response still
//! bit-identical to the fault-free baseline, with the throughput and p99
//! degradation curve plus the recovery activity (retries, respawns,
//! requeued shards) per rate. An armed schedule that targets no layer
//! separates the injector's own tax from the recovery cost.
//!
//! The `integrity` section records the ABFT verification tax (a
//! `Verify`-mode engine versus the `Off`-mode headline, asserted ≤ 15% on
//! the full-size network) and — with `--faults` — the silent-corruption
//! sweep: seeded finite-bit-flip schedules served under `VerifyAndHeal`,
//! each asserted to detect, heal and return the bit-exact clean response
//! with zero undetected escapes.
//!
//! Every warm, swept and batched run is asserted bit-identical to the cold
//! run before its timing is reported. The run also fails when the compiled
//! plans outgrow 1.5× the raw weights of the layers they cover.

use ganax_bench::{cli_out_path, cli_thread_counts, cli_value, serve_bench};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let faults = args.iter().any(|a| a == "--faults");
    let out_path = cli_out_path(&args, "BENCH_serve.json");
    let thread_counts = cli_thread_counts(&args);
    let batch_size = cli_value(&args, "--batch")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    let report = serve_bench(quick, &thread_counts, batch_size, faults);
    println!(
        "{} ({} threads): cold {:.1} ms (plan {:.1} ms)  warm {:.1} ms  -> {:.2}x",
        report.network,
        report.threads,
        report.cold_ms,
        report.cold_plan_ms,
        report.warm_ms,
        report.speedup_warm_vs_cold,
    );
    let plan_ratio = report.plan_bytes as f64 / report.raw_weight_bytes as f64;
    println!(
        "compile {:.1} ms  plans {:.1} MB ({plan_ratio:.3}x the {:.1} MB of PE-array weights)  warm plan {:.1} ms  {:.1}M cycles/s warm",
        report.compile_ms,
        report.plan_bytes as f64 / 1e6,
        report.raw_weight_bytes as f64 / 1e6,
        report.warm_plan_ms,
        report.warm_cycles_per_sec / 1e6,
    );
    for row in &report.thread_rows {
        let ms = row.warm_ms;
        println!(
            "  warm @ {:>2} threads  {:>9.1} ms median ({:.1}–{:.1}, {} runs)  {:.3} inf/s",
            row.threads, ms.median, ms.min, ms.max, ms.samples, row.inferences_per_sec,
        );
    }
    for row in &report.batch_rows {
        println!(
            "  batch {} @ {:>2} threads  {:>9.1} ms  {:.3} inf/s  ({:.2}x vs same-pool serial, {:.2}x vs best serial)",
            row.batch,
            row.threads,
            row.wall_ms,
            row.inferences_per_sec,
            row.speedup_vs_warm_serial,
            row.speedup_vs_best_serial,
        );
    }

    for row in &report.offered_load {
        println!(
            "  offered {:>7} @ {:>6.3} req/s ({:.1}x cap)  p50 {:>9.1} ms  p99 {:>9.1} ms  {:.3} req/s  waves {} (mean {:.2})",
            row.mode,
            row.arrival_rate_per_sec,
            row.load_factor,
            row.p50_latency_ms,
            row.p99_latency_ms,
            row.throughput_per_sec,
            row.waves,
            row.mean_wave,
        );
        assert!(
            row.p50_latency_ms.is_finite() && row.p99_latency_ms.is_finite(),
            "offered-load tail latency must be finite: {row:?}"
        );
        assert!(row.bit_identical, "offered-load row lost bit-identity");
    }

    for row in &report.fault_tolerance {
        println!(
            "  faults {:>10} {:>7} ppm  p50 {:>9.1} ms  p99 {:>9.1} ms ({:.2}x clean)  {:.3} req/s ({:.2}x clean)  retries {} respawns {} requeued {}",
            row.schedule,
            row.rate_ppm,
            row.p50_latency_ms,
            row.p99_latency_ms,
            row.p99_vs_clean,
            row.throughput_per_sec,
            row.throughput_vs_clean,
            row.retries,
            row.respawns,
            row.requeued_shards,
        );
        assert!(row.bit_identical, "fault-tolerance row lost bit-identity");
    }

    let integrity = &report.integrity;
    println!(
        "  integrity: off {:.1} ms  verify {:.1} ms  tax {:+.2}%  ({} checks/inference)",
        integrity.off_warm_ms,
        integrity.verify_warm_ms,
        integrity.verify_overhead * 100.0,
        integrity.checks_per_inference,
    );
    for row in &integrity.corruption {
        println!(
            "  corruption {:>11} seed {:>3} layer {}  injected {:>4}  detected {:>3}  healed {:>3}  undetected {}",
            row.kind, row.seed, row.layer, row.injected, row.detected, row.rows_healed, row.undetected,
        );
        assert!(row.bit_identical, "silent-corruption row lost bit-identity");
        assert_eq!(row.undetected, 0, "silent corruption escaped the checksums");
    }
    if !integrity.corruption.is_empty() {
        println!(
            "  corruption sweep: {} flips injected, {} row slices flagged, zero escapes",
            integrity.flips_injected, integrity.slices_flagged,
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("BENCH_serve.json is writable");
    println!("wrote {out_path}");
    // Asserted after the write, so an oversized plan still leaves its
    // evidence on disk.
    assert!(
        plan_ratio <= 1.5,
        "compiled plans hold {plan_ratio:.3}x the raw weights (limit 1.5x)"
    );
}
