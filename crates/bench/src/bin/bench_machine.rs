//! Benchmarks the cycle-level machine's fast path against the seed
//! single-step serial path and emits `BENCH_machine.json`.
//!
//! ```text
//! cargo run --release -p ganax-bench --bin bench_machine             # full run
//! cargo run --release -p ganax-bench --bin bench_machine -- --quick  # CI smoke
//! cargo run --release -p ganax-bench --bin bench_machine -- --out path.json
//! cargo run --release -p ganax-bench --bin bench_machine -- --threads 1,2,4,8
//! ```
//!
//! Each row records the wall-clock time of the seed single-step path, the
//! burst-stepped serial fast path and the threaded fast path on one layer
//! geometry, plus simulated-cycles-per-second, the resulting speedups, and a
//! full sweep over the requested thread counts (`--threads`, defaulting to
//! `1,2,4,available`). The fast-path results are asserted bit-identical to
//! the reference before any timing is reported.

use ganax_bench::{cli_out_path, cli_thread_counts, machine_bench, MachineBenchRow};
use serde::Serialize;

/// The emitted `BENCH_machine.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    /// Benchmark family name.
    bench: String,
    /// Whether the quick (CI smoke) geometry set was used.
    quick: bool,
    /// Worker-thread counts the threaded scheduler was swept over.
    thread_counts: Vec<usize>,
    /// Per-geometry measurements.
    rows: Vec<MachineBenchRow>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = cli_out_path(&args, "BENCH_machine.json");
    let thread_counts = cli_thread_counts(&args);

    let rows = machine_bench(quick, &thread_counts);
    for row in &rows {
        println!(
            "{:<20} {:>12} cycles  ref {:>9.1} ms  fast {:>8.1} ms ({:>5.1}x)  threaded {:>8.1} ms ({:>5.1}x @ {}t)",
            row.layer,
            row.busy_pe_cycles,
            row.reference_ms,
            row.fast_serial_ms,
            row.speedup_fast_serial,
            row.threaded_ms,
            row.speedup_threaded,
            row.threads,
        );
        for timing in &row.thread_sweep {
            println!(
                "    {:>2} threads  {:>8.1} ms  ({:>5.2}x vs serial)",
                timing.threads, timing.ms, timing.speedup_vs_serial,
            );
        }
    }

    let report = BenchReport {
        bench: "machine".to_string(),
        quick,
        thread_counts,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("BENCH_machine.json is writable");
    println!("wrote {out_path}");
}
