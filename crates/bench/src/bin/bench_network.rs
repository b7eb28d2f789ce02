//! Executes the DCGAN generator end to end on the cycle-level machine and
//! emits `BENCH_network.json`.
//!
//! ```text
//! cargo run --release -p ganax-bench --bin bench_network             # full size
//! cargo run --release -p ganax-bench --bin bench_network -- --quick  # CI smoke
//! cargo run --release -p ganax-bench --bin bench_network -- --out path.json
//! cargo run --release -p ganax-bench --bin bench_network -- --threads 1,2,4
//! ```
//!
//! The report records the host (nproc, build profile), per-layer busy
//! cycles, load balance and wall-clock, total simulated-cycles-per-second,
//! the compile time and compiled plan size against the raw weights, a warm
//! pool-size sweep over one compiled artifact (`--threads` /
//! `GANAX_BENCH_THREADS`, default `1,2,4,available`), the
//! machine-vs-analytic cross-check, and the simulated speedup/energy
//! direction against the Eyeriss baseline. The run fails when the
//! cross-check is inconsistent or the plans outgrow 1.5× the raw weights.

use ganax_bench::{cli_out_path, cli_thread_counts, network_bench};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = cli_out_path(&args, "BENCH_network.json");
    let thread_counts = cli_thread_counts(&args);

    let report = network_bench(quick, &thread_counts);
    for row in &report.rows {
        println!(
            "{:<12} {}  {:>12} cycles  balance {:>5.3}  {:>9.1} ms",
            row.layer,
            if row.host { "host " } else { "array" },
            row.busy_pe_cycles,
            row.balance,
            row.wall_ms,
        );
    }
    println!(
        "{}: {} busy cycles in {:.1} ms ({:.1}M cycles/s, {} threads, plan {:.1} ms)",
        report.network,
        report.total_busy_pe_cycles,
        report.total_wall_ms,
        report.cycles_per_sec / 1e6,
        report.threads,
        report.plan_ms,
    );
    let plan_ratio = report.plan_bytes as f64 / report.raw_weight_bytes as f64;
    println!(
        "compile {:.1} ms  plans {:.1} MB ({plan_ratio:.3}x the {:.1} MB of PE-array weights)",
        report.compile_ms,
        report.plan_bytes as f64 / 1e6,
        report.raw_weight_bytes as f64 / 1e6,
    );
    for timing in &report.thread_scaling {
        println!(
            "  warm @ {:>2} threads  {:>9.1} ms  ({:>5.2}x vs serial)",
            timing.threads, timing.ms, timing.speedup_vs_serial,
        );
    }
    println!(
        "cross-check {}  simulated speedup {:.2}x  energy reduction {:.2}x",
        if report.cross_check_consistent {
            "consistent"
        } else {
            "INCONSISTENT"
        },
        report.simulated_speedup,
        report.simulated_energy_reduction,
    );
    // Write the report before asserting, so a failing cross-check still
    // leaves the per-layer evidence on disk (and in the CI artifact).
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("BENCH_network.json is writable");
    println!("wrote {out_path}");
    assert!(
        report.cross_check_consistent,
        "machine activity diverged from the analytic model"
    );
    assert!(
        plan_ratio <= 1.5,
        "compiled plans hold {plan_ratio:.3}x the raw weights (limit 1.5x)"
    );
}
