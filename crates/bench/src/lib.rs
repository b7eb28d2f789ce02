//! Shared helpers for the GANAX benchmark harness.
//!
//! The `figures` binary and the Criterion benches both need the same
//! machinery: run every Table I GAN on both accelerator models and format the
//! results the way the paper's tables and figures report them. This crate
//! collects that machinery so the harness entry points stay small.
//!
//! ```
//! // Figure 1: fraction of transposed-convolution MACs that are
//! // inconsequential (multiply-by-zero), per GAN plus the zoo average.
//! let (rows, average) = ganax_bench::figure1();
//! assert_eq!(rows.len(), 6);
//! assert!(average > 0.5 && average < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use ganax::compare::{compare_all, geometric_mean, ModelComparison};
use ganax::serve::{ModelHandle, ServeConfig, Server};
use ganax::sweep::MachineSweepCell;
use ganax::{
    CompiledNetwork, DesignSummary, FaultKind, FaultSpec, GanaxConfig, GanaxMachine,
    InferenceEngine, IntegrityMode, NetworkWeights, SweepCell, SweepSpec,
};
use ganax_energy::EnergyCategory;
use ganax_models::{zoo, Layer, LayerOp, Network};
use ganax_tensor::{Shape, Tensor};
use serde::Serialize;

/// One row of the Figure 1 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Row {
    /// GAN name.
    pub model: String,
    /// Fraction of transposed-convolution MACs that are inconsequential.
    pub inconsequential_fraction: f64,
}

/// One row of the Figure 8 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Row {
    /// GAN name.
    pub model: String,
    /// Generator speedup of GANAX over Eyeriss (Figure 8a).
    pub speedup: f64,
    /// Generator energy reduction of GANAX over Eyeriss (Figure 8b).
    pub energy_reduction: f64,
}

/// One row of the Figure 9 reproduction (normalized to the Eyeriss total).
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Row {
    /// GAN name.
    pub model: String,
    /// Eyeriss discriminator share.
    pub eyeriss_discriminative: f64,
    /// Eyeriss generator share.
    pub eyeriss_generative: f64,
    /// GANAX discriminator share.
    pub ganax_discriminative: f64,
    /// GANAX generator share.
    pub ganax_generative: f64,
}

/// One row of the Figure 10 reproduction (normalized to the Eyeriss total).
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Row {
    /// GAN name.
    pub model: String,
    /// Unit label (PE, RegF, NoC, GBuf, DRAM).
    pub unit: &'static str,
    /// Eyeriss share of its own total.
    pub eyeriss: f64,
    /// GANAX share of the Eyeriss total.
    pub ganax: f64,
}

/// One row of the Figure 11 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Row {
    /// GAN name.
    pub model: String,
    /// Eyeriss average PE utilization on the generator.
    pub eyeriss_utilization: f64,
    /// GANAX average PE utilization on the generator.
    pub ganax_utilization: f64,
}

/// Runs the full zoo comparison once (shared by several figures).
pub fn all_comparisons() -> Vec<ModelComparison> {
    compare_all()
}

/// Figure 1 data: per-model inconsequential-MAC fractions plus the average.
pub fn figure1() -> (Vec<Fig1Row>, f64) {
    let rows: Vec<Fig1Row> = zoo::all_models()
        .iter()
        .map(|gan| Fig1Row {
            model: gan.name.clone(),
            inconsequential_fraction: gan.generator.op_stats().tconv_inconsequential_fraction(),
        })
        .collect();
    let average = rows.iter().map(|r| r.inconsequential_fraction).sum::<f64>() / rows.len() as f64;
    (rows, average)
}

/// Figure 8 data plus the geometric means.
pub fn figure8(comparisons: &[ModelComparison]) -> (Vec<Fig8Row>, f64, f64) {
    let rows: Vec<Fig8Row> = comparisons
        .iter()
        .map(|c| Fig8Row {
            model: c.gan_name.clone(),
            speedup: c.generator_speedup(),
            energy_reduction: c.generator_energy_reduction(),
        })
        .collect();
    let speedup_geomean = geometric_mean(rows.iter().map(|r| r.speedup));
    let energy_geomean = geometric_mean(rows.iter().map(|r| r.energy_reduction));
    (rows, speedup_geomean, energy_geomean)
}

/// Figure 9 data: runtime (`energy = false`) or energy (`energy = true`)
/// breakdown between discriminative and generative models.
pub fn figure9(comparisons: &[ModelComparison], energy: bool) -> Vec<Fig9Row> {
    comparisons
        .iter()
        .map(|c| {
            let ((e_disc, e_gen), (g_disc, g_gen)) = if energy {
                c.energy_breakdown()
            } else {
                c.runtime_breakdown()
            };
            Fig9Row {
                model: c.gan_name.clone(),
                eyeriss_discriminative: e_disc,
                eyeriss_generative: e_gen,
                ganax_discriminative: g_disc,
                ganax_generative: g_gen,
            }
        })
        .collect()
}

/// Figure 10 data: per-unit energy of the generators, normalized to Eyeriss.
pub fn figure10(comparisons: &[ModelComparison]) -> Vec<Fig10Row> {
    let mut rows = Vec::new();
    for c in comparisons {
        for (category, eyeriss, ganax) in c.generator_unit_energy() {
            rows.push(Fig10Row {
                model: c.gan_name.clone(),
                unit: category.label(),
                eyeriss,
                ganax,
            });
        }
    }
    rows
}

/// Figure 11 data: generator PE utilization on both accelerators.
pub fn figure11(comparisons: &[ModelComparison]) -> Vec<Fig11Row> {
    comparisons
        .iter()
        .map(|c| {
            let (eyeriss, ganax) = c.generator_utilization();
            Fig11Row {
                model: c.gan_name.clone(),
                eyeriss_utilization: eyeriss,
                ganax_utilization: ganax,
            }
        })
        .collect()
}

/// The worker-thread counts a bench sweeps.
///
/// An explicit `--threads a,b,c` spec, or the default `[1, 2, 4,
/// available_parallelism]` when none (or a blank one) is given. The list is
/// sorted and deduplicated. Forcing counts above the host's parallelism is
/// deliberate — the schedulers are thread-count invariant, so oversubscribed
/// sweeps still measure the sharding machinery even on single-core runners
/// (where the old benches silently collapsed every row to `threads == 1`).
///
/// # Panics
/// Panics on an explicitly provided but unparseable spec (e.g. `--threads
/// l6`) instead of silently sweeping the default counts; a blank spec falls
/// back to the default.
pub fn bench_thread_counts(arg: Option<&str>) -> Vec<usize> {
    let mut counts: Vec<usize> = match arg.map(str::trim).filter(|s| !s.is_empty()) {
        Some(list) => list
            .split(',')
            .map(|s| match s.trim().parse::<usize>() {
                Ok(n) if n > 0 => n,
                // An explicitly requested sweep must not silently fall back
                // to the default: a typo (`l6` for 16) would otherwise
                // record a sweep the user never asked for.
                _ => panic!("invalid thread count `{s}` in `{list}`: expected positive integers separated by commas"),
            })
            .collect(),
        None => vec![1, 2, 4, available_parallelism()],
    };
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The value following a `--flag value` pair in a bench binary's argument
/// list (`None` when the flag is absent or dangling).
///
/// Every bench binary shares this tiny CLI grammar; parsing it here keeps
/// the binaries from each hand-rolling (and subtly diverging on) the same
/// position-scan.
pub fn cli_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The output path of a bench report: `--out path` or the bench's default.
pub fn cli_out_path(args: &[String], default: &str) -> String {
    cli_value(args, "--out").unwrap_or(default).to_string()
}

/// The thread-count sweep of a bench invocation: `--threads a,b,c` or the
/// default — the CLI front half of [`bench_thread_counts`] (see there for
/// panics).
pub fn cli_thread_counts(args: &[String]) -> Vec<usize> {
    bench_thread_counts(cli_value(args, "--threads"))
}

/// The Cargo build profile of the running binary (`release` or `debug`).
pub fn build_profile() -> String {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
    .to_string()
}

/// The host's available parallelism (1 when it cannot be determined).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One point of a thread-count sweep: wall-clock of the same workload at one
/// worker count (results are bit-identical across the sweep; only time moves).
#[derive(Debug, Clone, Serialize)]
pub struct ThreadTiming {
    /// Worker threads requested.
    pub threads: usize,
    /// Wall-clock milliseconds at this count.
    pub ms: f64,
    /// Speedup over the independently timed serial fast path.
    pub speedup_vs_serial: f64,
}

/// One row of the cycle-level machine performance benchmark
/// (`BENCH_machine.json`): wall-clock time of the seed single-step serial
/// path versus the burst-stepped fast path (serial and threaded) on one layer
/// geometry.
#[derive(Debug, Clone, Serialize)]
pub struct MachineBenchRow {
    /// Layer name.
    pub layer: String,
    /// Human-readable geometry (`in → out, kernel/stride`).
    pub geometry: String,
    /// Work units the machine executed.
    pub work_units: u64,
    /// Busy PE cycles the run simulated (equals consequential MACs).
    pub busy_pe_cycles: u64,
    /// Wall-clock milliseconds of the seed single-step serial path.
    pub reference_ms: f64,
    /// Wall-clock milliseconds of the burst-stepped serial fast path.
    pub fast_serial_ms: f64,
    /// Wall-clock milliseconds of the threaded fast path at the best swept
    /// thread count.
    pub threaded_ms: f64,
    /// Worker threads used for `threaded_ms` (the best-performing swept
    /// count).
    pub threads: usize,
    /// The full thread-count sweep behind `threaded_ms` (see
    /// [`bench_thread_counts`]): every swept count with its wall-clock and
    /// its speedup over the sweep's serial point.
    pub thread_sweep: Vec<ThreadTiming>,
    /// Simulated busy cycles per wall-clock second on the serial fast path.
    pub fast_serial_cycles_per_sec: f64,
    /// `reference_ms / fast_serial_ms`.
    pub speedup_fast_serial: f64,
    /// `reference_ms / threaded_ms`.
    pub speedup_threaded: f64,
}

/// A deterministic pseudo-random tensor (xorshift over the flat index) shared
/// by the machine benches and the scale tests — an alias for
/// [`Tensor::deterministic`], the workspace's single source of reproducible
/// operands.
pub fn deterministic_tensor(shape: Shape, seed: u64) -> Tensor {
    Tensor::deterministic(shape, seed)
}

/// A deterministic pseudo-random tensor of *small integers* (stored as
/// `f32`): values drawn from `{-1, 0, +1}` with roughly one non-zero in four.
///
/// Small-integer operands are the conformance suite's exactness trick: every
/// product is `±1` or `0` and every partial sum stays a small integer, so all
/// f32 accumulation orders produce *bit-identical* results as long as
/// magnitudes stay below 2^24 — which the sparse ternary distribution
/// guarantees for every reduced Table I generator.
pub fn small_integer_tensor(shape: Shape, seed: u64) -> Tensor {
    let mut state = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(0xD1B54A32D192ED03);
    let mut t = Tensor::zeros(shape);
    for v in t.data_mut() {
        *v = match splitmix64(&mut state) % 8 {
            0 => -1.0f32,
            1 => 1.0,
            _ => 0.0,
        };
    }
    t
}

/// One step of the splitmix64 stream behind the deterministic integer
/// generators: advances `state` and returns the mixed output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic float weights (and no biases) for every layer of a network,
/// shaped per [`NetworkWeights::expected_shape`]. Used by the network benches.
pub fn network_weights(network: &Network, seed: u64) -> NetworkWeights {
    let tensors = network
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| deterministic_tensor(NetworkWeights::expected_shape(l), seed + i as u64))
        .collect();
    NetworkWeights::new(network, tensors).expect("weights generated from the network's own shapes")
}

/// Deterministic *small-integer* weights plus integer per-channel biases for
/// every layer of a network — the operand set of the bit-exact conformance
/// suite (see [`small_integer_tensor`]).
pub fn conformance_weights(network: &Network, seed: u64) -> NetworkWeights {
    let tensors: Vec<Tensor> = network
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| small_integer_tensor(NetworkWeights::expected_shape(l), seed + i as u64))
        .collect();
    let mut weights = NetworkWeights::new(network, tensors)
        .expect("weights generated from the network's own shapes");
    for (i, layer) in network.layers().iter().enumerate() {
        let bias = small_integer_tensor(
            Shape::new_2d(layer.output.channels, 1, 1),
            seed + 1000 + i as u64,
        );
        weights = weights
            .with_bias(i, bias.data().to_vec())
            .expect("bias sized from the layer's own channels");
    }
    weights
}

/// Deterministic small-integer input matching a network's input shape.
pub fn conformance_input(network: &Network, seed: u64) -> Tensor {
    small_integer_tensor(network.input_shape(), seed)
}

/// Random input and weight tensors matching one conv/tconv layer.
pub fn layer_tensors(layer: &Layer, seed: u64) -> (Tensor, Tensor) {
    let params = layer.op.conv_params().expect("conv/tconv layer");
    let input = deterministic_tensor(layer.input, seed);
    let weights = deterministic_tensor(
        Shape::filter(
            layer.output.channels,
            layer.input.channels,
            params.kernel.0,
            params.kernel.1,
            params.kernel.2,
        ),
        seed + 1,
    );
    (input, weights)
}

/// The geometries the machine bench covers: the paper's Figure 4 example, a
/// mid-size multi-channel transposed convolution, and a full-size Table I
/// DCGAN generator layer (`tconv3`, 256 → 128 channels). With `quick`, the
/// DCGAN layer is swapped for a half-width stand-in so CI smoke runs stay
/// short.
pub fn machine_bench_layers(quick: bool) -> Vec<Layer> {
    use ganax_models::Activation;
    use ganax_tensor::ConvParams;

    let tconv3 = zoo::dcgan()
        .generator
        .layers()
        .iter()
        .find(|l| l.name == "tconv3")
        .expect("DCGAN generator has tconv3")
        .clone();
    let dcgan_kernel = tconv3.op.conv_params().expect("tconv3 is a tconv");
    let mut layers = vec![
        Layer::conv(
            "paper-example",
            Shape::new_2d(1, 4, 4),
            1,
            ConvParams::transposed_2d(5, 2, 2),
            Activation::None,
        )
        .expect("paper example geometry is valid"),
        Layer::conv(
            "tconv-mid",
            Shape::new_2d(16, 8, 8),
            16,
            dcgan_kernel,
            Activation::None,
        )
        .expect("mid geometry is valid"),
    ];
    if quick {
        layers.push(
            Layer::conv(
                "dcgan-tconv3-half",
                Shape::new_2d(tconv3.input.channels / 2, 16, 16),
                tconv3.output.channels / 2,
                dcgan_kernel,
                Activation::None,
            )
            .expect("half-width tconv3 geometry is valid"),
        );
    } else {
        layers.push(tconv3);
    }
    layers
}

/// The spread of repeated wall-clock timings, in milliseconds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MsSpread {
    /// Timed runs.
    pub samples: usize,
    /// Fastest run.
    pub min: f64,
    /// Median run (the mean of the middle two for an even count).
    pub median: f64,
    /// Slowest run.
    pub max: f64,
}

impl MsSpread {
    /// The spread of `times` (at least one), sorting them in place.
    fn of(times: &mut [f64]) -> Self {
        times.sort_by(f64::total_cmp);
        let n = times.len();
        MsSpread {
            samples: n,
            min: times[0],
            median: (times[(n - 1) / 2] + times[n / 2]) / 2.0,
            max: times[n - 1],
        }
    }
}

/// Runs `f` `samples` times (at least once) and records the spread of its
/// wall-clock times together with the last result.
fn time_spread<T>(samples: usize, mut f: impl FnMut() -> T) -> (T, MsSpread) {
    let mut times = Vec::with_capacity(samples.max(1));
    let mut value = None;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        value = Some(f());
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (
        value.expect("at least one sample"),
        MsSpread::of(&mut times),
    )
}

/// Runs `f` `samples` times and keeps the fastest wall-clock time (the
/// criterion-style noise floor) together with the last result.
fn time_best_of<T>(samples: usize, f: impl FnMut() -> T) -> (T, f64) {
    let (value, spread) = time_spread(samples, f);
    (value, spread.min)
}

/// Measures the seed single-step serial path against the burst-stepped fast
/// paths on every [`machine_bench_layers`] geometry, sweeping the threaded
/// scheduler over `thread_counts` (see [`bench_thread_counts`]). Every path
/// is timed best-of-5 so noisy samples cannot skew the recorded speedups,
/// and every swept run is asserted bit-identical to the reference before any
/// timing is reported.
pub fn machine_bench(quick: bool, thread_counts: &[usize]) -> Vec<MachineBenchRow> {
    let machine = GanaxMachine::paper();
    let samples = 5;
    machine_bench_layers(quick)
        .into_iter()
        .enumerate()
        .map(|(i, layer)| {
            let (input, weights) = layer_tensors(&layer, 97 + i as u64);
            let (reference, reference_ms) = time_best_of(samples, || {
                machine
                    .execute_layer_reference(&layer, &input, &weights)
                    .expect("reference path executes the bench layer")
            });
            let (fast, fast_serial_ms) = time_best_of(samples, || {
                machine
                    .execute_layer_threaded(&layer, &input, &weights, 1)
                    .expect("fast path executes the bench layer")
            });
            assert_eq!(reference, fast, "fast path diverged from the reference");
            let thread_sweep: Vec<ThreadTiming> = thread_counts
                .iter()
                .map(|&threads| {
                    let (run, ms) = if threads == 1 {
                        (fast.clone(), fast_serial_ms)
                    } else {
                        time_best_of(samples, || {
                            machine
                                .execute_layer_threaded(&layer, &input, &weights, threads)
                                .expect("threaded path executes the bench layer")
                        })
                    };
                    assert_eq!(reference, run, "{threads}-thread run diverged");
                    ThreadTiming {
                        threads,
                        ms,
                        speedup_vs_serial: fast_serial_ms / ms,
                    }
                })
                .collect();
            // The headline threaded numbers come from the best-performing
            // swept count (serial included, so a single-core host records an
            // honest 1.0x instead of scheduler-overhead noise).
            let best = thread_sweep
                .iter()
                .min_by(|a, b| a.ms.total_cmp(&b.ms))
                .expect("thread sweep is never empty");
            let (threads, threaded_ms) = (best.threads, best.ms);
            let params = layer.op.conv_params().expect("conv/tconv layer");
            MachineBenchRow {
                layer: layer.name.clone(),
                geometry: format!(
                    "{} -> {}, {}x{}/s{}",
                    layer.input, layer.output, params.kernel.1, params.kernel.2, params.stride.1
                ),
                work_units: fast.work_units,
                busy_pe_cycles: fast.busy_pe_cycles,
                reference_ms,
                fast_serial_ms,
                threaded_ms,
                threads,
                thread_sweep,
                fast_serial_cycles_per_sec: fast.busy_pe_cycles as f64 / (fast_serial_ms / 1e3),
                speedup_fast_serial: reference_ms / fast_serial_ms,
                speedup_threaded: reference_ms / threaded_ms,
            }
        })
        .collect()
}

/// The network the serving bench measures, with its deterministic weights:
/// the DCGAN generator at full size, or channel-capped at 64 with `quick`
/// for CI smoke runs.
pub fn bench_generator(quick: bool) -> (Network, NetworkWeights) {
    let generator = zoo::dcgan().generator;
    let network = if quick {
        generator
            .reduced(64)
            .expect("DCGAN generator reduces cleanly")
    } else {
        generator
    };
    let weights = network_weights(&network, 2027);
    (network, weights)
}

/// `n` deterministic inputs for `network`; input `i` is seeded `seed + 31 i`.
fn bench_inputs(network: &Network, seed: u64, n: usize) -> Vec<Tensor> {
    (0..n as u64)
        .map(|i| deterministic_tensor(network.input_shape(), seed + 31 * i))
        .collect()
}

/// A fresh `pool_threads`-worker engine over `machine` with `network`
/// compiled on it.
fn compiled_engine(
    machine: GanaxMachine,
    network: &Network,
    weights: &NetworkWeights,
    pool_threads: usize,
) -> (InferenceEngine, CompiledNetwork) {
    let engine = InferenceEngine::new(machine, pool_threads);
    let compiled = engine.compile(network, weights).expect("network compiles");
    (engine, compiled)
}

/// Runs each input once on `engine`: the outputs served responses must
/// reproduce, and the mean wall-clock seconds of one run.
fn run_each(
    engine: &InferenceEngine,
    compiled: &CompiledNetwork,
    inputs: &[Tensor],
) -> (Vec<Tensor>, f64) {
    let start = Instant::now();
    let outputs = inputs
        .iter()
        .map(|input| {
            engine
                .execute(compiled, input)
                .expect("baseline executes")
                .output
        })
        .collect();
    (outputs, start.elapsed().as_secs_f64() / inputs.len() as f64)
}

/// A [`Server`] under `config` over a fresh `pool_threads`-worker paper
/// machine that injects `fault`, with `network` registered on it.
fn served_model(
    fault: FaultSpec,
    config: ServeConfig,
    network: &Network,
    weights: &NetworkWeights,
    pool_threads: usize,
) -> (Server, ModelHandle) {
    let machine = GanaxMachine::new(
        GanaxConfig::paper()
            .with_fault(fault)
            .expect("fault spec is valid"),
    );
    let server =
        Server::new(InferenceEngine::new(machine, pool_threads), config).expect("server builds");
    let model = server
        .register(network, weights)
        .expect("the network registers");
    (server, model)
}

/// Warm runs timed per pool size in `thread_rows`.
const THREAD_ROW_SAMPLES: usize = 5;

/// One warm-path thread-scaling row of `BENCH_serve.json`: single-inference
/// latency on a cached [`ganax::CompiledNetwork`] at one pool size.
#[derive(Debug, Clone, Serialize)]
pub struct ServeThreadRow {
    /// Pool workers in the engine.
    pub threads: usize,
    /// Warm single-inference wall-clock milliseconds over
    /// `THREAD_ROW_SAMPLES` runs on one pool.
    pub warm_ms: MsSpread,
    /// Warm single-inference throughput at the median (`1e3 /
    /// warm_ms.median`).
    pub inferences_per_sec: f64,
}

/// One batched-execution row of `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBatchRow {
    /// Inferences in the batch.
    pub batch: usize,
    /// Pool workers in the engine.
    pub threads: usize,
    /// Batch wall-clock milliseconds.
    pub wall_ms: f64,
    /// Batch throughput in inferences per second.
    pub inferences_per_sec: f64,
    /// Batch throughput over the **same pool's** warm serial throughput
    /// (one inference at a time on the batch pool): > 1.0 means a server
    /// holding this pool gains by batching instead of serving sequentially.
    pub speedup_vs_warm_serial: f64,
    /// Batch throughput over the **best** warm serial throughput across the
    /// swept pool sizes (`thread_rows`) — the honest cross-configuration
    /// comparison; on a single-core host this can dip below 1.0 even when
    /// same-pool batching wins.
    pub speedup_vs_best_serial: f64,
}

/// One offered-load row of `BENCH_serve.json`: a [`ganax::serve::Server`]
/// under a seeded Poisson arrival schedule at one arrival rate, in one
/// dispatch mode.
#[derive(Debug, Clone, Serialize)]
pub struct OfferedLoadRow {
    /// Dispatch mode: `"batched"` (wave coalescing, `max_batch` 8) or
    /// `"serial"` (`max_batch` 1 — per-request dispatch on the same pool).
    pub mode: String,
    /// Pool workers behind the server.
    pub threads: usize,
    /// Offered load in requests per second (the Poisson arrival rate).
    pub arrival_rate_per_sec: f64,
    /// Offered load relative to the pool's measured serial capacity.
    pub load_factor: f64,
    /// Requests in the schedule (all completed — asserted).
    pub requests: usize,
    /// Waves the server dispatched.
    pub waves: u64,
    /// Mean requests per wave (1.0 in serial mode).
    pub mean_wave: f64,
    /// Largest wave dispatched.
    pub max_wave: usize,
    /// Median end-to-end latency (submit → resolve) in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile end-to-end latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Completed requests per second, first submission to last resolution.
    pub throughput_per_sec: f64,
    /// Whether every response matched the engine baseline bit for bit
    /// (asserted, so a recorded row always says `true`).
    pub bit_identical: bool,
}

/// One fault-tolerance row of `BENCH_serve.json`: the async server serving a
/// fixed burst of requests while the machine injects **maskable** faults
/// (NaN poison, worker panics, worker stalls) at one seeded rate. Recovery
/// is exercised end to end — retried waves, respawned workers, requeued
/// shards — and every response is asserted bit-identical to the fault-free
/// baseline before the row is recorded.
#[derive(Debug, Clone, Serialize)]
pub struct FaultToleranceRow {
    /// Which schedule the row served: `"clean"` (no fault armed, the
    /// baseline every other row is normalized against), `"armed-idle"` (the
    /// maskable kinds armed at the highest swept rate but targeted at a
    /// layer past the network, so nothing fires: its `throughput_vs_clean`
    /// is the armed injector's tax alone) or `"maskable"` (faults fire and
    /// are recovered from).
    pub schedule: String,
    /// Injection rate in faults per million candidate sites (0 on the clean
    /// row).
    pub rate_ppm: u32,
    /// Requests served (all completed — asserted; masked faults never
    /// surface as failures).
    pub requests: usize,
    /// Wave retries the server spent absorbing detected faults.
    pub retries: u64,
    /// Workers the engine supervisor respawned after injected panics.
    pub respawns: u64,
    /// Shards requeued onto the pool after worker deaths.
    pub requeued_shards: u64,
    /// Median end-to-end latency (submit → resolve) in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile end-to-end latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Completed requests per second, first submission to last resolution.
    pub throughput_per_sec: f64,
    /// Throughput relative to the clean row — the degradation curve
    /// (1.0 at rate 0, falling as the fault rate rises).
    pub throughput_vs_clean: f64,
    /// p99 latency relative to the clean row (1.0 at rate 0, rising with
    /// the fault rate).
    pub p99_vs_clean: f64,
    /// Whether every response matched the fault-free baseline bit for bit
    /// (asserted, so a recorded row always says `true`).
    pub bit_identical: bool,
}

/// The serving benchmark report behind `BENCH_serve.json`: cold (fresh pool,
/// compile and first execute) versus warm (cached-plan engine)
/// single-inference latency, warm thread scaling, batched throughput, and an
/// offered-load sweep of the async [`ganax::serve::Server`] — all on the
/// DCGAN generator, all bit-identical to the cold run (asserted before any
/// number is reported).
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchReport {
    /// Benchmark family name.
    pub bench: String,
    /// Whether the quick (channel-capped) variant was used.
    pub quick: bool,
    /// Network served.
    pub network: String,
    /// Pool workers behind the headline cold/warm numbers
    /// (`available_parallelism`).
    pub threads: usize,
    /// Logical CPUs of the host the report was measured on.
    pub nproc: usize,
    /// Cargo build profile of the bench binary (`release` or `debug`).
    pub profile: String,
    /// Cold request latency in milliseconds (best of 2): one
    /// [`GanaxMachine::execute_network_threaded`] call — fresh pool spawn,
    /// compile and first execute, what one request costs without a
    /// compiled artifact.
    pub cold_ms: f64,
    /// Planning (compile) milliseconds inside the cold request.
    pub cold_plan_ms: f64,
    /// One-time [`ganax::CompiledNetwork::compile`] milliseconds.
    pub compile_ms: f64,
    /// Heap bytes of the compiled layer plans
    /// ([`CompiledNetwork::plan_bytes`](ganax::CompiledNetwork::plan_bytes)).
    pub plan_bytes: usize,
    /// Bytes of the raw weight tensors of the PE-array layers the plans
    /// cover; the `bench_serve` binary asserts `plan_bytes` stays within
    /// 1.5× of it.
    pub raw_weight_bytes: usize,
    /// Warm request latency in milliseconds (best of 3): cached plans,
    /// persistent pool, PEs and buffers reset in place.
    pub warm_ms: f64,
    /// Planning milliseconds during warm runs — asserted to be exactly zero
    /// (the plan cache was hit).
    pub warm_plan_ms: f64,
    /// `cold_ms / warm_ms`.
    pub speedup_warm_vs_cold: f64,
    /// Warm single-inference throughput at the headline pool size.
    pub warm_inferences_per_sec: f64,
    /// Busy PE cycles of one inference.
    pub busy_pe_cycles: u64,
    /// Simulated busy cycles per wall-clock second on the warm path.
    pub warm_cycles_per_sec: f64,
    /// Whether every warm, swept and batched run reproduced the cold run bit
    /// for bit (the warm request also in busy cycles and counters) —
    /// asserted, so a recorded report always says `true`.
    pub bit_identical: bool,
    /// Warm latency across the swept pool sizes.
    pub thread_rows: Vec<ServeThreadRow>,
    /// Batched throughput rows (pool of `max(4, available)` workers).
    pub batch_rows: Vec<ServeBatchRow>,
    /// Offered-load sweep: `"batched"` and `"serial"` dispatch at each
    /// arrival rate, on same-sized pools. Each row is one short run, so the
    /// two modes' throughputs at one rate are not a stable ratio.
    pub offered_load: Vec<OfferedLoadRow>,
    /// Fault-tolerance sweep (`--faults`): throughput and tail-latency
    /// degradation versus seeded fault rate, with recovery activity per
    /// row. Empty when the sweep was not requested.
    pub fault_tolerance: Vec<FaultToleranceRow>,
    /// Computation-integrity report: the ABFT verification tax on the warm
    /// path, and — with `--faults` — the silent-corruption sweep.
    pub integrity: IntegrityReport,
}

/// One silent-corruption row of the `integrity` section: a fresh
/// `VerifyAndHeal` [`Server`] serving one request while a seeded, sparse,
/// layer-targeted finite-bit-flip schedule corrupts operand or weight
/// streams. Every consequential flip must be flagged by the ABFT checksums
/// and healed by surgical re-execution: the response is asserted
/// bit-identical to the clean baseline and the undetected counter asserted
/// zero before the row is recorded — zero silent escapes, end to end.
#[derive(Debug, Clone, Serialize)]
pub struct SilentCorruptionRow {
    /// Flip kind: `"input-flip"` (gathered operand streams) or
    /// `"weight-flip"` (staged weight streams, shared across rows).
    pub kind: String,
    /// Seed of the flip schedule (empirically chosen — see
    /// [`integrity_bench`]).
    pub seed: u64,
    /// Machine layer index the schedule targets.
    pub layer: i64,
    /// Per-site firing rate in parts per million.
    pub rate_ppm: u32,
    /// Bit flips actually injected while serving the request.
    pub injected: u64,
    /// Checksum verifications performed.
    pub checks: u64,
    /// Row-slice checksum violations flagged (detections).
    pub detected: u64,
    /// Output-row slices re-executed and healed back to the clean result.
    pub rows_healed: u64,
    /// Corruption that escaped the checksums and was caught only by the
    /// downstream finite-value screen — asserted zero.
    pub undetected: u64,
    /// Whether the served response matched the fault-free baseline bit for
    /// bit (asserted, so a recorded row always says `true`).
    pub bit_identical: bool,
}

/// The `integrity` section of `BENCH_serve.json`: what ABFT verification
/// costs on the warm path, and what it catches under seeded silent
/// corruption.
#[derive(Debug, Clone, Serialize)]
pub struct IntegrityReport {
    /// Warm request latency with integrity checking off, in milliseconds
    /// (best of 3), measured on a fresh engine immediately before the
    /// `Verify`-mode twin — a paired measurement, so host-load drift over
    /// the bench run cannot masquerade as checksum cost.
    pub off_warm_ms: f64,
    /// Warm request latency in `Verify` mode, in milliseconds (best of 3),
    /// on an identical fresh engine.
    pub verify_warm_ms: f64,
    /// `verify_warm_ms / off_warm_ms - 1.0`: the verification tax. Asserted
    /// ≤ 0.15 on the full-size network (quick timings on shared CI hosts
    /// are too jittery to gate).
    pub verify_overhead: f64,
    /// Checksum verifications one `Verify`-mode inference performs.
    pub checks_per_inference: u64,
    /// Silent-corruption sweep (`--faults`): seeded finite-bit-flip
    /// schedules served under `VerifyAndHeal`, each asserted to end
    /// bit-identical with zero undetected escapes. Empty when the sweep was
    /// not requested.
    pub corruption: Vec<SilentCorruptionRow>,
    /// Total element bit flips injected across the sweep.
    pub flips_injected: u64,
    /// Total output-row slices whose checksum was flagged across the sweep.
    /// One flagged slice may hold several flips, and a flip that perturbed
    /// no output bit flags nothing, so this count is not a share of
    /// `flips_injected`.
    pub slices_flagged: u64,
}

/// Runs the serving benchmark on the DCGAN generator (channel-capped at 64
/// with `quick`): cold one-shot requests, warm engine requests, a warm
/// thread-scaling sweep over `thread_counts`, and batched execution of
/// `batch_size` inferences on a `max(4, available)`-worker pool.
///
/// Every warm run is asserted bit-identical (output, busy cycles, counters)
/// to the cold run before its timing is reported, and warm runs are
/// asserted to perform zero planning.
///
/// With `faults`, the report additionally carries the fault-tolerance sweep
/// ([`fault_tolerance_bench`]): the async server under seeded maskable
/// fault schedules at increasing rates, recording the throughput and p99
/// degradation curve.
///
/// The `integrity` section ([`integrity_bench`]) always records the ABFT
/// verification tax; with `faults` it additionally runs the
/// silent-corruption sweep — seeded finite-bit-flip schedules served under
/// `VerifyAndHeal`, asserted to end bit-identical with zero undetected
/// escapes.
pub fn serve_bench(
    quick: bool,
    thread_counts: &[usize],
    batch_size: usize,
    faults: bool,
) -> ServeBenchReport {
    let (network, weights) = bench_generator(quick);
    let input = deterministic_tensor(network.input_shape(), 4099);
    let machine = GanaxMachine::paper();
    let threads = available_parallelism();

    // Cold: what one request costs without a compiled artifact — a fresh
    // pool, compile and first execute.
    let (cold, cold_ms) = time_best_of(2, || {
        machine
            .execute_network_threaded(&network, &input, &weights, threads)
            .expect("one-shot path executes the generator")
    });

    // Warm: compile once, serve from the cached artifact.
    let engine = InferenceEngine::new(machine, threads);
    let compile_start = Instant::now();
    let compiled = engine
        .compile(&network, &weights)
        .expect("network compiles");
    let compile_ms = compile_start.elapsed().as_secs_f64() * 1e3;
    let raw_weight_bytes = network
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| !matches!(l.op, LayerOp::Projection))
        .map(|(i, _)| weights.weight(i).len() * std::mem::size_of::<f32>())
        .sum();
    let mut warm_plan_ms = 0.0f64;
    let (warm, warm_ms) = time_best_of(3, || {
        let run = engine
            .execute(&compiled, &input)
            .expect("warm request executes");
        warm_plan_ms = warm_plan_ms.max(run.plan_seconds * 1e3);
        run
    });
    assert_eq!(
        warm_plan_ms, 0.0,
        "warm runs must not plan: the plan cache was missed"
    );
    // The planning work must actually exist and land at compile time — this
    // keeps the zero-warm-planning gate above from being satisfiable by a
    // path that simply stopped accounting for planning altogether.
    assert!(
        compile_ms > 0.0 && cold.plan_seconds > 0.0,
        "planning cost vanished: compile {compile_ms} ms, cold plan {} s",
        cold.plan_seconds
    );
    assert_eq!(warm.output, cold.output, "warm output diverged from cold");
    assert_eq!(warm.total_counts(), cold.total_counts(), "counter drift");
    assert_eq!(warm.total_busy_pe_cycles(), cold.total_busy_pe_cycles());

    // Warm thread scaling: the artifact is engine-independent, so one
    // compile serves every pool size.
    let thread_rows: Vec<ServeThreadRow> = thread_counts
        .iter()
        .map(|&t| {
            let pool = InferenceEngine::new(machine, t);
            let (run, warm_ms) = time_spread(THREAD_ROW_SAMPLES, || {
                pool.execute(&compiled, &input).expect("swept run executes")
            });
            assert_eq!(run.output, cold.output, "{t}-thread output diverged");
            ServeThreadRow {
                threads: t,
                warm_ms,
                inferences_per_sec: 1e3 / warm_ms.median,
            }
        })
        .collect();

    // Batched throughput on a 4+-worker pool, versus the same pool serving
    // the batch one inference at a time.
    let batch_threads = threads.max(4);
    let batch_pool = InferenceEngine::new(machine, batch_threads);
    let (_, serial_ms) = time_best_of(2, || {
        batch_pool
            .execute(&compiled, &input)
            .expect("serial baseline executes")
    });
    let inputs = bench_inputs(&network, 4099, batch_size.max(1));
    let (singles, _) = run_each(&batch_pool, &compiled, &inputs);
    let (batch, batch_wall_ms) = time_best_of(1, || {
        batch_pool
            .execute_batch(&compiled, &inputs)
            .expect("batch executes")
    });
    for (b, single) in batch.outputs.iter().zip(&singles) {
        assert_eq!(b, single, "batched element diverged from serial execution");
    }
    let batch_throughput = inputs.len() as f64 / (batch_wall_ms / 1e3);
    let best_serial_throughput = thread_rows
        .iter()
        .map(|r| r.inferences_per_sec)
        .fold(1e3 / serial_ms, f64::max);
    let batch_rows = vec![ServeBatchRow {
        batch: inputs.len(),
        threads: batch_threads,
        wall_ms: batch_wall_ms,
        inferences_per_sec: batch_throughput,
        speedup_vs_warm_serial: batch_throughput / (1e3 / serial_ms),
        speedup_vs_best_serial: batch_throughput / best_serial_throughput,
    }];

    // Offered load: the async server under seeded Poisson arrivals —
    // batched wave dispatch versus serial per-request dispatch, on
    // same-sized pools.
    let offered_load = offered_load_sweep(&network, &weights, batch_threads);

    let fault_tolerance = if faults {
        fault_tolerance_bench(&network, &weights, batch_threads, quick)
    } else {
        Vec::new()
    };

    let integrity = integrity_bench(&network, &weights, &warm.output, threads, quick, faults);

    ServeBenchReport {
        bench: "serve".to_string(),
        quick,
        network: network.name().to_string(),
        threads,
        nproc: available_parallelism(),
        profile: build_profile(),
        cold_ms,
        cold_plan_ms: cold.plan_seconds * 1e3,
        compile_ms,
        plan_bytes: compiled.plan_bytes(),
        raw_weight_bytes,
        warm_ms,
        warm_plan_ms,
        speedup_warm_vs_cold: cold_ms / warm_ms,
        warm_inferences_per_sec: 1e3 / warm_ms,
        busy_pe_cycles: warm.total_busy_pe_cycles(),
        warm_cycles_per_sec: warm.total_busy_pe_cycles() as f64 / (warm_ms / 1e3),
        bit_identical: true,
        thread_rows,
        batch_rows,
        offered_load,
        fault_tolerance,
        integrity,
    }
}

/// The fault-injection rates of the fault-tolerance sweep, in faults per
/// million candidate sites. Rate 0 is the clean baseline row.
pub const FAULT_SWEEP_RATES_PPM: [u32; 3] = [0, 20_000, 100_000];

/// Runs the fault-tolerance sweep behind `bench_serve --faults`: for each
/// rate in [`FAULT_SWEEP_RATES_PPM`], a fresh async [`Server`] over a
/// machine injecting seeded **maskable** faults (NaN poison, worker panics,
/// worker stalls) serves the same burst of requests. The self-healing stack
/// absorbs every fault — retried waves run on a clean epoch, panicked
/// workers are respawned and their shards requeued — so every response is
/// asserted bit-identical to the fault-free baseline and zero requests fail;
/// the rows record what the absorption *costs* in throughput and p99.
///
/// After the clean row comes an `"armed-idle"` row: the top rate's
/// schedule targeted at a layer past the network, which fires nothing. Its
/// `throughput_vs_clean` is the armed injector's tax; the maskable rows'
/// further drop is the recovery cost.
pub fn fault_tolerance_bench(
    network: &Network,
    weights: &NetworkWeights,
    pool_threads: usize,
    quick: bool,
) -> Vec<FaultToleranceRow> {
    let n = if quick { 6 } else { 10 };
    let inputs = bench_inputs(network, 70_001, n);
    let expected = {
        let (probe, compiled) =
            compiled_engine(GanaxMachine::paper(), network, weights, pool_threads);
        run_each(&probe, &compiled, &inputs).0
    };

    let kinds = FaultKind::NAN_POISON | FaultKind::WORKER_PANIC | FaultKind::WORKER_STALL;
    // Each detected-NaN retry advances the armed-site frontier by at least
    // one layer, and a shard-requeue cap exhaustion can burn one more
    // attempt — budget generously so masked faults never become failures.
    let max_retries = network.layers().len() as u32 + 3;
    let spec_at = |rate_ppm: u32| FaultSpec::seeded(0xFA017 + rate_ppm as u64, rate_ppm, kinds);
    let (clean_rate, fault_rates) = FAULT_SWEEP_RATES_PPM
        .split_first()
        .expect("the sweep has a clean rate");
    // The armed-idle row is the top rate's schedule under a layer filter no
    // layer matches.
    let idle = FaultSpec {
        layer: network.layers().len() as i64,
        ..spec_at(fault_rates[fault_rates.len() - 1])
    };
    let mut schedules = vec![("clean", spec_at(*clean_rate)), ("armed-idle", idle)];
    schedules.extend(fault_rates.iter().map(|&rate| ("maskable", spec_at(rate))));
    let mut rows: Vec<FaultToleranceRow> = Vec::new();
    for (schedule, spec) in schedules {
        let rate_ppm = spec.rate_ppm;
        let config = ServeConfig {
            max_batch: 4,
            batch_window: Duration::from_millis(2),
            max_retries,
            retry_backoff: Duration::from_millis(1),
            ..ServeConfig::default()
        };
        let (server, model) = served_model(spec, config, network, weights, pool_threads);

        let start = Instant::now();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|input| server.submit(model, input.clone()).expect("queue has room"))
            .collect();
        let mut latencies_ms = Vec::with_capacity(n);
        for (ticket, expected) in tickets.into_iter().zip(&expected) {
            let response = ticket.wait().expect("masked faults never fail requests");
            assert_eq!(
                &response.output, expected,
                "a masked fault leaked into the output at {rate_ppm} ppm"
            );
            latencies_ms.push(response.latency_seconds * 1e3);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let stats = server.stats();
        assert_eq!(stats.failed, 0, "masked faults must not fail: {stats:?}");
        assert_eq!(stats.completed, n as u64);
        if schedule == "armed-idle" {
            assert_eq!(
                (stats.retries, stats.respawns),
                (0, 0),
                "an armed schedule that targets no layer must fire nothing"
            );
        }
        latencies_ms.sort_by(f64::total_cmp);
        let throughput = n as f64 / elapsed;
        let p99 = percentile(&latencies_ms, 0.99);
        let (clean_throughput, clean_p99) = rows
            .first()
            .map(|clean: &FaultToleranceRow| (clean.throughput_per_sec, clean.p99_latency_ms))
            .unwrap_or((throughput, p99));
        rows.push(FaultToleranceRow {
            schedule: schedule.to_string(),
            rate_ppm,
            requests: n,
            retries: stats.retries,
            respawns: stats.respawns,
            requeued_shards: stats.requeued_shards,
            p50_latency_ms: percentile(&latencies_ms, 0.50),
            p99_latency_ms: p99,
            throughput_per_sec: throughput,
            throughput_vs_clean: throughput / clean_throughput,
            p99_vs_clean: p99 / clean_p99,
            bit_identical: true,
        });
    }
    rows
}

/// The silent-corruption schedules of the `integrity` section, per
/// geometry: `(kind, seed, layer, rate_ppm)`. Each is a sparse,
/// layer-targeted finite-bit-flip schedule that was empirically verified
/// (see the seed-scan helper in `tests/integrity_scan.rs`) to inject at least
/// one flip, flag at least one checksum violation, and heal back to the
/// bit-exact clean output — a flip below the checksum tolerance that still
/// flipped an output bit would fail the sweep's bit-identity assertion, so
/// the hard-coded choice is re-proven on every run. The targeted layers are
/// DCGAN's `tconv1`/`tconv4` (machine layers 1 and 4), whose short
/// accumulation chains give the tightest tolerances.
const CORRUPTION_SCHEDULES_QUICK: [(u32, u64, i64, u32); 4] = [
    (FaultKind::INPUT_FLIP, 13, 1, 100),
    (FaultKind::INPUT_FLIP, 11, 4, 100),
    (FaultKind::WEIGHT_FLIP, 2, 4, 100),
    (FaultKind::WEIGHT_FLIP, 6, 4, 100),
];
/// Full-size counterpart of [`CORRUPTION_SCHEDULES_QUICK`]; the geometry
/// changes every site hash, so the seeds differ.
const CORRUPTION_SCHEDULES_FULL: [(u32, u64, i64, u32); 4] = [
    (FaultKind::INPUT_FLIP, 3, 4, 100),
    (FaultKind::INPUT_FLIP, 11, 4, 100),
    (FaultKind::WEIGHT_FLIP, 10, 4, 100),
    (FaultKind::INPUT_FLIP, 19, 4, 100),
];

/// Runs the `integrity` section of `BENCH_serve.json`.
///
/// Always measures the ABFT verification tax as a **paired** comparison:
/// fresh `Off`- and `Verify`-mode engines are timed back to back on the
/// same warm request (best of 3 each), so host-load drift over the long
/// bench run cannot masquerade as checksum cost. The verified output is
/// asserted bit-identical to `expected` and the ratio asserted ≤ 1.15 on
/// the full-size network.
///
/// With `faults`, additionally runs the silent-corruption sweep: for each
/// schedule in `CORRUPTION_SCHEDULES_QUICK` / `CORRUPTION_SCHEDULES_FULL`,
/// a fresh `VerifyAndHeal` [`Server`] over a flip-injecting machine serves
/// one request. Detected violations heal below the serve retry layer
/// (asserted: zero retries, zero failures); the response is asserted
/// bit-identical to the clean baseline and the undetected counter asserted
/// zero — no corruption reaches the client, loudly or silently.
pub fn integrity_bench(
    network: &Network,
    weights: &NetworkWeights,
    expected: &Tensor,
    pool_threads: usize,
    quick: bool,
    faults: bool,
) -> IntegrityReport {
    let input = deterministic_tensor(network.input_shape(), 4099);

    // The verification tax: identical fresh engines, timed back to back,
    // differing only in IntegrityMode.
    let (off_engine, off_compiled) =
        compiled_engine(GanaxMachine::paper(), network, weights, pool_threads);
    let (off_run, off_warm_ms) = time_best_of(3, || {
        off_engine
            .execute(&off_compiled, &input)
            .expect("off-mode warm request executes")
    });
    assert_eq!(&off_run.output, expected, "Off mode diverged from headline");
    drop(off_engine);

    let verify_machine = GanaxMachine::new(
        GanaxConfig::paper()
            .with_integrity(IntegrityMode::Verify)
            .expect("integrity mode is valid"),
    );
    let (verify_engine, compiled) = compiled_engine(verify_machine, network, weights, pool_threads);
    let (verify_run, verify_warm_ms) = time_best_of(3, || {
        verify_engine
            .execute(&compiled, &input)
            .expect("verified warm request executes")
    });
    assert_eq!(
        &verify_run.output, expected,
        "Verify mode changed the served output"
    );
    assert!(
        verify_engine.integrity_violations() == 0 && verify_engine.integrity_undetected() == 0,
        "clean verified runs must not flag violations"
    );
    let checks = verify_engine.integrity_checks();
    assert!(checks > 0, "Verify mode performed no checksum checks");
    let checks_per_inference = checks / 3;
    let verify_overhead = verify_warm_ms / off_warm_ms - 1.0;
    if !quick {
        assert!(
            verify_overhead <= 0.15,
            "verification tax {verify_overhead:.3} exceeds the 15% budget \
             (off {off_warm_ms:.1} ms, verify {verify_warm_ms:.1} ms)"
        );
    }
    drop(verify_engine);

    let schedules: &[(u32, u64, i64, u32)] = if quick {
        &CORRUPTION_SCHEDULES_QUICK
    } else {
        &CORRUPTION_SCHEDULES_FULL
    };
    let mut corruption = Vec::new();
    if faults {
        for &(kind, seed, layer, rate_ppm) in schedules {
            let spec = FaultSpec {
                layer,
                ..FaultSpec::seeded(seed, rate_ppm, kind)
            };
            let config = ServeConfig {
                integrity: IntegrityMode::VerifyAndHeal,
                ..ServeConfig::default()
            };
            let (server, model) = served_model(spec, config, network, weights, pool_threads);
            let response = server
                .submit(model, input.clone())
                .expect("queue has room")
                .wait()
                .expect("healed corruption must not fail the request");
            assert_eq!(
                &response.output, expected,
                "corruption escaped into the served response (seed {seed})"
            );
            let stats = server.stats();
            assert_eq!(stats.failed, 0, "no request may fail: {stats:?}");
            assert_eq!(
                stats.retries, 0,
                "healing must happen below the serve retry layer"
            );
            assert!(
                stats.rows_healed > 0,
                "schedule (seed {seed}) detected nothing — stale seed choice?"
            );
            assert_eq!(
                stats.integrity_undetected, 0,
                "corruption escaped the checksums (seed {seed})"
            );
            let injected = server.engine().injected_faults();
            assert!(injected > 0, "schedule (seed {seed}) is inert");
            corruption.push(SilentCorruptionRow {
                kind: if kind == FaultKind::INPUT_FLIP {
                    "input-flip".to_string()
                } else {
                    "weight-flip".to_string()
                },
                seed,
                layer,
                rate_ppm,
                injected,
                checks: stats.integrity_checks,
                detected: stats.integrity_violations,
                rows_healed: stats.rows_healed,
                undetected: stats.integrity_undetected,
                bit_identical: true,
            });
        }
    }

    IntegrityReport {
        off_warm_ms,
        verify_warm_ms,
        verify_overhead,
        checks_per_inference,
        flips_injected: corruption.iter().map(|r| r.injected).sum(),
        slices_flagged: corruption.iter().map(|r| r.detected).sum(),
        corruption,
    }
}

/// Base seed of the offered-load input stream; request `i` of every
/// offered-load case reuses input `i`, so one set of engine baselines
/// validates every row.
const OFFERED_INPUT_SEED: u64 = 90_001;

/// `n` seeded exponential interarrival gaps (a Poisson process) at `rate`
/// requests per second, in seconds.
fn exponential_interarrivals(rate_per_sec: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            // A 53-bit mantissa draw in [0, 1); the (1 - u) flip keeps ln
            // away from zero.
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            -(1.0 - u).ln() / rate_per_sec
        })
        .collect()
}

/// Nearest-rank percentile of an ascending latency list.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Runs one offered-load case: a fresh [`Server`] over a
/// `pool_threads`-worker engine, submitting `inputs` on the seeded arrival
/// schedule, with every response asserted bit-identical to `expected` and
/// plan-free.
#[allow(clippy::too_many_arguments)]
fn offered_load_case(
    network: &Network,
    weights: &NetworkWeights,
    inputs: &[Tensor],
    expected: &[Tensor],
    pool_threads: usize,
    batched: bool,
    rate_per_sec: f64,
    load_factor: f64,
    window: Duration,
    seed: u64,
) -> OfferedLoadRow {
    let n = expected.len();
    let config = if batched {
        ServeConfig {
            max_batch: 8,
            batch_window: window,
            ..ServeConfig::default()
        }
    } else {
        // Serial per-request dispatch on the same pool: every wave is one
        // request, exactly what a server without coalescing would do.
        ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            ..ServeConfig::default()
        }
    };
    let (server, model) = served_model(
        FaultSpec::disabled(),
        config,
        network,
        weights,
        pool_threads,
    );

    let gaps = exponential_interarrivals(rate_per_sec, n, seed);
    let start = Instant::now();
    let mut due = 0.0f64;
    let mut tickets = Vec::with_capacity(n);
    for (gap, input) in gaps.into_iter().zip(inputs) {
        due += gap;
        if let Some(wait) = Duration::from_secs_f64(due).checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        tickets.push(server.submit(model, input.clone()).expect("queue has room"));
    }
    let mut latencies_ms = Vec::with_capacity(n);
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().expect("request succeeds");
        assert_eq!(
            response.output, expected[i],
            "offered-load response {i} diverged from the engine baseline"
        );
        assert_eq!(response.plan_seconds, 0.0, "warm serving must not plan");
        latencies_ms.push(response.latency_seconds * 1e3);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.stats();
    assert_eq!(stats.completed, n as u64, "every request completes");
    latencies_ms.sort_by(f64::total_cmp);
    OfferedLoadRow {
        mode: if batched { "batched" } else { "serial" }.to_string(),
        threads: pool_threads,
        arrival_rate_per_sec: rate_per_sec,
        load_factor,
        requests: n,
        waves: stats.waves,
        mean_wave: stats.mean_wave(),
        max_wave: stats.max_wave,
        p50_latency_ms: percentile(&latencies_ms, 0.50),
        p99_latency_ms: percentile(&latencies_ms, 0.99),
        throughput_per_sec: n as f64 / elapsed,
        bit_identical: true,
    }
}

/// The offered-load sweep behind `BENCH_serve.json`: calibrates the pool's
/// serial capacity, then drives batched and serial servers through the same
/// seeded arrival schedules at sub-capacity, near-capacity and saturating
/// rates.
fn offered_load_sweep(
    network: &Network,
    weights: &NetworkWeights,
    pool_threads: usize,
) -> Vec<OfferedLoadRow> {
    let load_points = [(0.8, 4usize), (1.5, 6), (4.0, 12)];
    let n_max = load_points.iter().map(|&(_, n)| n).max().unwrap_or(0);
    let inputs = bench_inputs(network, OFFERED_INPUT_SEED, n_max);
    // Calibration doubles as baseline collection: each timed probe run is
    // also the expected output the served responses must reproduce.
    let (expected, serial_latency) = {
        let (probe, compiled) =
            compiled_engine(GanaxMachine::paper(), network, weights, pool_threads);
        run_each(&probe, &compiled, &inputs)
    };
    let capacity_per_sec = 1.0 / serial_latency;
    // The coalescing budget scales with service time: long enough to form
    // waves under load, short enough to stay invisible next to one service.
    let window = Duration::from_secs_f64((serial_latency * 0.02).clamp(0.002, 0.050));

    let mut rows = Vec::new();
    for (k, &(load_factor, n)) in load_points.iter().enumerate() {
        let rate = load_factor * capacity_per_sec;
        for batched in [true, false] {
            rows.push(offered_load_case(
                network,
                weights,
                &inputs[..n],
                &expected[..n],
                pool_threads,
                batched,
                rate,
                load_factor,
                window,
                // Both modes replay the identical arrival schedule.
                0xA11CE + 1_000 * k as u64,
            ));
        }
    }
    rows
}

/// The design-space geometries the sweep bench covers: the paper's 16 × 16
/// point plus wide/tall/small/large variations of the PV (MIMD) and lane
/// (SIMD) dimensions — 8 points in total.
pub fn sweep_bench_geometries() -> Vec<(usize, usize)> {
    vec![
        (16, 16),
        (8, 8),
        (8, 16),
        (16, 8),
        (8, 32),
        (32, 8),
        (16, 32),
        (32, 16),
    ]
}

/// The design-space sweep report behind `BENCH_sweep.json`: every design
/// point × network cell, the per-point summaries with the Pareto front over
/// (geomean speedup, geomean energy reduction), and — outside `--quick` —
/// cycle-level machine spot checks on reduced generators.
#[derive(Debug, Clone, Serialize)]
pub struct SweepBenchReport {
    /// Benchmark family name.
    pub bench: String,
    /// Whether the quick variant was used (fewer networks, no machine spot
    /// checks).
    pub quick: bool,
    /// Networks swept (canonical Table I names).
    pub networks: Vec<String>,
    /// Every (design point, network) cell.
    pub cells: Vec<SweepCell>,
    /// Per-design-point summaries, Pareto-flagged.
    pub designs: Vec<DesignSummary>,
    /// Labels of the Pareto-optimal design points.
    pub pareto_front: Vec<String>,
    /// Cycle-level spot checks (empty with `quick`).
    pub machine_spot_checks: Vec<MachineSweepCell>,
    /// Total wall-clock milliseconds of the sweep.
    pub wall_ms: f64,
}

/// Runs the design-space sweep: [`sweep_bench_geometries`] × two zoo
/// networks with `quick` (the analytic sweep only), or × the whole Table I
/// zoo plus cycle-level machine spot checks (reduced generators, channel cap
/// 8) without it.
pub fn sweep_bench(quick: bool) -> SweepBenchReport {
    let start = Instant::now();
    let networks: Vec<&str> = if quick {
        vec!["DCGAN", "3D-GAN"]
    } else {
        vec!["3D-GAN", "ArtGAN", "DCGAN", "DiscoGAN", "GP-GAN", "MAGAN"]
    };
    let spec = SweepSpec::geometry_grid(&sweep_bench_geometries(), &networks)
        .expect("bench sweep spec is valid");
    let result = spec.run();
    let machine_spot_checks = if quick {
        Vec::new()
    } else {
        // Ground the extreme geometries (and the paper point) in the
        // cycle-level machine on the reduced DCGAN generator.
        let spot_spec = SweepSpec::geometry_grid(&[(16, 16), (8, 8), (32, 16)], &["DCGAN"])
            .expect("spot-check spec is valid");
        spot_spec
            .machine_spot_checks(8)
            .expect("reduced generators execute on the machine")
    };
    SweepBenchReport {
        bench: "sweep".to_string(),
        quick,
        networks: result.networks.clone(),
        pareto_front: result
            .pareto_front()
            .iter()
            .map(|d| d.design.clone())
            .collect(),
        cells: result.cells,
        designs: result.designs,
        machine_spot_checks,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Formats a ratio with an `x` suffix.
pub fn ratio(x: f64) -> String {
    format!("{x:4.2}x")
}

/// All five energy-category labels (Figure 10 legend).
pub fn energy_labels() -> Vec<&'static str> {
    EnergyCategory::ALL.iter().map(|c| c.label()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_has_six_rows_and_sensible_average() {
        let (rows, average) = figure1();
        assert_eq!(rows.len(), 6);
        assert!(average > 0.6 && average < 0.9, "average = {average}");
    }

    #[test]
    fn figure8_geomeans_are_in_paper_ballpark() {
        let comparisons = all_comparisons();
        let (rows, speedup, energy) = figure8(&comparisons);
        assert_eq!(rows.len(), 6);
        assert!(
            speedup > 2.0 && speedup < 6.0,
            "speedup geomean = {speedup}"
        );
        assert!(energy > 1.8 && energy < 6.0, "energy geomean = {energy}");
    }

    #[test]
    fn figure9_rows_are_normalized() {
        let comparisons = all_comparisons();
        for row in figure9(&comparisons, false) {
            assert!((row.eyeriss_discriminative + row.eyeriss_generative - 1.0).abs() < 1e-9);
            assert!(row.ganax_discriminative + row.ganax_generative <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn figure10_has_five_units_per_model() {
        let comparisons = all_comparisons();
        let rows = figure10(&comparisons);
        assert_eq!(rows.len(), 6 * 5);
        assert_eq!(energy_labels().len(), 5);
    }

    #[test]
    fn figure11_shows_ganax_above_eyeriss() {
        let comparisons = all_comparisons();
        for row in figure11(&comparisons) {
            assert!(
                row.ganax_utilization > row.eyeriss_utilization,
                "{}",
                row.model
            );
        }
    }

    #[test]
    fn sweep_bench_quick_covers_the_acceptance_grid() {
        let report = sweep_bench(true);
        assert!(report.designs.len() >= 6, "need >= 6 design points");
        assert!(report.networks.len() >= 2, "need >= 2 zoo networks");
        assert_eq!(
            report.cells.len(),
            report.designs.len() * report.networks.len()
        );
        assert!(!report.pareto_front.is_empty());
        for cell in &report.cells {
            assert!(cell.speedup > 1.0, "{} on {}", cell.design, cell.network);
            assert!(cell.energy_reduction > 1.0);
        }
        assert!(report.machine_spot_checks.is_empty());
    }

    #[test]
    fn thread_counts_are_sorted_and_deduplicated() {
        assert_eq!(bench_thread_counts(Some("4,1,2,2")), vec![1, 2, 4]);
    }

    #[test]
    fn blank_thread_spec_falls_back_to_the_default() {
        let mut default = vec![1, 2, 4, available_parallelism()];
        default.sort_unstable();
        default.dedup();
        assert_eq!(bench_thread_counts(None), default);
        assert_eq!(bench_thread_counts(Some(" ")), default);
    }

    #[test]
    #[should_panic(expected = "invalid thread count `l6`")]
    fn unparseable_thread_spec_panics() {
        bench_thread_counts(Some("l6"));
    }

    #[test]
    fn ms_spread_sorts_and_takes_the_middle() {
        let odd = MsSpread::of(&mut [5.0, 1.0, 3.0]);
        assert_eq!(
            (odd.samples, odd.min, odd.median, odd.max),
            (3, 1.0, 3.0, 5.0)
        );
        let even = MsSpread::of(&mut [4.0, 1.0, 2.0, 9.0]);
        assert_eq!(
            (even.samples, even.min, even.median, even.max),
            (4, 1.0, 3.0, 9.0)
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5), " 50.0%");
        assert_eq!(ratio(3.61), "3.61x");
    }
}
