//! `perfbench`: the GANAX serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dcgan-warm --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each workload drives the public serving API from outside (`Server::register`
//! / `submit` / `Ticket::wait`, then `ServeStats` and `Server::health`), checks
//! every response bit for bit against an expected output computed at set-up,
//! and prints one JSON result as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md` beside
//! this crate for the workloads, the metrics and the noise evidence behind them.

use std::process::ExitCode;
use std::time::Instant;

use ganax::compare::SimulatedComparison;
use ganax::network::{finish_layer_output, host_projection, reference_network_forward};
use ganax::serve::{ModelHandle, Response, ServeConfig, ServeError, Server};
use ganax::{
    FaultKind, FaultSpec, GanaxConfig, GanaxMachine, InferenceEngine, IntegrityMode,
    NetworkExecution, NetworkWeights,
};
use ganax_energy::EventCounts;
use ganax_models::{zoo, LayerOp, Network};
use ganax_perfbench::stats::{self, Window, MIN_FASTEST_SAMPLES};
use ganax_perfbench::trace::{SpanId, Tracer};
use ganax_perfbench::{shuffle, splitmix64, uniform};
use ganax_tensor::Tensor;

/// Workers in every serving pool: with two, each layer waits for the slower
/// worker, which widens the run-to-run spread without a faster request.
const POOL_THREADS: usize = 1;
/// Channel cap of the served DCGAN generator.
const DCGAN_CHANNELS: usize = 64;
/// Seeded inputs the closed-loop client cycles through.
const DCGAN_INPUTS: usize = 16;
/// Timed set-ups per run; `setup_s` is their median. In the end-to-end run
/// they are spread evenly over the timed phase, so that their median samples
/// the host's speed across the run rather than at one moment.
const SETUP_REPEATS: usize = 21;
/// Largest |engine - `reference_network_forward`| difference accepted: the
/// tolerance of the repository's network conformance suite.
const CONFORMANCE_TOLERANCE: f32 = 1e-4;
/// Rate of the finite operand and weight mantissa flips met by the flip
/// request of every `dcgan-heal` window, in parts per million of candidate
/// sites.
const FLIP_RATE_PPM: u32 = 1;
/// Passes over the inputs per traced-run serve phase: enough windows for
/// guarded medians. The fastest-sample statistics come from the end-to-end
/// run.
const TRACE_PASSES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DcganWarm,
    DcganHeal,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::DcganWarm, Workload::DcganHeal];

    fn name(self) -> &'static str {
        match self {
            Workload::DcganWarm => "dcgan-warm",
            Workload::DcganHeal => "dcgan-heal",
        }
    }

    /// The faults met by each request of a window, in submission order.
    fn slots(self) -> &'static [Faults] {
        match self {
            Workload::DcganWarm => &[Faults::None],
            Workload::DcganHeal => &[Faults::PanicAndPoison, Faults::Flips],
        }
    }

    fn serve_config(self) -> ServeConfig {
        let integrity = match self {
            Workload::DcganWarm => IntegrityMode::Off,
            Workload::DcganHeal => IntegrityMode::VerifyAndHeal,
        };
        ServeConfig {
            max_batch: 1,
            integrity,
            ..ServeConfig::default()
        }
    }
}

/// The seeded fault schedule of one server generation. Transient sites fire
/// once per engine lifetime, so on `dcgan-heal` every request is served by a
/// fresh generation of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    None,
    /// A worker panic and NaN-poisoned operands, both in one seeded output
    /// row of the last layer: every such request respawns exactly one worker,
    /// requeues its shard and heals that row.
    PanicAndPoison,
    /// Finite operand and weight mantissa flips at [`FLIP_RATE_PPM`]. Flips
    /// that stay under the ABFT tolerance change the output undetected.
    Flips,
}

impl Faults {
    fn machine(self, network: &Network, schedule_seed: u64) -> Result<GanaxMachine, String> {
        let spec = match self {
            Faults::None => return Ok(GanaxMachine::paper()),
            Faults::PanicAndPoison => {
                let last = network.layers().len() - 1;
                let rows = network.layers()[last].output.height as u64;
                FaultSpec {
                    layer: last as i64,
                    row: (schedule_seed % rows) as i64,
                    ..FaultSpec::seeded(
                        schedule_seed,
                        1_000_000,
                        FaultKind::WORKER_PANIC | FaultKind::NAN_POISON,
                    )
                }
            }
            Faults::Flips => FaultSpec::seeded(
                schedule_seed,
                FLIP_RATE_PPM,
                FaultKind::INPUT_FLIP | FaultKind::WEIGHT_FLIP,
            ),
        };
        let config = GanaxConfig::paper()
            .with_fault(spec)
            .map_err(|e| format!("fault spec: {e}"))?;
        Ok(GanaxMachine::new(config))
    }
}

/// Converts any displayable error into the binary's error type.
fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut state)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

// ---------------------------------------------------------------------------
// The model, its expected outputs and the set-up correctness gate.

/// Simulated activity of one inference.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Activity {
    busy_pe_cycles: u64,
    work_units: u64,
    counts: EventCounts,
}

impl Activity {
    fn of(run: &NetworkExecution) -> Self {
        Activity {
            busy_pe_cycles: run.total_busy_pe_cycles(),
            work_units: run.total_work_units(),
            counts: run.total_counts(),
        }
    }

    fn add(&mut self, other: Activity) {
        self.busy_pe_cycles += other.busy_pe_cycles;
        self.work_units += other.work_units;
        self.counts += other.counts;
    }
}

struct Model {
    network: Network,
    weights: NetworkWeights,
    inputs: Vec<Tensor>,
    expected: Vec<Tensor>,
    /// Activity of one inference of each input.
    activity: Vec<Activity>,
}

/// Weights uniform in ±sqrt(3 / fan-in), so activations stay O(1) through
/// the generator and the conformance tolerance is meaningful.
fn seeded_weights(network: &Network, seed: u64) -> Result<NetworkWeights, String> {
    let tensors = network
        .layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let shape = NetworkWeights::expected_shape(layer);
            let fan_in = (shape.volume() / layer.output.channels.max(1)).max(1) as f32;
            let data = uniform(shape.volume(), mix(seed, i as u64), (3.0 / fan_in).sqrt());
            Tensor::from_vec(shape, data).map_err(err)
        })
        .collect::<Result<Vec<_>, _>>()?;
    NetworkWeights::new(network, tensors).map_err(err)
}

/// Builds the DCGAN generator's weights, inputs and expected outputs, and
/// runs the set-up gate on it. Gate failures are appended to `gate`.
fn prepare_model(seed: u64, gate: &mut Vec<String>) -> Result<Model, String> {
    let network = zoo::reduced_generator("DCGAN", DCGAN_CHANNELS).ok_or("no zoo model DCGAN")?;
    let weights = seeded_weights(&network, seed)?;
    let shape = network.input_shape();
    let inputs = (0..DCGAN_INPUTS as u64)
        .map(|i| {
            Tensor::from_vec(shape, uniform(shape.volume(), mix(seed, 1000 + i), 1.0)).map_err(err)
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Expected outputs come from a clean single-worker engine with integrity
    // off; every served response must equal them bit for bit.
    let engine = InferenceEngine::new(GanaxMachine::paper(), 1);
    let compiled = engine.compile(&network, &weights).map_err(err)?;
    let in_bounds_macs: u64 = network
        .layers()
        .iter()
        .filter_map(|l| match l.op {
            LayerOp::Conv(p) | LayerOp::TConv(p) => {
                Some(p.in_bounds_macs(l.input, l.output.channels))
            }
            LayerOp::Projection => None,
        })
        .sum::<Result<u64, _>>()
        .map_err(err)?;
    let mut expected = Vec::with_capacity(inputs.len());
    let mut activity = Vec::with_capacity(inputs.len());
    for (k, input) in inputs.iter().enumerate() {
        let run = engine.execute(&compiled, input).map_err(err)?;
        let reference = reference_network_forward(&network, input, &weights).map_err(err)?;
        let diff = run.output.max_abs_diff(&reference).map_err(err)?;
        if diff > CONFORMANCE_TOLERANCE {
            gate.push(format!(
                "input {k}: engine differs from the reference by {diff}"
            ));
        }
        let act = Activity::of(&run);
        if act.busy_pe_cycles != in_bounds_macs {
            gate.push(format!(
                "input {k}: busy_pe_cycles {} != in-bounds MACs {in_bounds_macs}",
                act.busy_pe_cycles
            ));
        }
        expected.push(run.output);
        activity.push(act);
    }
    // Exact repeat: the same input twice gives identical output and activity.
    let again = engine.execute(&compiled, &inputs[0]).map_err(err)?;
    if again.output != expected[0] || Activity::of(&again) != activity[0] {
        gate.push("a repeated request did not repeat exactly".into());
    }
    let comparison = SimulatedComparison::run(&network, &inputs[0], &weights).map_err(err)?;
    if !comparison.is_consistent() {
        gate.push("machine activity disagrees with the analytic model".into());
    }
    Ok(Model {
        network,
        weights,
        inputs,
        expected,
        activity,
    })
}

// ---------------------------------------------------------------------------
// Deployments and server counters.

struct Deployment {
    server: Server,
    handle: ModelHandle,
}

/// Builds engine + server and registers (compiles) the model; the timed
/// set-up. The compile seconds are appended to `compile_s`.
fn deploy(
    workload: Workload,
    faults: Faults,
    model: &Model,
    schedule_seed: u64,
    tracer: &mut Tracer,
    compile_s: &mut Vec<f64>,
) -> Result<Deployment, String> {
    let machine = faults.machine(&model.network, schedule_seed)?;
    let root = tracer.begin("setup", schedule_seed, SpanId::NONE);
    let engine = InferenceEngine::new(machine, POOL_THREADS);
    let server = Server::new(engine, workload.serve_config()).map_err(err)?;
    let start = Instant::now();
    let handle = tracer
        .span("compile", schedule_seed, root, || {
            server.register(&model.network, &model.weights)
        })
        .map_err(|e| format!("register: {e}"))?;
    compile_s.push(start.elapsed().as_secs_f64());
    tracer.end(root);
    Ok(Deployment { server, handle })
}

/// Timed set-ups of fault-free deployments.
#[derive(Default)]
struct Setups {
    seconds: Vec<f64>,
    compile_s: Vec<f64>,
}

impl Setups {
    fn time(
        &mut self,
        workload: Workload,
        model: &Model,
        tracer: &mut Tracer,
    ) -> Result<Deployment, String> {
        let start = Instant::now();
        let built = deploy(
            workload,
            Faults::None,
            model,
            0,
            tracer,
            &mut self.compile_s,
        )?;
        self.seconds.push(start.elapsed().as_secs_f64());
        Ok(built)
    }
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Server and engine counters, summed over server generations.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        struct Counters {
            $($field: u64,)*
            injected_faults: u64,
            counts: EventCounts,
        }

        impl Counters {
            fn of(server: &Server) -> Self {
                let s = server.stats();
                Counters {
                    $($field: s.$field,)*
                    injected_faults: server.engine().injected_faults(),
                    counts: s.counts,
                }
            }

            /// `self - before`: the activity between two snapshots.
            fn since(self, before: Counters) -> Self {
                Counters {
                    $($field: self.$field - before.$field,)*
                    injected_faults: self.injected_faults - before.injected_faults,
                    counts: self
                        .counts
                        .checked_sub(before.counts)
                        .expect("server event counts only grow"),
                }
            }

            fn add(&mut self, other: Counters) {
                $(self.$field += other.$field;)*
                self.injected_faults += other.injected_faults;
                self.counts += other.counts;
            }
        }
    };
}

counters!(
    failed,
    rejected,
    retries,
    deadline_exceeded,
    busy_pe_cycles,
    work_units,
    integrity_checks,
    integrity_violations,
    rows_healed,
    integrity_undetected,
    respawns,
    requeued_shards,
);

// ---------------------------------------------------------------------------
// The closed-loop client.

/// One served request, as the server timed it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    latency: f64,
    queue: f64,
    exec: f64,
}

/// Everything one serve phase observed.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    windows: Vec<Window>,
    attempted: u64,
    /// Requests that errored, were refused, or answered wrongly without an
    /// injected fault to explain it.
    failed: u64,
    /// Wrong answers the gate cannot explain (part of `failed`).
    mismatches: u64,
    /// Wrong answers from a flip request whose engine injected finite flips:
    /// corruption that passed ABFT verification.
    escapes: u64,
    /// Largest |response - expected| over the escapes.
    escape_max_abs_err: f32,
    /// Panic-and-poison requests that did not respawn exactly one worker and
    /// heal at least one row.
    missed_faults: u64,
    errors: Vec<String>,
    /// Expected activity of every answered request.
    served: Activity,
    counters: Counters,
    /// A server reported itself unhealthy after serving.
    unhealthy: bool,
}

/// How long a serve phase runs.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At least this many seconds and [`MIN_FASTEST_SAMPLES`] windows; capped
    /// at three times the seconds.
    Timed(f64),
    /// Exactly this many windows.
    Windows(usize),
}

/// The client. A window sends one request per slot of the workload, each
/// answered before the next is sent, all for the same input. Windows come in
/// passes over the seeded inputs, each pass in its own seeded order.
struct Client<'a> {
    workload: Workload,
    model: &'a Model,
    seed: u64,
}

impl Client<'_> {
    /// The input of window `index`.
    fn input(&self, index: usize) -> usize {
        let mut order: Vec<usize> = (0..DCGAN_INPUTS).collect();
        shuffle(&mut order, mix(self.seed, (index / DCGAN_INPUTS) as u64));
        order[index % DCGAN_INPUTS]
    }

    /// Serves windows `first..` until `stop`: from `shared` on `dcgan-warm`,
    /// and from fresh server generations (numbered by window and slot, built
    /// outside the timed window) on `dcgan-heal`. In a timed phase, `setups`
    /// is topped up to [`SETUP_REPEATS`] between windows, evenly over the
    /// phase's seconds.
    fn run(
        &self,
        shared: &Deployment,
        first: usize,
        stop: Stop,
        tracer: &mut Tracer,
        mut setups: Option<&mut Setups>,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let before = Counters::of(&shared.server);
        let start = Instant::now();
        for index in first.. {
            let elapsed = start.elapsed().as_secs_f64();
            let done = match stop {
                Stop::Windows(n) => index - first >= n,
                Stop::Timed(seconds) => {
                    (elapsed >= seconds && phase.windows.len() >= MIN_FASTEST_SAMPLES)
                        || elapsed >= 3.0 * seconds
                }
            };
            if done {
                break;
            }
            if let (Some(setups), Stop::Timed(seconds)) = (setups.as_deref_mut(), stop) {
                let timed = setups.seconds.len();
                if timed < SETUP_REPEATS && elapsed >= timed as f64 * seconds / SETUP_REPEATS as f64
                {
                    // Dropped (and joined) outside the timed set-up.
                    drop(setups.time(self.workload, self.model, &mut Tracer::disabled())?);
                }
            }
            self.serve_window(shared, index, tracer, &mut phase)?;
        }
        phase
            .counters
            .add(Counters::of(&shared.server).since(before));
        phase.unhealthy |= !shared.server.health().is_healthy();
        Ok(phase)
    }

    fn serve_window(
        &self,
        shared: &Deployment,
        index: usize,
        tracer: &mut Tracer,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let slots = self.workload.slots();
        let first_id = (index * slots.len()) as u64;
        let generations = match self.workload {
            Workload::DcganWarm => Vec::new(),
            Workload::DcganHeal => slots
                .iter()
                .enumerate()
                .map(|(s, &faults)| {
                    deploy(
                        self.workload,
                        faults,
                        self.model,
                        mix(self.seed, first_id + s as u64),
                        &mut Tracer::disabled(),
                        &mut Vec::new(),
                    )
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let k = self.input(index);

        let start = Instant::now();
        let window = tracer.begin("window", first_id, SpanId::NONE);
        let results: Vec<Result<Response, ServeError>> = (0..slots.len())
            .map(|s| {
                let deployment = generations.get(s).unwrap_or(shared);
                let id = first_id + s as u64;
                let input = self.model.inputs[k].clone();
                tracer
                    .span("serve.submit", id, window, || {
                        deployment.server.submit(deployment.handle, input)
                    })
                    .and_then(|t| tracer.span("serve.wait", id, window, || t.wait()))
            })
            .collect();
        let seconds = start.elapsed().as_secs_f64();
        tracer.end(window);

        let mut served = Window {
            seconds,
            inferences: 0,
            busy_pe_cycles: 0,
        };
        for (s, (&faults, result)) in slots.iter().zip(results).enumerate() {
            phase.attempted += 1;
            let counters = generations.get(s).map(|g| Counters::of(&g.server));
            let response = match result {
                Ok(response) => response,
                Err(error) => {
                    phase.failed += 1;
                    if phase.errors.len() < 8 {
                        phase.errors.push(error.to_string());
                    }
                    continue;
                }
            };
            let expected = &self.model.expected[k];
            if response.output != *expected {
                let injected = counters.map_or(0, |c| c.injected_faults);
                if faults == Faults::Flips && injected > 0 {
                    phase.escapes += 1;
                    let diff = response.output.max_abs_diff(expected).map_err(err)?;
                    phase.escape_max_abs_err = phase.escape_max_abs_err.max(diff);
                } else {
                    phase.failed += 1;
                    phase.mismatches += 1;
                }
            }
            phase.samples.push(Sample {
                latency: response.latency_seconds,
                queue: response.queue_seconds,
                exec: response.exec_seconds,
            });
            served.inferences += 1;
            served.busy_pe_cycles += self.model.activity[k].busy_pe_cycles;
            phase.served.add(self.model.activity[k]);
            if let Some(c) = counters {
                if faults == Faults::PanicAndPoison && (c.respawns != 1 || c.rows_healed == 0) {
                    phase.missed_faults += 1;
                }
                phase.counters.add(c);
            }
        }
        for generation in &generations {
            phase.unhealthy |= !generation.server.health().is_healthy();
        }
        phase.windows.push(served);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reporting.

/// An ordered metric list: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.0.len());
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ms(samples: impl Iterator<Item = f64>) -> Vec<f64> {
    samples.map(|s| s * 1e3).collect()
}

/// A diagnostic percentile with its sample count, or the guard's refusal.
fn diagnostic(samples: &[f64], quantile: f64) -> String {
    match stats::percentile(samples, quantile) {
        Ok(v) => format!("{{\"value\": {v}, \"samples\": {}}}", samples.len()),
        Err(e) => format!(
            "{{\"value\": null, \"samples\": {}, \"refused\": {}}}",
            samples.len(),
            json_str(&e.to_string())
        ),
    }
}

fn energy_uj(counts: &EventCounts) -> f64 {
    GanaxConfig::paper().energy().energy(counts).total_pj() / 1e6
}

// ---------------------------------------------------------------------------
// The run.

struct Run<'a> {
    args: Args,
    model: &'a Model,
    gate: Vec<String>,
    setups: Setups,
    /// The deployment the run serves, free of injected faults: the last
    /// set-up timed in [`Run::start`].
    deployment: Deployment,
    tracer: Tracer,
    info: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
}

impl<'a> Run<'a> {
    /// Runs the first timed set-up, or on a traced run all of them; `gate`
    /// holds the set-up gate's findings.
    fn start(args: Args, model: &'a Model, gate: Vec<String>) -> Result<Self, String> {
        let mut tracer = if args.trace {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let mut setups = Setups::default();
        let mut deployment = setups.time(args.workload, model, &mut tracer)?;
        while args.trace && setups.seconds.len() < SETUP_REPEATS {
            // Drop (and join) the previous deployment outside the timed span.
            drop(deployment);
            deployment = setups.time(args.workload, model, &mut tracer)?;
        }
        Ok(Run {
            deployment,
            args,
            model,
            gate,
            setups,
            tracer,
            info: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    fn client(&self) -> Client<'a> {
        Client {
            workload: self.args.workload,
            model: self.model,
            seed: self.args.seed,
        }
    }

    fn note(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    /// Folds a phase's request outcomes and counters into the run's verdict.
    fn account(&mut self, label: &str, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        for error in &phase.errors {
            self.gate.push(format!("{label}: {error}"));
        }
        if phase.mismatches > 0 {
            self.gate.push(format!(
                "{label}: {} responses differ from their expected output with no injected flip to explain it",
                phase.mismatches
            ));
        }
        let c = &phase.counters;
        if c.busy_pe_cycles != phase.served.busy_pe_cycles
            || c.work_units != phase.served.work_units
            || c.counts != phase.served.counts
        {
            self.gate.push(format!(
                "{label}: server activity differs from the sum of the served requests' activity"
            ));
        }
        if c.integrity_undetected > 0 {
            self.gate.push(format!(
                "{label}: {} non-finite outputs escaped ABFT verification",
                c.integrity_undetected
            ));
        }
        if phase.unhealthy {
            self.gate
                .push(format!("{label}: a server reported itself unhealthy"));
        }
        if self.args.workload == Workload::DcganHeal {
            if phase.missed_faults > 0 {
                self.gate.push(format!(
                    "{label}: {} panic-and-poison requests did not respawn exactly one worker and heal a row",
                    phase.missed_faults
                ));
            }
            if c.injected_faults == 0 || c.respawns == 0 || c.rows_healed == 0 {
                self.gate.push(format!(
                    "{label}: the fault schedule did no work (injected {}, respawns {}, rows healed {})",
                    c.injected_faults, c.respawns, c.rows_healed
                ));
            }
        }
    }

    /// Serves untimed warm-up windows: one input cycle on `dcgan-warm`, and
    /// one window on `dcgan-heal`, whose every request meets a fresh server.
    fn warm_up(&mut self) -> Result<(), String> {
        let windows = match self.args.workload {
            Workload::DcganWarm => DCGAN_INPUTS,
            Workload::DcganHeal => 1,
        };
        let phase = self.client().run(
            &self.deployment,
            0,
            Stop::Windows(windows),
            &mut Tracer::disabled(),
            None,
        )?;
        self.account("warm-up", &phase);
        Ok(())
    }

    fn end_to_end(&mut self) -> Result<Metrics, String> {
        self.warm_up()?;
        let phase = self.client().run(
            &self.deployment,
            DCGAN_INPUTS,
            Stop::Timed(self.args.seconds),
            &mut Tracer::disabled(),
            Some(&mut self.setups),
        )?;
        self.account("timed", &phase);

        let latency_ms = ms(phase.samples.iter().map(|s| s.latency));
        let mut m = Metrics::default();
        m.put(
            "setup_s",
            stats::median(&self.setups.seconds).ok_or("no set-up samples")?,
            "s",
        );
        m.put(
            "request_ms_min",
            stats::fastest(&latency_ms).map_err(|e| format!("request_ms_min: {e}"))?,
            "ms",
        );
        m.put(
            "throughput_per_s",
            stats::fastest_rate(&phase.windows, stats::inferences_per_second)
                .map_err(|e| format!("throughput_per_s: {e}"))?,
            "1/s",
        );
        m.put(
            "sim_cycles_per_s",
            stats::fastest_rate(&phase.windows, stats::cycles_per_second)
                .map_err(|e| format!("sim_cycles_per_s: {e}"))?,
            "1/s",
        );
        m.put("peak_rss_mb", peak_rss_mb()?, "MB");
        let mut all_inputs = Activity::default();
        for activity in &self.model.activity {
            all_inputs.add(*activity);
        }
        m.put(
            "sim_energy_uj",
            energy_uj(&all_inputs.counts) / self.model.activity.len() as f64,
            "uJ",
        );
        let exact = phase.attempted - phase.failed - phase.escapes;
        m.put(
            "success_share",
            exact as f64 / phase.attempted.max(1) as f64,
            "share",
        );

        self.note("requests", phase.attempted.to_string());
        self.note("windows", phase.windows.len().to_string());
        self.note("abft_escapes", phase.escapes.to_string());
        self.note(
            "abft_escape_max_abs_err",
            phase.escape_max_abs_err.to_string(),
        );
        self.note("request_ms_p10", diagnostic(&latency_ms, 0.1));
        self.note("request_ms_p50", diagnostic(&latency_ms, 0.5));
        self.note("request_ms_p99", diagnostic(&latency_ms, 0.99));
        self.note(
            "measured_s",
            format!("{}", phase.windows.iter().map(|w| w.seconds).sum::<f64>()),
        );
        Ok(m)
    }

    fn per_layer(&mut self) -> Result<Metrics, String> {
        // Untraced and traced passes over the same windows from fresh
        // deployments, so their counters must agree exactly.
        let mut phases = Vec::new();
        for traced in [false, true] {
            self.deployment = deploy(
                self.args.workload,
                Faults::None,
                self.model,
                0,
                &mut Tracer::disabled(),
                &mut Vec::new(),
            )?;
            self.warm_up()?;
            let client = self.client();
            let mut quiet = Tracer::disabled();
            let tracer = if traced { &mut self.tracer } else { &mut quiet };
            let phase = client.run(
                &self.deployment,
                DCGAN_INPUTS,
                Stop::Windows(TRACE_PASSES * DCGAN_INPUTS),
                tracer,
                None,
            )?;
            self.account(if traced { "traced" } else { "untraced" }, &phase);
            phases.push(phase);
        }
        let (untraced, traced) = (&phases[0], &phases[1]);
        let exact_counts = |p: &Phase| {
            let c = &p.counters;
            (
                p.served.counts,
                p.served.work_units,
                c.integrity_checks,
                c.integrity_violations,
                c.rows_healed,
                c.integrity_undetected,
                p.escapes,
                p.attempted,
            )
        };
        if exact_counts(untraced) != exact_counts(traced) {
            self.gate
                .push("sim/integrity counters differ between the traced and untraced runs".into());
        }

        let mut m = Metrics::default();
        let n = traced.attempted.max(1) as f64;
        let c = traced.counters;

        // serve
        let untraced_p50 = stats::percentile(&ms(untraced.samples.iter().map(|s| s.latency)), 0.5)
            .map_err(|e| format!("untraced request_ms_p50: {e}"))?;
        let traced_latency = ms(traced.samples.iter().map(|s| s.latency));
        let traced_p50 = stats::percentile(&traced_latency, 0.5)
            .map_err(|e| format!("traced request_ms_p50: {e}"))?;
        let queue_ms = ms(traced.samples.iter().map(|s| s.queue));
        let overhead_ms = ms(traced.samples.iter().map(|s| s.latency - s.queue - s.exec));
        m.put(
            "serve.queue_ms_p50",
            stats::percentile(&queue_ms, 0.5).map_err(|e| format!("serve.queue_ms_p50: {e}"))?,
            "ms",
        );
        m.put(
            "serve.overhead_ms_p50",
            stats::percentile(&overhead_ms, 0.5)
                .map_err(|e| format!("serve.overhead_ms_p50: {e}"))?,
            "ms",
        );
        m.put("serve.retries", c.retries as f64, "count");
        m.put("serve.failed", c.failed as f64, "count");
        m.put("serve.rejected", c.rejected as f64, "count");
        m.put(
            "serve.deadline_exceeded",
            c.deadline_exceeded as f64,
            "count",
        );

        // compile (median over the set-ups of this run)
        m.put(
            "compile.DCGAN.ms",
            stats::median(&self.setups.compile_s).ok_or("no compile samples")? * 1e3,
            "ms",
        );

        // engine + tensor, called directly on the fault-free serving engine
        self.engine_layers(&mut m)?;
        m.put("engine.respawns", c.respawns as f64, "count");
        m.put("engine.requeued_shards", c.requeued_shards as f64, "count");
        m.put("engine.injected_faults", c.injected_faults as f64, "count");

        // integrity
        m.put(
            "integrity.checks_per_inference",
            c.integrity_checks as f64 / n,
            "count",
        );
        m.put(
            "integrity.violations",
            c.integrity_violations as f64,
            "count",
        );
        m.put("integrity.rows_healed", c.rows_healed as f64, "count");
        m.put(
            "integrity.undetected",
            c.integrity_undetected as f64,
            "count",
        );
        m.put("integrity.escapes", traced.escapes as f64, "count");
        m.put(
            "integrity.escape_max_abs_err",
            f64::from(traced.escape_max_abs_err),
            "abs",
        );

        // sim: per inference of the traced pass
        let s = traced.served;
        let k = &s.counts;
        for (name, value) in [
            ("alu_ops", k.alu_ops),
            ("gated_ops", k.gated_ops),
            ("register_file_reads", k.register_file_reads),
            ("register_file_writes", k.register_file_writes),
            ("inter_pe_transfers", k.inter_pe_transfers),
            ("global_buffer_reads", k.global_buffer_reads),
            ("global_buffer_writes", k.global_buffer_writes),
            ("dram_reads", k.dram_reads),
            ("dram_writes", k.dram_writes),
            ("local_uop_fetches", k.local_uop_fetches),
            ("global_uop_fetches", k.global_uop_fetches),
        ] {
            m.put(format!("sim.{name}"), value as f64 / n, "count");
        }
        m.put("sim.work_units", s.work_units as f64 / n, "count");

        // diagnostics
        m.put(
            "trace.overhead_share",
            (traced_p50 - untraced_p50) / untraced_p50,
            "share",
        );
        self.note("trace_requests", traced.attempted.to_string());
        self.note("untraced_request_ms_p50", untraced_p50.to_string());
        self.note("traced_request_ms_p50", traced_p50.to_string());
        Ok(m)
    }

    /// Direct `execute` calls on the serving engine, the `ganax_tensor` work
    /// floor of each layer, and a pool-of-2 comparison that also gives each
    /// layer's shard balance (with one worker it is 1 by definition).
    fn engine_layers(&mut self, m: &mut Metrics) -> Result<(), String> {
        let model = self.model;
        let tensor_ms = tensor_floor(&mut self.tracer, model)?;
        let engine = self.deployment.server.engine();
        let compiled = self
            .tracer
            .span("compile", 0, SpanId::NONE, || {
                engine.compile(&model.network, &model.weights)
            })
            .map_err(err)?;
        let samples = MIN_FASTEST_SAMPLES;
        let mut total_ms = Vec::with_capacity(samples);
        let mut layer_ms: Vec<Vec<f64>> = Vec::new();
        let mut first_run = None;
        for i in 0..samples {
            let k = i % model.inputs.len();
            let run = self
                .tracer
                .span("engine.execute", i as u64, SpanId::NONE, || {
                    engine.execute(&compiled, &model.inputs[k])
                })
                .map_err(err)?;
            if run.output != model.expected[k] {
                self.gate
                    .push("direct engine.execute differs from the expected output".into());
            }
            total_ms.push(run.wall_seconds * 1e3);
            layer_ms.resize_with(run.layers.len(), Vec::new);
            for (slot, layer) in layer_ms.iter_mut().zip(&run.layers) {
                slot.push(layer.wall_seconds * 1e3);
            }
            first_run.get_or_insert(run);
        }
        let first_run = first_run.ok_or("no direct execute ran")?;
        let execute_min =
            stats::fastest(&total_ms).map_err(|e| format!("engine.execute_ms_min: {e}"))?;
        m.put("engine.execute_ms_min", execute_min, "ms");

        // A pool of two with the serving engine's machine configuration.
        let pool2 = InferenceEngine::new(*engine.machine(), 2);
        let compiled2 = pool2.compile(&model.network, &model.weights).map_err(err)?;
        let mut pool2_ms = Vec::with_capacity(samples);
        let mut pool2_balance = Vec::new();
        for i in 0..samples {
            let k = i % model.inputs.len();
            let run = pool2.execute(&compiled2, &model.inputs[k]).map_err(err)?;
            if run.output != model.expected[k] {
                self.gate
                    .push("pool-of-2 engine differs from the expected output".into());
            }
            pool2_ms.push(run.wall_seconds * 1e3);
            if pool2_balance.is_empty() {
                pool2_balance = run.layers.iter().map(|l| l.balance).collect();
            }
        }

        for (i, layer) in first_run.layers.iter().enumerate() {
            let wall_min =
                stats::fastest(&layer_ms[i]).map_err(|e| format!("engine.{}: {e}", layer.name))?;
            let name = &layer.name;
            m.put(format!("engine.{name}.wall_ms_min"), wall_min, "ms");
            if layer.host {
                continue;
            }
            m.put(
                format!("engine.{name}.cycles_per_s"),
                layer.busy_pe_cycles as f64 / (wall_min / 1e3),
                "1/s",
            );
            m.put(
                format!("engine.{name}.work_units"),
                layer.work_units as f64,
                "count",
            );
            m.put(format!("engine.{name}.balance"), pool2_balance[i], "share");
            if let Some(tensor_min) = tensor_ms.get(i).copied().flatten() {
                m.put(format!("tensor.{name}.ms_min"), tensor_min, "ms");
                m.put(
                    format!("engine_over_tensor.{name}"),
                    wall_min / tensor_min,
                    "ratio",
                );
            }
        }
        let pool2_min = stats::fastest(&pool2_ms).map_err(|e| format!("pool2: {e}"))?;
        m.put("engine.pool2_speedup", execute_min / pool2_min, "ratio");
        Ok(())
    }

    fn write_trace(&self) -> Result<(), String> {
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir).map_err(err)?;
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            self.args.workload.name(),
            self.args.seed
        ));
        std::fs::write(&path, self.tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Fastest milliseconds of `ganax_tensor::tconv` per layer (`None` for layers
/// that are not transposed convolutions), fed the reference chain's own
/// activations.
fn tensor_floor(tracer: &mut Tracer, model: &Model) -> Result<Vec<Option<f64>>, String> {
    let layers = model.network.layers();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    for i in 0..MIN_FASTEST_SAMPLES {
        let chain = tracer.begin("tensor.chain", i as u64, SpanId::NONE);
        let mut current = model.inputs[i % model.inputs.len()].clone();
        for (l, layer) in layers.iter().enumerate() {
            let weight = model.weights.weight(l);
            let mut out = match layer.op {
                LayerOp::Projection => host_projection(layer, &current, weight).map_err(err)?,
                LayerOp::TConv(p) => {
                    let start = Instant::now();
                    let out = tracer
                        .span("tensor.tconv", i as u64, chain, || {
                            ganax_tensor::tconv(&current, weight, &p)
                        })
                        .map_err(err)?;
                    times[l].push(start.elapsed().as_secs_f64() * 1e3);
                    out
                }
                LayerOp::Conv(p) => ganax_tensor::conv(&current, weight, &p).map_err(err)?,
            };
            finish_layer_output(layer, &mut out, model.weights.bias(l));
            current = out;
        }
        tracer.end(chain);
    }
    times
        .iter()
        .map(|v| {
            if v.is_empty() {
                Ok(None)
            } else {
                stats::fastest(v).map(Some).map_err(err)
            }
        })
        .collect()
}

fn host_facts(args: &Args) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("workload".into(), json_str(args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("profile".into(), json_str(profile)),
        ("pool_threads".into(), POOL_THREADS.to_string()),
        ("arch".into(), json_str(std::env::consts::ARCH)),
    ]
}

fn run(args: Args) -> Result<String, String> {
    let mut gate = Vec::new();
    let model = prepare_model(args.seed, &mut gate)?;
    let mut run = Run::start(args, &model, gate)?;
    let metrics = if run.args.trace {
        let m = run.per_layer()?;
        run.write_trace()?;
        m
    } else {
        run.end_to_end()?
    };
    let mut info = host_facts(&run.args);
    info.push(("setup_repeats".into(), run.setups.seconds.len().to_string()));
    info.extend(run.info.iter().cloned());
    let gate: Vec<String> = run.gate.iter().map(|g| json_str(g)).collect();
    info.push(("gate_failures".into(), format!("[{}]", gate.join(", "))));
    let fields: Vec<String> = info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"info\": {{{}}}}}", fields.join(", "));
    for failure in &run.gate {
        eprintln!("correctness gate: {failure}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.gate.is_empty(),
        run.attempted,
        run.failed,
        metrics.json()?
    ))
}

fn main() -> ExitCode {
    // Injected worker panics are expected on dcgan-heal; keep them off stderr.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected worker panic"));
        if !injected {
            default_hook(info);
        }
    }));
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <dcgan-warm|dcgan-heal> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
