//! The async serving front-end: an admission queue with dynamic batching and
//! multi-model residency over the compile-once [`InferenceEngine`].
//!
//! [`CompiledNetwork`] (PR 5) made the expensive half of serving — planning —
//! a one-time cost; this module puts the deployment-scale admission layer on
//! top, the ROADMAP's "one process, many models, many clients, bounded tails"
//! story:
//!
//! * **submit/poll and blocking-wait APIs** — [`Server::submit`] enqueues a
//!   request from any client thread and returns a [`Ticket`]; the ticket is
//!   polled ([`Ticket::poll`]) or waited on ([`Ticket::wait`],
//!   [`Ticket::wait_timeout`]). [`Server::run`] is the blocking convenience
//!   (submit + wait). Many client threads share one worker pool.
//! * **dynamic batching** — a dedicated batcher thread coalesces waiting
//!   requests for the *same model* into [`InferenceEngine::execute_batch`]
//!   waves, sized by a configurable latency budget
//!   ([`ServeConfig::batch_window`]) and cap ([`ServeConfig::max_batch`]).
//!   Batched execution is bit-identical per element to solo execution (the
//!   PR 5 property), so coalescing changes *when* work runs, never *what* it
//!   computes.
//! * **multi-model residency** — several models live behind one pool. The
//!   plan cache keys [`CompiledNetwork`] artifacts by `(network fingerprint,
//!   config fingerprint)` ([`NetworkWeights::fingerprint`],
//!   [`GanaxConfig::fingerprint`](crate::GanaxConfig::fingerprint)) with LRU
//!   eviction at [`ServeConfig::plan_cache_capacity`]; an evicted model is
//!   transparently recompiled on its next wave (the round-trip is counted in
//!   [`ServeStats::plan_builds`] and surfaces in [`Response::plan_seconds`]).
//! * **bounded admission** — the queue holds at most
//!   [`ServeConfig::queue_capacity`] requests; saturation returns the typed
//!   [`ServeError::QueueFull`] instead of blocking the client (backpressure,
//!   not deadlock).
//! * **shutdown liveness** — dropping the [`Server`] finishes the in-flight
//!   wave, resolves every queued ticket with [`ServeError::Cancelled`], and
//!   joins the batcher. A dead worker pool
//!   ([`InferenceEngine::shut_down_pool`], or a mid-task panic) resolves
//!   tickets with a typed [`ServeError::Engine`] through the engine's
//!   pool-death timeout path — tickets never hang.
//! * **self-healing under faults** — transient wave failures (a worker panic
//!   the engine's supervisor recovered from, NaN-poisoned outputs, a pool
//!   hiccup) are retried with backoff up to [`ServeConfig::max_retries`]; a
//!   retried wave re-executes in a fresh fault epoch, so its responses are
//!   bit-identical to a fault-free run. Per-request deadlines
//!   ([`ServeConfig::request_deadline`]) resolve overdue tickets with the
//!   typed [`ServeError::DeadlineExceeded`], and a per-model **circuit
//!   breaker** ([`ServeConfig::breaker_threshold`] consecutive final
//!   failures) sheds load with [`ServeError::ModelUnhealthy`] until a
//!   cooldown probe succeeds. [`Server::health`] snapshots pool liveness and
//!   every breaker; [`Server::stats`] counts retries, respawns, requeues,
//!   deadline misses and breaker activity. Every path resolves tickets with
//!   typed errors — the batcher itself never panics.
//!
//! # Example
//!
//! ```
//! use ganax::serve::{ServeConfig, Server};
//! use ganax::{GanaxMachine, InferenceEngine, NetworkWeights};
//! use ganax_models::{Activation, NetworkBuilder};
//! use ganax_tensor::{ConvParams, Shape, Tensor};
//!
//! let net = NetworkBuilder::new("toy", Shape::new_2d(1, 4, 4))
//!     .tconv("up", 1, ConvParams::transposed_2d(5, 2, 2), Activation::Relu)
//!     .build()
//!     .unwrap();
//! let weights =
//!     NetworkWeights::new(&net, vec![Tensor::filled_filter(1, 1, 1, 5, 5, 0.5)]).unwrap();
//!
//! let engine = InferenceEngine::new(GanaxMachine::paper(), 2);
//! let server = Server::new(engine, ServeConfig::default()).unwrap();
//! let model = server.register(&net, &weights).unwrap();
//!
//! // Async: submit from any thread, wait on the ticket.
//! let input = Tensor::filled(net.input_shape(), 1.0);
//! let ticket = server.submit(model, input.clone()).unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.model, "toy");
//! assert_eq!(response.plan_seconds, 0.0, "registration primed the plan cache");
//!
//! // Blocking convenience; outputs are bit-identical however they are served.
//! let again = server.run(model, input).unwrap();
//! assert_eq!(again.output, response.output);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ganax_energy::{EnergyBreakdown, EnergyModel, EventCounts};
use ganax_models::Network;
use ganax_tensor::{Shape, Tensor};

use crate::config::IntegrityMode;
use crate::engine::{lock_unpoisoned, CompiledNetwork, InferenceEngine};
use crate::machine::MachineError;
use crate::network::NetworkWeights;

/// Monotonic source of server identities, so a [`ModelHandle`] issued by one
/// server is rejected (typed, not silently misrouted) by every other.
static SERVER_IDS: AtomicU64 = AtomicU64::new(1);

/// Errors of the serving front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The [`ServeConfig`] is invalid (a zero capacity or batch bound).
    Config {
        /// Description of the invalid field.
        detail: String,
    },
    /// The [`ModelHandle`] was not issued by this server.
    UnknownModel {
        /// Description of the mismatch.
        detail: String,
    },
    /// The input tensor does not match the model's input shape.
    ShapeMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// The admission queue is at capacity — backpressure, retry later.
    QueueFull {
        /// The configured [`ServeConfig::queue_capacity`].
        capacity: usize,
    },
    /// The server is shutting down and accepts no new requests.
    ShuttingDown,
    /// The request was admitted but the server shut down before serving it.
    Cancelled,
    /// The wave executing this request failed in the engine (including the
    /// pool-death path: every worker thread gone), after any configured
    /// retries were exhausted.
    Engine {
        /// The underlying machine error.
        error: MachineError,
    },
    /// The request outlived its [`ServeConfig::request_deadline`] — either
    /// waiting in the queue or riding a wave that finished too late.
    DeadlineExceeded {
        /// Name of the model the request was submitted against.
        model: String,
        /// The configured deadline that was exceeded.
        deadline: Duration,
    },
    /// The model's circuit breaker is open: its last
    /// [`ServeConfig::breaker_threshold`] waves all failed, and the cooldown
    /// probe has not yet succeeded. Other models are unaffected.
    ModelUnhealthy {
        /// Name of the unhealthy model.
        model: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config { detail } => write!(f, "invalid serve config: {detail}"),
            ServeError::UnknownModel { detail } => write!(f, "unknown model: {detail}"),
            ServeError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} requests)")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Cancelled => write!(f, "request cancelled by server shutdown"),
            ServeError::Engine { error } => write!(f, "wave execution failed: {error}"),
            ServeError::DeadlineExceeded { model, deadline } => write!(
                f,
                "request for model `{model}` exceeded its {:.1} ms deadline",
                deadline.as_secs_f64() * 1e3
            ),
            ServeError::ModelUnhealthy { model } => {
                write!(f, "model `{model}` is unhealthy (circuit breaker open)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Admission-layer tuning of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Most requests coalesced into one [`InferenceEngine::execute_batch`]
    /// wave (≥ 1; 1 disables batching — serial per-request dispatch).
    pub max_batch: usize,
    /// The latency budget a wave leader waits for same-model company before
    /// dispatching. Larger budgets trade first-request latency for bigger
    /// waves; `Duration::ZERO` dispatches whatever is already queued.
    pub batch_window: Duration,
    /// Bound of the admission queue (≥ 1). A full queue rejects submissions
    /// with [`ServeError::QueueFull`] instead of blocking the client.
    pub queue_capacity: usize,
    /// Most [`CompiledNetwork`] artifacts resident at once (≥ 1). The
    /// least-recently-used artifact is evicted beyond this; evicted models
    /// recompile transparently on their next wave.
    pub plan_cache_capacity: usize,
    /// Per-request latency bound. A request that outlives it — queued or
    /// riding a late wave — resolves with [`ServeError::DeadlineExceeded`].
    /// `Duration::ZERO` (the default) disables deadlines.
    pub request_deadline: Duration,
    /// Times a wave is re-executed after a *transient* engine failure
    /// ([`MachineError::is_transient`]: a worker panic, a non-finite output,
    /// a pool hiccup) before the failure becomes final. A retried wave runs
    /// in a fresh fault epoch, so its responses are bit-identical to a
    /// fault-free run. 0 disables retries.
    pub max_retries: u32,
    /// Sleep between retry attempts of one wave.
    pub retry_backoff: Duration,
    /// Consecutive *final* wave failures that open a model's circuit
    /// breaker; an open breaker rejects submissions with
    /// [`ServeError::ModelUnhealthy`] until a post-cooldown probe wave
    /// succeeds. 0 disables the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before admitting one probe request.
    pub breaker_cooldown: Duration,
    /// ABFT computation-integrity policy override. [`IntegrityMode::Off`]
    /// (the default) defers to the engine's machine-level configuration —
    /// byte-identical serving to a stack without the integrity layer; a
    /// non-`Off` mode is applied to the engine at [`Server::new`], before
    /// any artifact is compiled.
    pub integrity: IntegrityMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            queue_capacity: 256,
            plan_cache_capacity: 4,
            request_deadline: Duration::ZERO,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(100),
            integrity: IntegrityMode::Off,
        }
    }
}

impl ServeConfig {
    /// Validates the bounds.
    fn validate(&self) -> Result<(), ServeError> {
        for (label, value) in [
            ("max_batch", self.max_batch),
            ("queue_capacity", self.queue_capacity),
            ("plan_cache_capacity", self.plan_cache_capacity),
        ] {
            if value == 0 {
                return Err(ServeError::Config {
                    detail: format!("{label} must be at least 1"),
                });
            }
        }
        Ok(())
    }
}

/// A model registered with a [`Server`] — cheap to copy, valid only for the
/// issuing server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelHandle {
    server: u64,
    index: usize,
}

/// One admitted request waiting in the queue.
struct Request {
    model: usize,
    input: Tensor,
    submitted: Instant,
    reply: Sender<Result<Response, ServeError>>,
}

/// The response carried by a resolved [`Ticket`].
#[derive(Debug, Clone)]
pub struct Response {
    /// Name of the model that served the request.
    pub model: String,
    /// The inference output — bit-identical to a fresh
    /// [`GanaxMachine::execute_network`](crate::GanaxMachine::execute_network)
    /// of the same input, whatever wave the request rode in.
    pub output: Tensor,
    /// Identifier of the wave that served this request (1-based, per server).
    pub wave: u64,
    /// Requests coalesced into that wave (1 = served solo).
    pub wave_size: usize,
    /// Seconds the request waited between submission and wave dispatch.
    pub queue_seconds: f64,
    /// Wall-clock seconds of the wave's batched execution.
    pub exec_seconds: f64,
    /// Planning seconds charged to this request's wave: `0.0` when the plan
    /// cache was hit (the warm steady state), the recompile cost after an
    /// eviction round-trip otherwise.
    pub plan_seconds: f64,
    /// End-to-end seconds from submission to resolution.
    pub latency_seconds: f64,
}

/// The asynchronous receipt for one submitted request.
///
/// A ticket resolves exactly once — with the [`Response`], or with a typed
/// [`ServeError`] (cancellation on shutdown, a wave failure). Resolution is
/// guaranteed by construction: if the server (or its batcher) goes away
/// without replying, the channel disconnects and the ticket reports
/// [`ServeError::Cancelled`] instead of hanging.
pub struct Ticket {
    model: String,
    rx: Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Name of the model the request was submitted against.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Non-blocking check: `None` while the request is still queued or
    /// executing, `Some(result)` once resolved. After the resolution has
    /// been taken (by any method), later calls report
    /// [`ServeError::Cancelled`].
    pub fn poll(&self) -> Option<Result<Response, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServeError::Cancelled)),
        }
    }

    /// Blocks until the ticket resolves.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Cancelled))
    }

    /// Blocks up to `timeout`: `None` when the request is still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServeError::Cancelled)),
        }
    }
}

/// Aggregate activity of a [`Server`] since construction (a consistent
/// snapshot from [`Server::stats`]).
///
/// Counter conservation is a serving invariant: `counts`, `busy_pe_cycles`
/// and `work_units` equal the sums a fresh
/// [`GanaxMachine::execute_network`](crate::GanaxMachine::execute_network)
/// would have produced per completed request, because batched waves aggregate
/// exactly the per-element activity (the PR 5 property) — the stress suite
/// asserts this.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Submissions rejected with [`ServeError::QueueFull`].
    pub rejected: u64,
    /// Requests completed with a [`Response`].
    pub completed: u64,
    /// Admitted requests cancelled by shutdown.
    pub cancelled: u64,
    /// Admitted requests whose wave failed in the engine *after* exhausting
    /// any retries — final failures only; recovered retries are counted in
    /// [`ServeStats::retries`] instead.
    pub failed: u64,
    /// Wave re-executions after transient engine failures.
    pub retries: u64,
    /// Pool workers respawned by the engine's supervisor after crashes.
    pub respawns: u64,
    /// Shards requeued by the engine after their worker panicked mid-task.
    pub requeued_shards: u64,
    /// Requests resolved with [`ServeError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Times a model's circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Submissions rejected with [`ServeError::ModelUnhealthy`].
    pub breaker_rejections: u64,
    /// Waves dispatched.
    pub waves: u64,
    /// Requests that rode in a wave of size ≥ 2.
    pub batched_requests: u64,
    /// Largest wave dispatched.
    pub max_wave: usize,
    /// Artifacts compiled (registration, cache misses, eviction round-trips).
    pub plan_builds: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Artifacts evicted from the plan cache.
    pub cache_evictions: u64,
    /// Seconds spent planning across all builds.
    pub plan_seconds: f64,
    /// Busy PE cycles aggregated over every completed wave.
    pub busy_pe_cycles: u64,
    /// Work units aggregated over every completed wave.
    pub work_units: u64,
    /// Activity counters aggregated over every completed wave.
    pub counts: EventCounts,
    /// ABFT row-slice checksum verifications performed by the engine (0
    /// under [`IntegrityMode::Off`]).
    pub integrity_checks: u64,
    /// Row-slice verifications that failed (every failed verdict counts,
    /// including re-flags across healing rounds).
    pub integrity_violations: u64,
    /// Row slices surgically re-executed and merged back by
    /// [`IntegrityMode::VerifyAndHeal`].
    pub rows_healed: u64,
    /// Corruptions that escaped ABFT verification and were only caught by
    /// the downstream non-finite guard.
    pub integrity_undetected: u64,
}

impl ServeStats {
    /// Mean requests per dispatched wave.
    pub fn mean_wave(&self) -> f64 {
        if self.waves == 0 {
            return 0.0;
        }
        self.completed as f64 / self.waves as f64
    }

    /// Energy of the aggregated activity under a Table II model.
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        model.energy(&self.counts)
    }
}

/// The position of one model's circuit breaker (see [`Server::health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: requests are admitted normally.
    Closed,
    /// Tripped: submissions are rejected with [`ServeError::ModelUnhealthy`]
    /// until the cooldown elapses.
    Open,
    /// Probing: the cooldown elapsed and one request was admitted; its
    /// wave's outcome closes or re-opens the breaker.
    HalfOpen,
}

/// The mutable core of one model's circuit breaker.
struct BreakerCore {
    state: CircuitState,
    /// Consecutive final wave failures since the last success.
    failures: u32,
    /// When the breaker last opened.
    opened_at: Option<Instant>,
}

impl BreakerCore {
    fn new() -> Self {
        BreakerCore {
            state: CircuitState::Closed,
            failures: 0,
            opened_at: None,
        }
    }
}

/// Health snapshot of one registered model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelHealth {
    /// Model name.
    pub name: String,
    /// Circuit-breaker position.
    pub circuit: CircuitState,
    /// Consecutive final wave failures since the model's last success.
    pub consecutive_failures: u32,
    /// Waves of this model that failed with a final (unhealable)
    /// [`MachineError::IntegrityViolation`], over the model's lifetime.
    pub integrity_violations: u64,
}

/// Health snapshot of the whole serving stack (see [`Server::health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHealth {
    /// Whether the engine's worker pool has at least one live worker.
    pub pool_alive: bool,
    /// The pool's target worker count.
    pub pool_threads: usize,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: usize,
    /// Per-model breaker state, in registration order.
    pub models: Vec<ModelHealth>,
}

impl ServerHealth {
    /// Whether the stack can currently serve every registered model: the
    /// pool is alive and no breaker is open.
    pub fn is_healthy(&self) -> bool {
        self.pool_alive
            && self
                .models
                .iter()
                .all(|m| m.circuit == CircuitState::Closed)
    }
}

/// One registered model: everything needed to (re)compile its plan after an
/// eviction round-trip, plus its circuit breaker.
struct ModelEntry {
    name: String,
    network: Network,
    weights: NetworkWeights,
    input_shape: Shape,
    fingerprint: u64,
    breaker: Mutex<BreakerCore>,
    /// Waves that failed with a final [`MachineError::IntegrityViolation`].
    integrity_violations: AtomicU64,
}

impl ModelEntry {
    /// Admission decision: `true` to admit. An open breaker whose cooldown
    /// has elapsed transitions to [`CircuitState::HalfOpen`] and admits that
    /// one request as the probe; further requests are rejected until the
    /// probe's wave resolves.
    fn breaker_admits(&self, cooldown: Duration) -> bool {
        let mut breaker = lock_unpoisoned(&self.breaker);
        match breaker.state {
            CircuitState::Closed => true,
            CircuitState::Open => {
                let elapsed = breaker
                    .opened_at
                    .map(|at| at.elapsed())
                    .unwrap_or(Duration::MAX);
                if elapsed >= cooldown {
                    breaker.state = CircuitState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            CircuitState::HalfOpen => false,
        }
    }

    /// Records a successful wave: the breaker closes and the failure streak
    /// resets.
    fn breaker_success(&self) {
        let mut breaker = lock_unpoisoned(&self.breaker);
        breaker.state = CircuitState::Closed;
        breaker.failures = 0;
        breaker.opened_at = None;
    }

    /// Records a final wave failure. Returns `true` when this failure trips
    /// the breaker open (from closed at the threshold, or a failed probe).
    fn breaker_failure(&self, threshold: u32) -> bool {
        let mut breaker = lock_unpoisoned(&self.breaker);
        breaker.failures = breaker.failures.saturating_add(1);
        if threshold == 0 {
            return false;
        }
        match breaker.state {
            CircuitState::HalfOpen => {
                breaker.state = CircuitState::Open;
                breaker.opened_at = Some(Instant::now());
                true
            }
            CircuitState::Closed if breaker.failures >= threshold => {
                breaker.state = CircuitState::Open;
                breaker.opened_at = Some(Instant::now());
                true
            }
            _ => false,
        }
    }
}

/// One resident artifact of the plan cache.
struct CacheSlot {
    key: (u64, u64),
    artifact: Arc<CompiledNetwork>,
    last_used: u64,
}

/// The LRU plan cache: a handful of resident [`CompiledNetwork`]s, so a
/// linear scan beats any map. `tick` is the LRU clock.
struct PlanCache {
    capacity: usize,
    tick: u64,
    slots: Vec<CacheSlot>,
}

/// The admission queue shared between clients and the batcher.
#[derive(Default)]
struct AdmissionQueue {
    pending: VecDeque<Request>,
    shutdown: bool,
}

/// Everything the server's clients and batcher share.
struct ServerShared {
    id: u64,
    engine: InferenceEngine,
    config: ServeConfig,
    config_fingerprint: u64,
    models: Mutex<Vec<Arc<ModelEntry>>>,
    queue: Mutex<AdmissionQueue>,
    arrivals: Condvar,
    cache: Mutex<PlanCache>,
    stats: Mutex<ServeStats>,
}

impl ServerShared {
    /// Fetches the model's compiled artifact from the plan cache, compiling
    /// (and possibly evicting the least-recently-used resident) on a miss.
    /// Returns the artifact plus the planning seconds paid *now* (0.0 on a
    /// hit — the warm path).
    fn plan_for(&self, entry: &ModelEntry) -> Result<(Arc<CompiledNetwork>, f64), MachineError> {
        let key = (entry.fingerprint, self.config_fingerprint);
        let (artifact, plan_seconds, evictions, hit) = {
            let mut cache = lock_unpoisoned(&self.cache);
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(slot) = cache.slots.iter_mut().find(|slot| slot.key == key) {
                slot.last_used = tick;
                (Arc::clone(&slot.artifact), 0.0, 0u64, true)
            } else {
                let compiled = Arc::new(CompiledNetwork::compile(
                    self.engine.machine(),
                    &entry.network,
                    &entry.weights,
                )?);
                let plan_seconds = compiled.plan_seconds();
                cache.slots.push(CacheSlot {
                    key,
                    artifact: Arc::clone(&compiled),
                    last_used: tick,
                });
                let mut evictions = 0u64;
                while cache.slots.len() > cache.capacity {
                    let Some(oldest) = cache
                        .slots
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, slot)| slot.last_used)
                        .map(|(i, _)| i)
                    else {
                        break;
                    };
                    cache.slots.remove(oldest);
                    evictions += 1;
                }
                (compiled, plan_seconds, evictions, false)
            }
        };
        let mut stats = lock_unpoisoned(&self.stats);
        if hit {
            stats.cache_hits += 1;
        } else {
            stats.plan_builds += 1;
            stats.plan_seconds += plan_seconds;
            stats.cache_evictions += evictions;
        }
        drop(stats);
        Ok((artifact, plan_seconds))
    }

    /// Resolves a batch of drained requests with [`ServeError::Cancelled`].
    fn cancel(&self, requests: impl IntoIterator<Item = Request>) {
        let requests: Vec<Request> = requests.into_iter().collect();
        if requests.is_empty() {
            return;
        }
        // Count before resolving, so a client woken by its reply already
        // sees the cancellation in `stats()`.
        lock_unpoisoned(&self.stats).cancelled += requests.len() as u64;
        for request in requests {
            let _ = request.reply.send(Err(ServeError::Cancelled));
        }
    }
}

/// The async serving front-end: one [`InferenceEngine`] pool, many resident
/// models, many concurrent clients. See the [module docs](self).
///
/// The server is `Sync`: share it across client threads by reference (or
/// `Arc`) and call [`Server::submit`] / [`Server::run`] concurrently.
/// Dropping it finishes the in-flight wave, cancels the queued remainder
/// (typed, never hanging) and joins the batcher and pool.
pub struct Server {
    shared: Arc<ServerShared>,
    batcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Builds a server over an engine (taking ownership of its worker pool).
    ///
    /// # Errors
    /// Returns [`ServeError::Config`] when a capacity or batch bound is zero.
    pub fn new(mut engine: InferenceEngine, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        // Apply the integrity override before the config fingerprint is
        // taken and before anything compiles: the mode is part of the
        // machine configuration every artifact records.
        if config.integrity != IntegrityMode::Off {
            engine.set_integrity(config.integrity);
        }
        let config_fingerprint = engine.machine().config().fingerprint();
        let shared = Arc::new(ServerShared {
            id: SERVER_IDS.fetch_add(1, Ordering::Relaxed),
            engine,
            config,
            config_fingerprint,
            models: Mutex::new(Vec::new()),
            queue: Mutex::new(AdmissionQueue::default()),
            arrivals: Condvar::new(),
            cache: Mutex::new(PlanCache {
                capacity: config.plan_cache_capacity,
                tick: 0,
                slots: Vec::new(),
            }),
            stats: Mutex::new(ServeStats::default()),
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(&shared))
        };
        Ok(Server {
            shared,
            batcher: Some(batcher),
        })
    }

    /// The admission configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// The engine whose pool serves every model.
    pub fn engine(&self) -> &InferenceEngine {
        &self.shared.engine
    }

    /// Registers a model for serving: validates it by compiling its plan
    /// (priming the plan cache) and returns the handle requests are submitted
    /// against. Models may be registered at any time, including while other
    /// models are being served.
    ///
    /// # Errors
    /// Returns [`ServeError::Engine`] when the model does not compile for the
    /// engine's configuration (mismatched weights, unsupported layers).
    pub fn register(
        &self,
        network: &Network,
        weights: &NetworkWeights,
    ) -> Result<ModelHandle, ServeError> {
        let entry = Arc::new(ModelEntry {
            name: network.name().to_string(),
            network: network.clone(),
            weights: weights.clone(),
            input_shape: network.input_shape(),
            fingerprint: weights.fingerprint(network),
            breaker: Mutex::new(BreakerCore::new()),
            integrity_violations: AtomicU64::new(0),
        });
        self.shared
            .plan_for(&entry)
            .map_err(|error| ServeError::Engine { error })?;
        let mut models = lock_unpoisoned(&self.shared.models);
        models.push(entry);
        Ok(ModelHandle {
            server: self.shared.id,
            index: models.len() - 1,
        })
    }

    /// Number of registered models.
    pub fn model_count(&self) -> usize {
        lock_unpoisoned(&self.shared.models).len()
    }

    /// Looks a handle up, validating provenance.
    fn entry(&self, model: ModelHandle) -> Result<Arc<ModelEntry>, ServeError> {
        if model.server != self.shared.id {
            return Err(ServeError::UnknownModel {
                detail: "handle was issued by a different server".into(),
            });
        }
        lock_unpoisoned(&self.shared.models)
            .get(model.index)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel {
                detail: format!("model index {} out of range", model.index),
            })
    }

    /// Submits one inference request — non-blocking admission.
    ///
    /// # Errors
    /// Returns [`ServeError::UnknownModel`] for a foreign handle,
    /// [`ServeError::ShapeMismatch`] when the input does not match the
    /// model, [`ServeError::ModelUnhealthy`] while the model's circuit
    /// breaker is open, [`ServeError::QueueFull`] when the admission queue
    /// is at capacity (backpressure — retry later), and
    /// [`ServeError::ShuttingDown`] during shutdown.
    pub fn submit(&self, model: ModelHandle, input: Tensor) -> Result<Ticket, ServeError> {
        let entry = self.entry(model)?;
        if input.shape() != entry.input_shape {
            return Err(ServeError::ShapeMismatch {
                detail: format!(
                    "input {} != model `{}` input {}",
                    input.shape(),
                    entry.name,
                    entry.input_shape
                ),
            });
        }
        if !entry.breaker_admits(self.shared.config.breaker_cooldown) {
            lock_unpoisoned(&self.shared.stats).breaker_rejections += 1;
            return Err(ServeError::ModelUnhealthy {
                model: entry.name.clone(),
            });
        }
        let (reply, rx) = channel();
        let admitted = {
            let mut queue = lock_unpoisoned(&self.shared.queue);
            if queue.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if queue.pending.len() >= self.shared.config.queue_capacity {
                false
            } else {
                queue.pending.push_back(Request {
                    model: model.index,
                    input,
                    submitted: Instant::now(),
                    reply,
                });
                true
            }
        };
        let mut stats = lock_unpoisoned(&self.shared.stats);
        if admitted {
            stats.submitted += 1;
            drop(stats);
            self.shared.arrivals.notify_all();
            Ok(Ticket {
                model: entry.name.clone(),
                rx,
            })
        } else {
            stats.rejected += 1;
            Err(ServeError::QueueFull {
                capacity: self.shared.config.queue_capacity,
            })
        }
    }

    /// Blocking convenience: submit and wait for the response.
    ///
    /// # Errors
    /// As [`Server::submit`], plus any error the wave resolves the ticket
    /// with.
    pub fn run(&self, model: ModelHandle, input: Tensor) -> Result<Response, ServeError> {
        self.submit(model, input)?.wait()
    }

    /// Requests currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        lock_unpoisoned(&self.shared.queue).pending.len()
    }

    /// Compiled artifacts currently resident in the plan cache.
    pub fn resident_plans(&self) -> usize {
        lock_unpoisoned(&self.shared.cache).slots.len()
    }

    /// A consistent snapshot of the server's aggregate activity, including
    /// the engine's supervision counters (respawned workers, requeued
    /// shards).
    pub fn stats(&self) -> ServeStats {
        let mut stats = lock_unpoisoned(&self.shared.stats).clone();
        stats.respawns = self.shared.engine.respawns();
        stats.requeued_shards = self.shared.engine.requeued_shards();
        stats.integrity_checks = self.shared.engine.integrity_checks();
        stats.integrity_violations = self.shared.engine.integrity_violations();
        stats.rows_healed = self.shared.engine.rows_healed();
        stats.integrity_undetected = self.shared.engine.integrity_undetected();
        stats
    }

    /// A health snapshot: pool liveness, queue depth and every model's
    /// circuit-breaker position.
    pub fn health(&self) -> ServerHealth {
        let models = lock_unpoisoned(&self.shared.models)
            .iter()
            .map(|entry| {
                let breaker = lock_unpoisoned(&entry.breaker);
                ModelHealth {
                    name: entry.name.clone(),
                    circuit: breaker.state,
                    consecutive_failures: breaker.failures,
                    integrity_violations: entry.integrity_violations.load(Ordering::Relaxed),
                }
            })
            .collect();
        ServerHealth {
            pool_alive: self.shared.engine.pool_is_alive(),
            pool_threads: self.shared.engine.threads(),
            queue_depth: self.queue_depth(),
            models,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        {
            let mut queue = lock_unpoisoned(&self.shared.queue);
            queue.shutdown = true;
        }
        self.shared.arrivals.notify_all();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
    }
}

/// The batcher: the single thread that turns the admission queue into
/// [`InferenceEngine::execute_batch`] waves.
///
/// Each iteration claims a wave leader, coalesces same-model requests up to
/// the batch cap within the latency budget (other models stay queued, in
/// order), and dispatches. On shutdown the in-flight wave completes and the
/// queued remainder resolves with [`ServeError::Cancelled`].
fn batcher_loop(shared: &Arc<ServerShared>) {
    let mut wave_id = 0u64;
    loop {
        // Claim a wave leader — or drain and exit on shutdown.
        let leader = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if queue.shutdown {
                    let drained = std::mem::take(&mut queue.pending);
                    drop(queue);
                    shared.cancel(drained);
                    return;
                }
                if let Some(request) = queue.pending.pop_front() {
                    break request;
                }
                queue = shared
                    .arrivals
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let model = leader.model;
        let mut wave = vec![leader];

        // Coalesce: sweep waiting same-model requests, then wait out the
        // remaining latency budget for more to arrive. Shutdown stops the
        // wait but the claimed wave still executes.
        let deadline = Instant::now() + shared.config.batch_window;
        {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                let mut i = 0;
                while wave.len() < shared.config.max_batch && i < queue.pending.len() {
                    if queue.pending[i].model == model {
                        match queue.pending.remove(i) {
                            Some(request) => wave.push(request),
                            None => break,
                        }
                    } else {
                        i += 1;
                    }
                }
                if wave.len() >= shared.config.max_batch || queue.shutdown {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _timeout) = shared
                    .arrivals
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        }

        wave_id += 1;
        // Last-resort containment: every failure path inside `run_wave` is
        // typed, but if something below it ever panics anyway, the wave's
        // reply senders drop (tickets resolve `Cancelled`) and the batcher
        // itself survives to serve the next wave.
        let wave_len = wave.len() as u64;
        if catch_unwind(AssertUnwindSafe(|| run_wave(shared, wave_id, model, wave))).is_err() {
            let mut stats = lock_unpoisoned(&shared.stats);
            stats.failed += wave_len;
        }
    }
}

/// Executes one coalesced wave and resolves its tickets: deadline-checks at
/// formation, retries transient engine failures with backoff (each retry is
/// a fresh fault epoch, so a recovered wave is bit-identical to a fault-free
/// one), records the outcome on the model's circuit breaker, and
/// deadline-checks again at retirement. Every path resolves every ticket
/// with a typed result.
fn run_wave(shared: &ServerShared, wave_id: u64, model: usize, wave: Vec<Request>) {
    let Some(entry) = lock_unpoisoned(&shared.models).get(model).map(Arc::clone) else {
        // Unreachable by construction (requests carry validated indices);
        // resolve rather than panic if it ever happens.
        shared.cancel(wave);
        return;
    };
    let wave_start = Instant::now();
    let request_deadline = shared.config.request_deadline;
    let mut inputs = Vec::with_capacity(wave.len());
    let mut replies = Vec::with_capacity(wave.len());
    let mut expired = Vec::new();
    for request in wave {
        // A request that already outlived its deadline in the queue is
        // resolved here instead of burning pool time on a dead answer.
        if !request_deadline.is_zero() && request.submitted.elapsed() > request_deadline {
            expired.push(request.reply);
            continue;
        }
        inputs.push(request.input);
        replies.push((request.submitted, request.reply));
    }
    if !expired.is_empty() {
        // Count before resolving, so a client woken by its reply already
        // sees the miss in `stats()`.
        lock_unpoisoned(&shared.stats).deadline_exceeded += expired.len() as u64;
        for reply in expired {
            let _ = reply.send(Err(ServeError::DeadlineExceeded {
                model: entry.name.clone(),
                deadline: request_deadline,
            }));
        }
    }
    if inputs.is_empty() {
        return;
    }

    let fail = |error: MachineError, replies: Vec<(Instant, Sender<_>)>| {
        if matches!(error, MachineError::IntegrityViolation { .. }) {
            // A final integrity violation: detection worked but healing
            // could not repair it (or Verify mode fails fast) — recorded
            // per model so `health()` can name the corrupted model.
            entry.integrity_violations.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut stats = lock_unpoisoned(&shared.stats);
            stats.failed += replies.len() as u64;
            if entry.breaker_failure(shared.config.breaker_threshold) {
                stats.breaker_trips += 1;
            }
        }
        for (_, reply) in replies {
            let _ = reply.send(Err(ServeError::Engine {
                error: error.clone(),
            }));
        }
    };

    let (artifact, plan_seconds) = match shared.plan_for(&entry) {
        Ok(planned) => planned,
        Err(error) => return fail(error, replies),
    };
    let mut attempt = 0u32;
    let batch = loop {
        match shared.engine.execute_batch(&artifact, &inputs) {
            Ok(batch) => break batch,
            Err(error) if error.is_transient() && attempt < shared.config.max_retries => {
                attempt += 1;
                lock_unpoisoned(&shared.stats).retries += 1;
                std::thread::sleep(shared.config.retry_backoff);
            }
            Err(error) => return fail(error, replies),
        }
    };
    entry.breaker_success();

    let wave_size = replies.len();
    let mut completed = 0u64;
    let mut late = 0u64;
    let mut sends = Vec::with_capacity(wave_size);
    for ((submitted, reply), output) in replies.into_iter().zip(batch.outputs) {
        // The work is done, but the latency contract is not met: a response
        // after the deadline is as good as none.
        if !request_deadline.is_zero() && submitted.elapsed() > request_deadline {
            late += 1;
            sends.push((
                reply,
                Err(ServeError::DeadlineExceeded {
                    model: entry.name.clone(),
                    deadline: request_deadline,
                }),
            ));
            continue;
        }
        completed += 1;
        sends.push((
            reply,
            Ok(Response {
                model: entry.name.clone(),
                output,
                wave: wave_id,
                wave_size,
                queue_seconds: wave_start
                    .saturating_duration_since(submitted)
                    .as_secs_f64(),
                exec_seconds: batch.wall_seconds,
                plan_seconds,
                latency_seconds: submitted.elapsed().as_secs_f64(),
            }),
        ));
    }
    {
        let mut stats = lock_unpoisoned(&shared.stats);
        stats.waves += 1;
        stats.completed += completed;
        stats.deadline_exceeded += late;
        stats.max_wave = stats.max_wave.max(wave_size);
        if wave_size > 1 {
            stats.batched_requests += wave_size as u64;
        }
        stats.busy_pe_cycles += batch.busy_pe_cycles;
        stats.work_units += batch.work_units;
        stats.counts += batch.counts;
    }
    for (reply, result) in sends {
        let _ = reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GanaxMachine;
    use ganax_models::{Activation, NetworkBuilder};
    use ganax_tensor::ConvParams;

    fn toy_network(name: &str, mid_channels: usize) -> Network {
        NetworkBuilder::new(name, Shape::new_2d(1, 4, 4))
            .tconv(
                "up",
                mid_channels,
                ConvParams::transposed_2d(4, 2, 1),
                Activation::Relu,
            )
            .conv("smooth", 1, ConvParams::conv_2d(3, 1, 1), Activation::None)
            .build()
            .unwrap()
    }

    fn toy_weights(network: &Network, seed: u64) -> NetworkWeights {
        let tensors = network
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| Tensor::deterministic(NetworkWeights::expected_shape(l), seed + i as u64))
            .collect();
        NetworkWeights::new(network, tensors).unwrap()
    }

    fn toy_server(threads: usize, config: ServeConfig) -> Server {
        Server::new(InferenceEngine::new(GanaxMachine::paper(), threads), config).unwrap()
    }

    #[test]
    fn rejects_invalid_configs() {
        for bad in [
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_capacity: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                plan_cache_capacity: 0,
                ..ServeConfig::default()
            },
        ] {
            let engine = InferenceEngine::new(GanaxMachine::paper(), 1);
            assert!(matches!(
                Server::new(engine, bad),
                Err(ServeError::Config { .. })
            ));
        }
    }

    #[test]
    fn serves_bit_identically_and_reports_warm_plans() {
        let network = toy_network("toy-a", 2);
        let weights = toy_weights(&network, 5);
        let server = toy_server(2, ServeConfig::default());
        let model = server.register(&network, &weights).unwrap();
        let machine = GanaxMachine::paper();
        for k in 0..3u64 {
            let input = Tensor::deterministic(network.input_shape(), 40 + k);
            let response = server.run(model, input.clone()).unwrap();
            let fresh = machine
                .execute_network_threaded(&network, &input, &weights, 2)
                .unwrap();
            assert_eq!(response.output, fresh.output, "request {k}");
            assert_eq!(response.plan_seconds, 0.0, "registration primed the cache");
            assert_eq!(response.model, "toy-a");
            assert!(response.wave >= 1 && response.wave_size >= 1);
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.plan_builds, 1, "one build at registration");
        assert!(stats.cache_hits >= 3);
    }

    /// The plan-cache key separates every single-bit change of any weight or
    /// bias, and re-registering identical weights hits the cached plan.
    #[test]
    fn fingerprints_separate_every_weight_bit_and_reregistration_hits_the_cache() {
        let network = toy_network("toy-fp", 2);
        let weights = toy_weights(&network, 13)
            .with_bias(0, vec![0.25, -0.5])
            .unwrap();
        let base = weights.fingerprint(&network);
        let tensors: Vec<Tensor> = (0..weights.len())
            .map(|i| weights.weight(i).clone())
            .collect();
        for layer in 0..tensors.len() {
            for index in 0..tensors[layer].len() {
                for bit in 0..32 {
                    let mut flipped = tensors.clone();
                    let value = &mut flipped[layer].data_mut()[index];
                    *value = f32::from_bits(value.to_bits() ^ (1 << bit));
                    let other = NetworkWeights::new(&network, flipped)
                        .unwrap()
                        .with_bias(0, vec![0.25, -0.5])
                        .unwrap();
                    assert_ne!(
                        other.fingerprint(&network),
                        base,
                        "layer {layer}, weight {index}, bit {bit}"
                    );
                }
            }
        }
        let bias = weights.bias(0).unwrap().to_vec();
        for index in 0..bias.len() {
            for bit in 0..32 {
                let mut flipped = bias.clone();
                flipped[index] = f32::from_bits(flipped[index].to_bits() ^ (1 << bit));
                let other = toy_weights(&network, 13).with_bias(0, flipped).unwrap();
                assert_ne!(other.fingerprint(&network), base, "bias {index}, bit {bit}");
            }
        }
        assert_ne!(
            toy_weights(&network, 13).fingerprint(&network),
            base,
            "no bias"
        );

        let server = toy_server(1, ServeConfig::default());
        server.register(&network, &weights).unwrap();
        server.register(&network, &weights.clone()).unwrap();
        let stats = server.stats();
        assert_eq!(stats.plan_builds, 1, "the second registration compiled");
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn rejects_foreign_handles_and_bad_shapes() {
        let network = toy_network("toy-b", 1);
        let weights = toy_weights(&network, 9);
        let server = toy_server(1, ServeConfig::default());
        let other = toy_server(1, ServeConfig::default());
        let model = server.register(&network, &weights).unwrap();
        assert!(matches!(
            other.submit(model, Tensor::zeros(network.input_shape())),
            Err(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            server.submit(model, Tensor::zeros(Shape::new_2d(2, 4, 4))),
            Err(ServeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn eviction_round_trips_recompile_transparently() {
        let a = toy_network("toy-a", 1);
        let b = toy_network("toy-b", 2);
        let wa = toy_weights(&a, 11);
        let wb = toy_weights(&b, 13);
        let server = toy_server(
            1,
            ServeConfig {
                plan_cache_capacity: 1,
                ..ServeConfig::default()
            },
        );
        let ha = server.register(&a, &wa).unwrap();
        let hb = server.register(&b, &wb).unwrap();
        assert_eq!(server.resident_plans(), 1, "capacity-1 cache");
        let machine = GanaxMachine::paper();
        for k in 0..2u64 {
            for (net, weights, handle) in [(&a, &wa, ha), (&b, &wb, hb)] {
                let input = Tensor::deterministic(net.input_shape(), 60 + k);
                let response = server.run(handle, input.clone()).unwrap();
                let fresh = machine
                    .execute_network_threaded(net, &input, weights, 1)
                    .unwrap();
                assert_eq!(response.output, fresh.output);
            }
        }
        let stats = server.stats();
        assert!(
            stats.cache_evictions >= 3,
            "alternating models through a capacity-1 cache must evict: {stats:?}"
        );
        assert!(stats.plan_builds >= 4, "evicted models recompile");
    }

    use ganax_sim::{FaultKind, FaultSpec};

    fn faulty_server(threads: usize, config: ServeConfig, spec: FaultSpec) -> Server {
        let machine = GanaxMachine::new(crate::GanaxConfig::paper().with_fault(spec).unwrap());
        Server::new(InferenceEngine::new(machine, threads), config).unwrap()
    }

    #[test]
    fn transient_nan_poison_is_retried_and_bit_identical() {
        let network = toy_network("toy-r", 1);
        let weights = toy_weights(&network, 17);
        let input = Tensor::deterministic(network.input_shape(), 21);
        let clean = {
            let server = toy_server(2, ServeConfig::default());
            let model = server.register(&network, &weights).unwrap();
            server.run(model, input.clone()).unwrap().output
        };
        // Poison the second layer (its activation is `None`, so NaN survives
        // to the output guard); non-persistent, so the retry epoch is clean.
        let spec = FaultSpec {
            layer: 1,
            ..FaultSpec::seeded(5, 1_000_000, FaultKind::NAN_POISON)
        };
        let server = faulty_server(2, ServeConfig::default(), spec);
        let model = server.register(&network, &weights).unwrap();
        let response = server.run(model, input).unwrap();
        assert_eq!(response.output, clean, "retried wave output");
        let stats = server.stats();
        assert!(stats.retries >= 1, "the failure was retried: {stats:?}");
        assert_eq!(stats.failed, 0, "the failure was masked");
        assert_eq!(stats.completed, 1);
        assert!(server.health().is_healthy());
    }

    #[test]
    fn persistent_failures_trip_the_breaker() {
        let network = toy_network("toy-p", 1);
        let weights = toy_weights(&network, 19);
        let input = Tensor::deterministic(network.input_shape(), 23);
        let spec = FaultSpec {
            layer: 1,
            persistent: true,
            ..FaultSpec::seeded(5, 1_000_000, FaultKind::NAN_POISON)
        };
        let config = ServeConfig {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(3600),
            max_retries: 1,
            retry_backoff: Duration::ZERO,
            ..ServeConfig::default()
        };
        let server = faulty_server(1, config, spec);
        let model = server.register(&network, &weights).unwrap();
        for k in 0..2 {
            assert!(
                matches!(
                    server.run(model, input.clone()),
                    Err(ServeError::Engine {
                        error: MachineError::NonFiniteOutput { .. }
                    })
                ),
                "persistent poison must fail every attempt (request {k})"
            );
        }
        let health = server.health();
        assert_eq!(health.models[0].circuit, CircuitState::Open);
        assert_eq!(health.models[0].consecutive_failures, 2);
        assert!(!health.is_healthy());
        assert!(matches!(
            server.submit(model, input),
            Err(ServeError::ModelUnhealthy { .. })
        ));
        let stats = server.stats();
        assert_eq!(stats.failed, 2, "final failures only");
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_rejections, 1);
        assert!(stats.retries >= 2, "each wave retried before failing");
    }

    #[test]
    fn the_breaker_state_machine_probes_and_recovers() {
        let network = toy_network("toy-m", 1);
        let weights = toy_weights(&network, 29);
        let entry = ModelEntry {
            name: "toy-m".into(),
            network: network.clone(),
            weights,
            input_shape: network.input_shape(),
            fingerprint: 0,
            breaker: Mutex::new(BreakerCore::new()),
            integrity_violations: AtomicU64::new(0),
        };
        let hour = Duration::from_secs(3600);
        assert!(entry.breaker_admits(hour), "closed admits");
        assert!(!entry.breaker_failure(2), "first failure stays closed");
        assert!(entry.breaker_failure(2), "second failure trips");
        assert!(!entry.breaker_admits(hour), "open rejects within cooldown");
        assert!(
            entry.breaker_admits(Duration::ZERO),
            "cooldown admits probe"
        );
        assert!(!entry.breaker_admits(Duration::ZERO), "one probe at a time");
        assert!(entry.breaker_failure(2), "failed probe re-trips");
        assert!(entry.breaker_admits(Duration::ZERO), "next probe");
        entry.breaker_success();
        assert!(entry.breaker_admits(hour), "successful probe closes");
        assert!(
            !entry.breaker_failure(0),
            "threshold 0 disables the breaker"
        );
        assert!(entry.breaker_admits(hour));
    }

    #[test]
    fn expired_requests_resolve_with_typed_deadline_errors() {
        let network = toy_network("toy-d", 1);
        let weights = toy_weights(&network, 31);
        let config = ServeConfig {
            request_deadline: Duration::from_nanos(1),
            ..ServeConfig::default()
        };
        let server = toy_server(1, config);
        let model = server.register(&network, &weights).unwrap();
        match server.run(model, Tensor::deterministic(network.input_shape(), 37)) {
            Err(ServeError::DeadlineExceeded { model, .. }) => assert_eq!(model, "toy-d"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.failed, 0, "a deadline miss is not an engine failure");
    }
}
