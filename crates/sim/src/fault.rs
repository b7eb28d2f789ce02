//! Deterministic, seeded fault injection for the cycle-level machine.
//!
//! The analog/memristive GAN-accelerator literature treats device variation
//! and transient faults as first-class evaluation axes; this module lets the
//! reproduction answer "what does a flaky PE do to end-to-end output and
//! throughput?" without giving up its determinism guarantees.
//!
//! A [`FaultSpec`] is a seeded, serializable schedule: which fault kinds are
//! armed ([`FaultKind`] bit flags), at what per-site rate, and optionally
//! restricted to one layer, one output row (the PE coordinate) and a window
//! of dispatch ordinals. A [`FaultInjector`] turns the spec into yes/no
//! decisions at precise *fault sites* — coordinates such as
//! `(layer, output row, dispatch ordinal, element)` that are derived from the
//! layer plan rather than from scheduling, so **the same seed reproduces the
//! same corruption at any thread count** (every pool size of the engine, and
//! every way it bundles work units into dispatches, sees identical faults).
//!
//! Decisions are pure hashes of `(seed, kind, site)` — no RNG state is
//! consumed, so query order is irrelevant. A small amount of shared state
//! remains: the *fired map*, which remembers the execution epoch in which a
//! site first fired.
//!
//! **Cost model.** An armed injector costs what it can fire, not what it
//! visits. Callers build one [`LayerFaults`] view per shard
//! ([`FaultInjector::layer`]): it settles which site families
//! ([`FaultKind::INPUT_SITES`], [`FaultKind::WEIGHT_SITES`],
//! [`FaultKind::EMIT_SITES`]) can fire in the layer, so the rest are skipped,
//! and folds each live kind's `(seed, kind, layer)` hash prefix once. Per
//! *stream* — the sites of one kind sharing `(layer, row, ordinal)` — the
//! targeting filters run once and fold the remaining coordinates. A stream's
//! sites are then decided as one *run*: hashed eight at a time and tested
//! with a branch-free prefilter that is exact because 64 divides 10⁶, so
//! only a batch holding a candidate takes the exact `% 1_000_000` test, and
//! all sites of a run that fire are armed under one fired-map lock. What a
//! live site still costs is its SplitMix64 hash.
//!
//! * **Corruption kinds** (bit flips, NaN poison, stuck lanes,
//!   dropped/duplicated µops) fire only during the epoch in which their site
//!   was first seen. Within one execution — including shards recomputed after
//!   a worker panic — the corruption is stable; a *retry* (a new epoch,
//!   [`FaultInjector::begin_epoch`]) recomputes clean, modeling a transient
//!   upset. Masked-and-retried outputs are therefore bit-identical to a
//!   fault-free run.
//! * **Worker kinds** (panic, stall) fire exactly once per site, ever, so a
//!   requeued shard completes instead of re-panicking forever.
//! * `persistent: true` bypasses the fired map entirely — every decision
//!   re-fires, modeling a hard fault that exhausts retry budgets and must
//!   surface as a typed error.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};

/// Bit-flag namespace for the fault kinds a [`FaultSpec`] can arm
/// (`spec.kinds` is an OR of these).
pub struct FaultKind;

impl FaultKind {
    /// Flip one mantissa bit of a gathered input operand (silent corruption).
    pub const INPUT_FLIP: u32 = 1 << 0;
    /// Flip one mantissa bit of a staged weight operand. Weight sites are
    /// keyed without a row coordinate: a staged weight stream serves many
    /// output rows at once on the engine path, so the flip behaves like a
    /// stuck storage bit that corrupts every load of that stream identically.
    pub const WEIGHT_FLIP: u32 = 1 << 1;
    /// Replace a gathered input operand with NaN — corruption that the
    /// non-finite output guard can detect without goldens.
    pub const NAN_POISON: u32 = 1 << 2;
    /// A stuck-at-zero SIMD lane: one output channel of a dispatch group
    /// contributes nothing for one chunk.
    pub const STUCK_LANE: u32 = 1 << 3;
    /// A dropped µop: one lane's chunk contribution is skipped entirely.
    pub const DROP_UOP: u32 = 1 << 4;
    /// A duplicated µop: one lane's chunk contribution is accumulated twice.
    pub const DUP_UOP: u32 = 1 << 5;
    /// The worker executing the shard panics mid-flight (fires once per
    /// site; supervision must requeue the shard and respawn the worker).
    pub const WORKER_PANIC: u32 = 1 << 6;
    /// The worker executing the shard stalls for [`STALL_MILLIS`] before
    /// proceeding (deadline/latency degradation without corruption).
    pub const WORKER_STALL: u32 = 1 << 7;
    /// Every defined kind.
    pub const ALL: u32 = 0xff;
    /// The kinds that corrupt data (epoch-scoped firing).
    pub const CORRUPTION: u32 = Self::INPUT_FLIP
        | Self::WEIGHT_FLIP
        | Self::NAN_POISON
        | Self::STUCK_LANE
        | Self::DROP_UOP
        | Self::DUP_UOP;
    /// The kinds that disturb workers rather than data (fire once per site).
    pub const WORKER: u32 = Self::WORKER_PANIC | Self::WORKER_STALL;
    /// The kinds decided at gathered input operands
    /// ([`LayerFaults::corrupt_inputs`]).
    pub const INPUT_SITES: u32 = Self::NAN_POISON | Self::INPUT_FLIP;
    /// The kinds decided at staged weight operands
    /// ([`LayerFaults::corrupt_weights`]).
    pub const WEIGHT_SITES: u32 = Self::WEIGHT_FLIP;
    /// The kinds decided at emitted lanes ([`LayerFaults::emit_fault`]).
    pub const EMIT_SITES: u32 = Self::STUCK_LANE | Self::DROP_UOP | Self::DUP_UOP;
}

/// How long a [`FaultKind::WORKER_STALL`] fault suspends its worker.
pub const STALL_MILLIS: u64 = 20;

/// A seeded fault schedule: all-primitive, `Copy`, JSON-round-trippable, and
/// disabled by default (`rate_ppm == 0`), so the fault-free configuration is
/// byte-identical to the pre-fault-injection one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed of every fault decision; two runs with equal specs make equal
    /// decisions at equal sites.
    pub seed: u64,
    /// Per-site firing rate in parts per million (0 disables injection
    /// entirely, 1_000_000 fires at every targeted site).
    pub rate_ppm: u32,
    /// OR of [`FaultKind`] flags naming which fault kinds are armed.
    pub kinds: u32,
    /// When true, decisions bypass the fired map: every query of a firing
    /// site re-fires, across requeues and retries (a hard fault).
    pub persistent: bool,
    /// Restrict faults to one machine layer index, or `-1` for all layers.
    pub layer: i64,
    /// Restrict faults to one output row — the PE coordinate under the
    /// row-sharded schedule — or `-1` for all rows. Sites without a row
    /// coordinate (weight streams) ignore this filter.
    pub row: i64,
    /// First dispatch ordinal of the targeted cycle window (see
    /// [`LayerFaults`] for the ordinal definition).
    pub window_start: u64,
    /// Length of the dispatch-ordinal window; 0 means unbounded.
    pub window_len: u64,
}

impl FaultSpec {
    /// The disabled schedule (the [`Default`]): no kinds armed, zero rate.
    pub fn disabled() -> Self {
        FaultSpec {
            seed: 0,
            rate_ppm: 0,
            kinds: 0,
            persistent: false,
            layer: -1,
            row: -1,
            window_start: 0,
            window_len: 0,
        }
    }

    /// An untargeted schedule firing `kinds` at `rate_ppm` under `seed`.
    pub fn seeded(seed: u64, rate_ppm: u32, kinds: u32) -> Self {
        FaultSpec {
            seed,
            rate_ppm,
            kinds,
            ..Self::disabled()
        }
    }

    /// Whether any fault can ever fire under this spec.
    pub fn is_enabled(&self) -> bool {
        self.rate_ppm > 0 && self.kinds != 0
    }

    /// Checks the spec's invariants: `kinds` within [`FaultKind::ALL`] and
    /// `rate_ppm` at most one million.
    ///
    /// # Errors
    /// Returns a static description of the first violated invariant.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.kinds & !FaultKind::ALL != 0 {
            return Err("kinds has bits outside the known fault-kind mask");
        }
        if self.rate_ppm > 1_000_000 {
            return Err("rate_ppm exceeds 1 000 000 (one fault per site)");
        }
        Ok(())
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A [`FaultSpec`] that passed [`FaultSpec::validate`] — the form the
/// machine consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Validates `spec` into a plan.
    ///
    /// # Errors
    /// Propagates [`FaultSpec::validate`].
    pub fn new(spec: FaultSpec) -> Result<Self, &'static str> {
        spec.validate()?;
        Ok(FaultPlan { spec })
    }

    /// The underlying schedule.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Builds a fresh injector (empty fired map, epoch 0) for this plan.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector::new(self.spec)
    }
}

/// What an armed fault does to one emitted lane of a dispatch group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitFault {
    /// The lane is stuck at zero: its contribution for this chunk is zeroed.
    StuckLane,
    /// The lane's µop was dropped: its contribution is skipped.
    DroppedUop,
    /// The lane's µop was duplicated: its contribution accumulates twice.
    DuplicatedUop,
}

/// What an armed fault does to the worker about to run a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker panics (supervision must recover the shard).
    Panic,
    /// The worker sleeps [`STALL_MILLIS`] before proceeding.
    Stall,
}

/// The sites of one fault kind that share `(layer, row, ordinal)` and
/// differ only in their element: the targeting filters passed, and the site
/// hash's prefix over `(seed, kind, layer, row, ordinal)` is folded once.
#[derive(Debug, Clone, Copy)]
struct FaultStream {
    prefix: u64,
    /// Worker kinds fire once ever; corruption kinds once per epoch.
    once_ever: bool,
}

/// Sites a run-level scan hashes before it tests them together.
const SCAN_BATCH: usize = 8;

/// The fired map's hasher. Its keys are SplitMix64 outputs already (the
/// program derives them from site coordinates; a spec cannot pick them), so
/// it only swaps their halves: a key that fired at a low rate has its low
/// bits pinned by `h % 1_000_000 < rate_ppm`, and the table indexes by low
/// bits. `write` folds bytes only to satisfy [`Hasher`]; keys arrive
/// through `write_u64`.
#[derive(Default)]
struct SiteHasher(u64);

impl Hasher for SiteHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Site hash → the epoch in which that site first fired.
type FiredMap = HashMap<u64, u64, BuildHasherDefault<SiteHasher>>;

/// Turns a [`FaultSpec`] into deterministic per-site decisions.
///
/// Sharable across threads (`&self` queries); one injector per *execution
/// scope* — the engine owns one for its lifetime and bumps the epoch per
/// execution, the one-shot machine path builds a fresh one per call. Sites
/// are decided through a per-layer view, [`FaultInjector::layer`].
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    epoch: AtomicU64,
    fired: Mutex<FiredMap>,
    injected: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector for `spec` (epoch 0, empty fired map).
    pub fn new(spec: FaultSpec) -> Self {
        FaultInjector {
            spec,
            epoch: AtomicU64::new(0),
            fired: Mutex::new(FiredMap::default()),
            injected: AtomicU64::new(0),
        }
    }

    /// An injector that never fires.
    pub fn disabled() -> Self {
        Self::new(FaultSpec::disabled())
    }

    /// The schedule this injector realizes.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Whether any fault can ever fire.
    pub fn is_enabled(&self) -> bool {
        self.spec.is_enabled()
    }

    /// Opens a new execution epoch. Corruption sites first seen in an
    /// earlier epoch stop firing — a retried execution recomputes clean.
    pub fn begin_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Total faults fired so far (telemetry; monotone).
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The view of machine layer `layer` every site decision goes through:
    /// the rate, the kind mask and the layer filter are settled here, and
    /// each live kind's `(seed, kind, layer)` hash prefix is folded once.
    /// Build one per shard (it is `Copy`) rather than one per decision.
    pub fn layer(&self, layer: usize) -> LayerFaults<'_> {
        let spec = self.spec;
        let targeted = spec.layer < 0 || spec.layer as u64 == layer as u64;
        let live = if spec.is_enabled() && targeted {
            spec.kinds & FaultKind::ALL
        } else {
            0
        };
        let mut prefixes = [0; 8];
        for (bit, prefix) in prefixes.iter_mut().enumerate() {
            if live & (1 << bit) != 0 {
                let seeded = spec.seed ^ 0x9e37_79b9_7f4a_7c15;
                *prefix = mix(mix(seeded ^ (1u64 << bit)) ^ layer as u64);
            }
        }
        LayerFaults {
            injector: self,
            live,
            prefixes,
        }
    }

    /// The run-level decision every site family is built on: decides sites
    /// `first..first + len` of `stream`, except the run offsets listed
    /// (ascending) in `skip`, and calls `fire(i, h)` in ascending `i` for
    /// each offset whose site fires, with the hash `h` that picks the fault's
    /// parameters (such as the flipped bit).
    ///
    /// The scan hashes [`SCAN_BATCH`] sites at a time and tests them with a
    /// branch-free prefilter, `h & 63 < min(rate_ppm, 64)`. It is exact:
    /// 64 divides 10⁶, so `h % 1_000_000 < rate_ppm` implies
    /// `h % 64 < rate_ppm`, and a batch no site passes holds no firing site.
    /// Only a batch with a candidate takes the exact test, and every site
    /// that passes it is armed under one fired-map lock and counted with one
    /// add.
    fn fire_run(
        &self,
        stream: FaultStream,
        first: u64,
        len: usize,
        skip: &[usize],
        mut fire: impl FnMut(usize, u64),
    ) {
        let rate = u64::from(self.spec.rate_ppm);
        let coarse = rate.min(64);
        let hash = |i: usize| mix(stream.prefix ^ first.wrapping_add(i as u64));
        let mut hits: Vec<(usize, u64)> = Vec::new();
        let mut test = |i: usize, h: u64| {
            if h % 1_000_000 < rate && skip.binary_search(&i).is_err() {
                hits.push((i, h));
            }
        };
        let batched = len - len % SCAN_BATCH;
        for base in (0..batched).step_by(SCAN_BATCH) {
            let h: [u64; SCAN_BATCH] = std::array::from_fn(|k| hash(base + k));
            if h.iter().fold(false, |any, &h| any | (h & 63 < coarse)) {
                for (k, &h) in h.iter().enumerate() {
                    test(base + k, h);
                }
            }
        }
        for i in batched..len {
            test(i, hash(i));
        }
        if hits.is_empty() {
            return;
        }
        if !self.spec.persistent {
            let epoch = self.epoch.load(Ordering::Relaxed);
            let mut fired = self.fired.lock().unwrap_or_else(PoisonError::into_inner);
            hits.retain(|&(_, h)| match fired.entry(h) {
                Entry::Vacant(slot) => {
                    slot.insert(epoch);
                    true
                }
                Entry::Occupied(slot) => !stream.once_ever && *slot.get() == epoch,
            });
        }
        self.injected
            .fetch_add(hits.len() as u64, Ordering::Relaxed);
        for (i, h) in hits {
            fire(i, mix(h));
        }
    }
}

/// One machine layer's view of a [`FaultInjector`] ([`FaultInjector::layer`]):
/// which kinds can fire in the layer, and each one's folded hash prefix.
///
/// **Sites.** Each decision is a pure hash of `(seed, kind, layer, row,
/// ordinal, element)`. `ordinal` is the dispatch ordinal of the work unit —
/// `((ky * ci_count + ci) * n_chunks + chunk) * co_count`, plus the first
/// channel of the chunk's channel group for weight and emit sites — a pure
/// function of the layer plan, identical at every thread count.
#[derive(Debug, Clone, Copy)]
pub struct LayerFaults<'a> {
    injector: &'a FaultInjector,
    /// The kinds that can fire in this layer (0 when none can).
    live: u32,
    /// Per kind bit, the site hash's prefix folded over `(seed, kind,
    /// layer)` (meaningful only for the bits of `live`).
    prefixes: [u64; 8],
}

impl LayerFaults<'_> {
    /// Whether any kind in `kinds` (one site family, such as
    /// [`FaultKind::INPUT_SITES`]) can fire in this layer. A caller that
    /// gets `false` skips that family for the whole layer.
    pub fn may_fire(&self, kinds: u32) -> bool {
        self.live & kinds != 0
    }

    /// Possibly corrupts a gathered input stream in place: element `e` of
    /// `buf` is the input site `(layer, row, ordinal, e)`. NaN poison is
    /// decided first; a site it does not fire at may take a mantissa flip.
    pub fn corrupt_inputs(&self, row: usize, ordinal: u64, buf: &mut [f32]) {
        let nan = self.stream(FaultKind::NAN_POISON, Some(row), Some(ordinal));
        let flip = self.stream(FaultKind::INPUT_FLIP, Some(row), Some(ordinal));
        let inj = self.injector;
        // The offsets NaN fired at, which the flip scan must not consult
        // (kept only when a flip can follow).
        let mut poisoned = Vec::new();
        if let Some(nan) = nan {
            inj.fire_run(nan, 0, buf.len(), &[], |i, _| {
                buf[i] = f32::NAN;
                if flip.is_some() {
                    poisoned.push(i);
                }
            });
        }
        if let Some(flip) = flip {
            inj.fire_run(flip, 0, buf.len(), &poisoned, |i, h| {
                buf[i] = flip_mantissa(buf[i], h);
            });
        }
    }

    /// Possibly corrupts a run of staged weight words in place: the weight
    /// sites `(layer, ordinal, first + i)` for `i < len`, where site
    /// `first + i` is the word `buf[i / piece * stride + i % piece]` —
    /// `piece` consecutive words per channel, each channel's piece `stride`
    /// words after the one before — so one call covers a channel group's
    /// pieces of a staged dispatch. Weight sites carry no row coordinate
    /// (the stream is shared across rows — see [`FaultKind::WEIGHT_FLIP`]),
    /// so every load of the same stream corrupts identically.
    pub fn corrupt_weights(
        &self,
        ordinal: u64,
        first: usize,
        len: usize,
        piece: usize,
        stride: usize,
        buf: &mut [f32],
    ) {
        let Some(flip) = self.stream(FaultKind::WEIGHT_FLIP, None, Some(ordinal)) else {
            return;
        };
        self.injector
            .fire_run(flip, first as u64, len, &[], |i, h| {
                let word = &mut buf[i / piece * stride + i % piece];
                *word = flip_mantissa(*word, h);
            });
    }

    /// Decides whether the emitted contribution of `lane` (the output
    /// channel offset within the dispatch group) is disturbed for this work
    /// unit.
    pub fn emit_fault(&self, row: usize, ordinal: u64, lane: usize) -> Option<EmitFault> {
        [
            (FaultKind::STUCK_LANE, EmitFault::StuckLane),
            (FaultKind::DROP_UOP, EmitFault::DroppedUop),
            (FaultKind::DUP_UOP, EmitFault::DuplicatedUop),
        ]
        .into_iter()
        .find(|&(kind, _)| self.fires(kind, Some(row), Some(ordinal), lane as u64))
        .map(|(_, fault)| fault)
    }

    /// Decides whether the worker about to run a shard of this layer
    /// anchored at output row `row` is disturbed. Worker sites fire **once
    /// ever** (unless `persistent`), so a requeued shard completes.
    pub fn worker_fault(&self, row: usize) -> Option<WorkerFault> {
        [
            (FaultKind::WORKER_PANIC, WorkerFault::Panic),
            (FaultKind::WORKER_STALL, WorkerFault::Stall),
        ]
        .into_iter()
        .find(|&(kind, _)| self.fires(kind, Some(row), None, 0))
        .map(|(_, fault)| fault)
    }

    /// Whether the single site `element` of the `kind` stream at `(row,
    /// ordinal)` fires.
    fn fires(&self, kind: u32, row: Option<usize>, ordinal: Option<u64>, element: u64) -> bool {
        let mut fired = false;
        if let Some(stream) = self.stream(kind, row, ordinal) {
            self.injector
                .fire_run(stream, element, 1, &[], |_, _| fired = true);
        }
        fired
    }

    /// The per-stream half of a decision: applies the kind mask and the row
    /// and window filters once for every site of `kind` at `(row,
    /// ordinal)`, and folds those coordinates into the layer's prefix.
    /// `None` when no such site can fire.
    fn stream(&self, kind: u32, row: Option<usize>, ordinal: Option<u64>) -> Option<FaultStream> {
        let spec = self.injector.spec;
        if self.live & kind == 0 {
            return None;
        }
        if row.is_some_and(|r| spec.row >= 0 && spec.row as u64 != r as u64) {
            return None;
        }
        if let Some(ordinal) = ordinal {
            let end = spec.window_start.saturating_add(spec.window_len);
            if spec.window_len > 0 && (ordinal < spec.window_start || ordinal >= end) {
                return None;
            }
        }
        let prefix = self.prefixes[kind.trailing_zeros() as usize];
        let prefix = mix(prefix ^ row.map_or(u64::MAX, |r| r as u64));
        Some(FaultStream {
            prefix: mix(prefix ^ ordinal.unwrap_or(u64::MAX)),
            once_ever: kind & FaultKind::WORKER != 0,
        })
    }
}

/// SplitMix64 finalizer — the workspace's standard bit mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Flips one mantissa bit (chosen from the site hash) of `value` — silent
/// corruption that stays finite.
fn flip_mantissa(value: f32, h: u64) -> f32 {
    let bit = (h % 23) as u32;
    f32::from_bits(value.to_bits() ^ (1u32 << bit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(rate_ppm: u32, kinds: u32) -> FaultSpec {
        FaultSpec::seeded(0xFA_17, rate_ppm, kinds)
    }

    /// Element `element` of the input stream `(layer, row, ordinal)` holding
    /// `value` at every element, after [`LayerFaults::corrupt_inputs`].
    fn corrupt_input(
        inj: &FaultInjector,
        (layer, row, ordinal): (usize, usize, u64),
        element: usize,
        value: f32,
    ) -> f32 {
        let mut buf = vec![value; element + 1];
        inj.layer(layer).corrupt_inputs(row, ordinal, &mut buf);
        buf[element]
    }

    #[test]
    fn disabled_spec_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        assert!(!inj.layer(0).may_fire(FaultKind::ALL));
        assert_eq!(corrupt_input(&inj, (0, 0, 0), 0, 1.5), 1.5);
        assert_eq!(inj.layer(0).emit_fault(0, 0, 0), None);
        assert_eq!(inj.layer(0).worker_fault(0), None);
        assert_eq!(inj.injected_faults(), 0);
    }

    #[test]
    fn decisions_are_deterministic_across_injectors_and_query_order() {
        let s = spec(200_000, FaultKind::ALL);
        let a = FaultInjector::new(s);
        let b = FaultInjector::new(s);
        a.begin_epoch();
        b.begin_epoch();
        let mut streams: Vec<(usize, usize, u64)> = Vec::new();
        for layer in 0..3 {
            for row in 0..4 {
                for ordinal in 0..8 {
                    streams.push((layer, row, ordinal));
                }
            }
        }
        let corrupt = |inj: &FaultInjector, &(l, r, o): &(usize, usize, u64)| {
            let mut buf = [1.0f32; 4];
            inj.layer(l).corrupt_inputs(r, o, &mut buf);
            buf
        };
        let forward: Vec<[f32; 4]> = streams.iter().map(|site| corrupt(&a, site)).collect();
        let mut reverse: Vec<[f32; 4]> =
            streams.iter().rev().map(|site| corrupt(&b, site)).collect();
        reverse.reverse();
        let bits =
            |v: &[[f32; 4]]| -> Vec<u32> { v.iter().flatten().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&forward), bits(&reverse));
        assert!(
            bits(&forward).iter().any(|&x| x != 1.0f32.to_bits()),
            "a 20% rate over {} sites fired nothing",
            4 * streams.len()
        );
    }

    #[test]
    fn corruption_fires_within_an_epoch_and_clears_on_the_next() {
        let inj = FaultInjector::new(spec(1_000_000, FaultKind::NAN_POISON));
        inj.begin_epoch();
        assert!(corrupt_input(&inj, (0, 0, 0), 0, 1.0).is_nan());
        // Same epoch (a requeued shard recomputing): identical corruption.
        assert!(corrupt_input(&inj, (0, 0, 0), 0, 1.0).is_nan());
        // New epoch (a retry): clean.
        inj.begin_epoch();
        assert_eq!(corrupt_input(&inj, (0, 0, 0), 0, 1.0), 1.0);
    }

    #[test]
    fn worker_faults_fire_once_ever() {
        let inj = FaultInjector::new(spec(1_000_000, FaultKind::WORKER_PANIC));
        inj.begin_epoch();
        let layer = inj.layer(0);
        assert_eq!(layer.worker_fault(0), Some(WorkerFault::Panic));
        assert_eq!(layer.worker_fault(0), None);
        inj.begin_epoch();
        assert_eq!(layer.worker_fault(0), None);
        assert_eq!(layer.worker_fault(1), Some(WorkerFault::Panic));
    }

    #[test]
    fn persistent_specs_bypass_the_fired_map() {
        let mut s = spec(1_000_000, FaultKind::WORKER_PANIC | FaultKind::NAN_POISON);
        s.persistent = true;
        let inj = FaultInjector::new(s);
        inj.begin_epoch();
        assert!(corrupt_input(&inj, (0, 0, 0), 0, 2.0).is_nan());
        assert_eq!(inj.layer(0).worker_fault(0), Some(WorkerFault::Panic));
        inj.begin_epoch();
        assert!(corrupt_input(&inj, (0, 0, 0), 0, 2.0).is_nan());
        assert_eq!(inj.layer(0).worker_fault(0), Some(WorkerFault::Panic));
    }

    #[test]
    fn targeting_filters_restrict_layer_row_and_window() {
        let mut s = spec(1_000_000, FaultKind::NAN_POISON);
        s.layer = 1;
        s.row = 2;
        s.window_start = 10;
        s.window_len = 5;
        let inj = FaultInjector::new(s);
        inj.begin_epoch();
        assert!(inj.layer(1).may_fire(FaultKind::INPUT_SITES));
        assert!(
            !inj.layer(0).may_fire(FaultKind::INPUT_SITES),
            "wrong layer"
        );
        assert!(
            !inj.layer(1).may_fire(FaultKind::EMIT_SITES),
            "unarmed kinds"
        );
        assert!(corrupt_input(&inj, (1, 2, 12), 0, 1.0).is_nan());
        assert_eq!(corrupt_input(&inj, (0, 2, 12), 0, 1.0), 1.0, "wrong layer");
        assert_eq!(corrupt_input(&inj, (1, 3, 12), 0, 1.0), 1.0, "wrong row");
        assert_eq!(corrupt_input(&inj, (1, 2, 9), 0, 1.0), 1.0, "before window");
        assert_eq!(corrupt_input(&inj, (1, 2, 15), 0, 1.0), 1.0, "after window");
    }

    #[test]
    fn weight_sites_ignore_the_row_filter_and_share_across_rows() {
        let mut s = spec(1_000_000, FaultKind::WEIGHT_FLIP);
        s.row = 3;
        let inj = FaultInjector::new(s);
        inj.begin_epoch();
        let load = || {
            let mut buf = [1.0f32; 2];
            inj.layer(0).corrupt_weights(7, 0, 2, 2, 2, &mut buf);
            buf[1]
        };
        let corrupted = load();
        assert_ne!(corrupted.to_bits(), 1.0f32.to_bits());
        // The same stream element corrupts identically on a later load, and
        // a slice starting at that element sees it as its first word.
        assert_eq!(load().to_bits(), corrupted.to_bits());
        let mut tail = [1.0f32];
        inj.layer(0).corrupt_weights(7, 1, 1, 1, 1, &mut tail);
        assert_eq!(tail[0].to_bits(), corrupted.to_bits());
    }

    #[test]
    fn mantissa_flips_stay_finite() {
        let inj = FaultInjector::new(spec(1_000_000, FaultKind::INPUT_FLIP));
        inj.begin_epoch();
        let mut buf = [3.25f32; 64];
        inj.layer(0).corrupt_inputs(0, 0, &mut buf);
        for (element, v) in buf.iter().enumerate() {
            assert!(v.is_finite(), "element {element} produced {v}");
        }
    }

    #[test]
    fn emit_faults_pick_a_single_kind_per_lane() {
        let inj = FaultInjector::new(spec(500_000, FaultKind::STUCK_LANE | FaultKind::DROP_UOP));
        inj.begin_epoch();
        let mut fired = 0;
        for ordinal in 0..64 {
            for lane in 0..8 {
                if inj.layer(0).emit_fault(0, ordinal, lane).is_some() {
                    fired += 1;
                }
            }
        }
        assert!(fired > 0, "a 50% rate over 512 lanes fired nothing");
        assert_eq!(inj.injected_faults(), fired);
    }

    #[test]
    fn specs_validate_and_round_trip_through_plans() {
        assert!(FaultSpec::disabled().validate().is_ok());
        let mut bad = FaultSpec::disabled();
        bad.kinds = FaultKind::ALL + 1;
        assert!(bad.validate().is_err());
        let mut hot = FaultSpec::disabled();
        hot.rate_ppm = 1_000_001;
        assert!(hot.validate().is_err());

        let plan = FaultPlan::new(spec(10, FaultKind::ALL)).expect("valid spec");
        assert_eq!(plan.spec(), spec(10, FaultKind::ALL));
        assert!(plan.injector().is_enabled());
    }

    /// The per-site decision the stream split and the run-level scan
    /// replaced, kept as their oracle: every query re-applies the kind mask
    /// and the filters, hashes all five site coordinates, takes the exact
    /// `% 1_000_000` test and consults the fired map on its own.
    struct PerSite {
        spec: FaultSpec,
        epoch: u64,
        fired: HashMap<u64, u64>,
        injected: u64,
    }

    impl PerSite {
        fn fire(
            &mut self,
            kind: u32,
            layer: usize,
            row: Option<usize>,
            ordinal: Option<u64>,
            element: u64,
        ) -> Option<u64> {
            let s = self.spec;
            let layer_ok = s.layer < 0 || s.layer as u64 == layer as u64;
            let row_ok = row.is_none_or(|r| s.row < 0 || s.row as u64 == r as u64);
            let window_ok = ordinal.is_none_or(|o| {
                s.window_len == 0
                    || (o >= s.window_start && o < s.window_start.saturating_add(s.window_len))
            });
            if s.kinds & kind == 0 || !layer_ok || !row_ok || !window_ok {
                return None;
            }
            let mut h = s.seed ^ 0x9e37_79b9_7f4a_7c15;
            for v in [
                u64::from(kind),
                layer as u64,
                row.map_or(u64::MAX, |r| r as u64),
                ordinal.unwrap_or(u64::MAX),
                element,
            ] {
                h = mix(h ^ v);
            }
            if h % 1_000_000 >= u64::from(s.rate_ppm) {
                return None;
            }
            if !s.persistent {
                let once_ever = kind & FaultKind::WORKER != 0;
                match self.fired.entry(h) {
                    Entry::Vacant(slot) => {
                        slot.insert(self.epoch);
                    }
                    Entry::Occupied(slot) => {
                        if once_ever || *slot.get() != self.epoch {
                            return None;
                        }
                    }
                }
            }
            self.injected += 1;
            Some(mix(h))
        }
    }

    /// `-1` (no filter) when `pick` is `none`, else `pick`.
    fn filter(pick: u64, none: u64) -> i64 {
        if pick == none {
            -1
        } else {
            pick as i64
        }
    }

    /// The prefilter's boundary: for every rate 1..=64, a site whose hash
    /// leaves `h % 1_000_000 == rate - 1` is alone in passing the
    /// prefilter's `h & 63 < rate` in most batches, and it must fire at that
    /// rate and not at the rate below — in a batch-aligned run and as a
    /// tail site. Random rates rarely land a site on the boundary.
    #[test]
    fn sites_at_the_prefilter_boundary_fire() {
        let kind = FaultKind::INPUT_FLIP;
        let seed = 0xB0_0DA7;
        let probe = FaultInjector::new(FaultSpec::seeded(seed, 1, kind));
        // For each remainder below 64, the first `(ordinal, element)` site
        // whose hash leaves it.
        let mut boundary = [None; 64];
        let mut found = 0;
        'scan: for ordinal in 0.. {
            let stream = probe.layer(0).stream(kind, Some(0), Some(ordinal)).unwrap();
            for element in 0..1u64 << 16 {
                let r = (mix(stream.prefix ^ element) % 1_000_000) as usize;
                if r < 64 && boundary[r].is_none() {
                    boundary[r] = Some((ordinal, element));
                    found += 1;
                    if found == 64 {
                        break 'scan;
                    }
                }
            }
        }
        for (r, site) in boundary.into_iter().enumerate() {
            let (ordinal, element) = site.unwrap();
            for rate in [r as u32, r as u32 + 1] {
                let inj = FaultInjector::new(FaultSpec::seeded(seed, rate, kind));
                inj.begin_epoch();
                let stream = inj.layer(0).stream(kind, Some(0), Some(ordinal));
                let aligned = element - element % SCAN_BATCH as u64;
                for (first, len) in [(aligned, SCAN_BATCH), (element, 1)] {
                    let mut fired = Vec::new();
                    if let Some(s) = stream {
                        inj.fire_run(s, first, len, &[], |i, _| fired.push(first + i as u64));
                    }
                    let expected = if rate as usize > r {
                        vec![element]
                    } else {
                        vec![]
                    };
                    assert_eq!(
                        fired, expected,
                        "remainder {r}, rate {rate}, run at {first}"
                    );
                }
            }
        }
    }

    /// A rate in ppm: every site, one of the prefilter's rates (1..=64) or
    /// any rate, zero included, by `pick`.
    fn rate_of(pick: u32, draw: u32) -> u32 {
        match pick {
            0 => 1_000_000,
            1 => 1 + draw % 64,
            _ => draw % 1_000_001,
        }
    }

    /// A run length: short, or at least 10⁵ sites (one case in eight).
    fn run_len(pick: u8, draw: u64) -> usize {
        if pick == 0 {
            100_000 + (draw % 20_000) as usize
        } else {
            1 + (draw % 40) as usize
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Over random seeds, rates, kinds, filters, coordinates and run
        /// lengths, the run-level decision (targeting and hash prefix once
        /// per stream, the batched prefilter, one fired-map lock per run)
        /// equals the per-site decision: which sites fire, the mixed hash
        /// each fires with (so the flipped bit), and the fired map's effect
        /// across two epochs and repeated queries, for corruption
        /// (per-epoch) and worker (once-ever) kinds, persistent or not.
        #[test]
        fn prop_hoisted_decisions_match_per_site_decisions(
            seed in 0u64..u64::MAX,
            rate_pick in 0u32..4,
            rate in 0u32..1_000_001,
            kinds in 0u32..256,
            persistent in 0u8..2,
            spec_layer in 0u64..4,
            spec_row in 0u64..5,
            window_start in 0u64..8,
            window_len in 0u64..6,
            kind_bit in 0u32..8,
            layer in 0usize..3,
            row in 0usize..5,
            row_coord in 0u8..2,
            ordinal in 0u64..12,
            ordinal_coord in 0u8..2,
            first in 0u64..100_000,
            len_pick in 0u8..8,
            len in 0u64..u64::MAX,
        ) {
            let spec = FaultSpec {
                seed,
                rate_ppm: rate_of(rate_pick.min(2), rate),
                kinds,
                persistent: persistent == 1,
                layer: filter(spec_layer, 3),
                row: filter(spec_row, 4),
                window_start,
                window_len,
            };
            let kind = 1u32 << kind_bit;
            let row = (row_coord == 1).then_some(row);
            let ordinal = (ordinal_coord == 1).then_some(ordinal);
            let len = run_len(len_pick, len);
            let inj = FaultInjector::new(spec);
            let mut oracle = PerSite { spec, epoch: 0, fired: HashMap::new(), injected: 0 };
            for _ in 0..2 {
                inj.begin_epoch();
                oracle.epoch += 1;
                let stream = inj.layer(layer).stream(kind, row, ordinal);
                for _ in 0..2 {
                    let mut run = Vec::new();
                    if let Some(s) = stream {
                        inj.fire_run(s, first, len, &[], |i, h| run.push((i, h)));
                    }
                    let per_site: Vec<(usize, u64)> = (0..len)
                        .filter_map(|i| {
                            oracle
                                .fire(kind, layer, row, ordinal, first + i as u64)
                                .map(|h| (i, h))
                        })
                        .collect();
                    prop_assert_eq!(run, per_site);
                }
            }
            prop_assert_eq!(inj.injected_faults(), oracle.injected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// With NaN poison and both flips armed, `corrupt_inputs` and a
        /// strided `corrupt_weights` run leave every word bit-identical to
        /// the per-site decisions applied word by word — NaN first, and a
        /// flip consulted only where NaN did not fire — across two epochs
        /// and repeated loads, over short and ≥ 10⁵-site runs.
        #[test]
        fn prop_corruption_runs_match_per_site_decisions(
            seed in 0u64..u64::MAX,
            rate_pick in 0u32..3,
            rate in 0u32..1_000_001,
            weight_flips in 0u32..2,
            persistent in 0u8..2,
            row in 0usize..4,
            ordinal in 0u64..1_000,
            first in 0usize..1_000,
            piece in 1usize..12,
            gap in 0usize..3,
            len_pick in 0u8..2,
            len in 0u64..u64::MAX,
        ) {
            // NaN and input flips armed together, weight flips alongside.
            let kinds = FaultKind::NAN_POISON
                | FaultKind::INPUT_FLIP
                | (weight_flips * FaultKind::WEIGHT_FLIP);
            let spec = FaultSpec {
                persistent: persistent == 1,
                ..FaultSpec::seeded(seed, rate_of(rate_pick, rate), kinds)
            };
            let len = run_len(len_pick, len);
            let stride = piece + gap;
            let value = |i: usize| 1.0 + i as f32 / 64.0;
            let inj = FaultInjector::new(spec);
            let mut oracle = PerSite { spec, epoch: 0, fired: HashMap::new(), injected: 0 };
            for _ in 0..2 {
                inj.begin_epoch();
                oracle.epoch += 1;
                for _ in 0..2 {
                    let mut inputs: Vec<f32> = (0..len).map(value).collect();
                    inj.layer(1).corrupt_inputs(row, ordinal, &mut inputs);
                    let per_site: Vec<f32> = (0..len)
                        .map(|e| {
                            let site = |o: &mut PerSite, kind| {
                                o.fire(kind, 1, Some(row), Some(ordinal), e as u64)
                            };
                            if site(&mut oracle, FaultKind::NAN_POISON).is_some() {
                                f32::NAN
                            } else if let Some(h) = site(&mut oracle, FaultKind::INPUT_FLIP) {
                                flip_mantissa(value(e), h)
                            } else {
                                value(e)
                            }
                        })
                        .collect();
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&inputs), bits(&per_site));

                    let words = len.div_ceil(piece) * stride;
                    let mut weights: Vec<f32> = (0..words).map(value).collect();
                    inj.layer(1).corrupt_weights(ordinal, first, len, piece, stride, &mut weights);
                    let mut per_site: Vec<f32> = (0..words).map(value).collect();
                    for i in 0..len {
                        let site = (first + i) as u64;
                        if let Some(h) = oracle.fire(FaultKind::WEIGHT_FLIP, 1, None, Some(ordinal), site) {
                            let word = &mut per_site[i / piece * stride + i % piece];
                            *word = flip_mantissa(*word, h);
                        }
                    }
                    prop_assert_eq!(bits(&weights), bits(&per_site));
                }
            }
            prop_assert_eq!(inj.injected_faults(), oracle.injected);
        }
    }
}
