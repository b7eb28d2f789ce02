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
//! visits. Callers settle per layer, with [`FaultInjector::may_fire`], which
//! site families ([`FaultKind::INPUT_SITES`], [`FaultKind::WEIGHT_SITES`],
//! [`FaultKind::EMIT_SITES`]) can fire at all, and skip the rest. Within a
//! live family each decision splits in two: per *stream* — the sites of one
//! kind sharing `(layer, row, ordinal)` — the kind mask and the targeting
//! filters run once and fold the coordinates into the site hash's prefix;
//! per *element* a live site then costs one mix and one compare. Only a
//! site that fires takes the fired-map lock.
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
    /// ([`FaultInjector::corrupt_inputs`]).
    pub const INPUT_SITES: u32 = Self::NAN_POISON | Self::INPUT_FLIP;
    /// The kinds decided at staged weight operands
    /// ([`FaultInjector::corrupt_weights`]).
    pub const WEIGHT_SITES: u32 = Self::WEIGHT_FLIP;
    /// The kinds decided at emitted lanes ([`FaultInjector::emit_fault`]).
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
    /// [`FaultInjector::corrupt_inputs`] for the ordinal definition).
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

/// Turns a [`FaultSpec`] into deterministic per-site decisions.
///
/// Sharable across threads (`&self` queries); one injector per *execution
/// scope* — the engine owns one for its lifetime and bumps the epoch per
/// execution, the one-shot machine path builds a fresh one per call.
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    epoch: AtomicU64,
    fired: Mutex<HashMap<u64, u64>>,
    injected: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector for `spec` (epoch 0, empty fired map).
    pub fn new(spec: FaultSpec) -> Self {
        FaultInjector {
            spec,
            epoch: AtomicU64::new(0),
            fired: Mutex::new(HashMap::new()),
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

    /// Whether any kind in `kinds` can fire anywhere in machine layer
    /// `layer`: the kind mask, the rate and the layer filter. A caller that
    /// gets `false` skips that site family for the whole layer.
    pub fn may_fire(&self, kinds: u32, layer: usize) -> bool {
        self.is_enabled() && self.spec.kinds & kinds != 0 && self.targets(layer, None, None)
    }

    /// Possibly corrupts a gathered input stream in place: element `e` of
    /// `buf` is the input site `(layer, row, ordinal, e)`. NaN poison is
    /// decided first; a site it does not fire at may take a mantissa flip.
    ///
    /// `ordinal` is the dispatch ordinal of the work unit —
    /// `((ky * ci_count + ci) * n_chunks + chunk) * co_count`, plus the first
    /// channel of the chunk's channel group for weight and emit sites — a
    /// pure function of the layer plan, identical at every thread count.
    pub fn corrupt_inputs(&self, layer: usize, row: usize, ordinal: u64, buf: &mut [f32]) {
        let nan = self.stream(FaultKind::NAN_POISON, layer, Some(row), Some(ordinal));
        let flip = self.stream(FaultKind::INPUT_FLIP, layer, Some(row), Some(ordinal));
        if nan.is_none() && flip.is_none() {
            return;
        }
        for (element, value) in buf.iter_mut().enumerate() {
            let element = element as u64;
            if nan.is_some_and(|s| self.fire(s, element).is_some()) {
                *value = f32::NAN;
            } else if let Some(h) = flip.and_then(|s| self.fire(s, element)) {
                *value = flip_mantissa(*value, h);
            }
        }
    }

    /// Possibly corrupts a staged weight slice in place: element `e` of
    /// `buf` is the weight site `(layer, ordinal, first + e)`. Weight sites
    /// carry no row coordinate (the stream is shared across rows — see
    /// [`FaultKind::WEIGHT_FLIP`]), so every load of the same stream
    /// corrupts identically.
    pub fn corrupt_weights(&self, layer: usize, ordinal: u64, first: usize, buf: &mut [f32]) {
        let Some(flip) = self.stream(FaultKind::WEIGHT_FLIP, layer, None, Some(ordinal)) else {
            return;
        };
        for (element, value) in buf.iter_mut().enumerate() {
            if let Some(h) = self.fire(flip, (first + element) as u64) {
                *value = flip_mantissa(*value, h);
            }
        }
    }

    /// Decides whether the emitted contribution of `lane` (the output
    /// channel offset within the dispatch group) is disturbed for this work
    /// unit.
    pub fn emit_fault(
        &self,
        layer: usize,
        row: usize,
        ordinal: u64,
        lane: usize,
    ) -> Option<EmitFault> {
        [
            (FaultKind::STUCK_LANE, EmitFault::StuckLane),
            (FaultKind::DROP_UOP, EmitFault::DroppedUop),
            (FaultKind::DUP_UOP, EmitFault::DuplicatedUop),
        ]
        .into_iter()
        .find(|&(kind, _)| {
            self.stream(kind, layer, Some(row), Some(ordinal))
                .is_some_and(|s| self.fire(s, lane as u64).is_some())
        })
        .map(|(_, fault)| fault)
    }

    /// Decides whether the worker about to run a shard of `layer` anchored
    /// at output row `row` is disturbed. Worker sites fire **once ever**
    /// (unless `persistent`), so a requeued shard completes.
    pub fn worker_fault(&self, layer: usize, row: usize) -> Option<WorkerFault> {
        [
            (FaultKind::WORKER_PANIC, WorkerFault::Panic),
            (FaultKind::WORKER_STALL, WorkerFault::Stall),
        ]
        .into_iter()
        .find(|&(kind, _)| {
            self.stream(kind, layer, Some(row), None)
                .is_some_and(|s| self.fire(s, 0).is_some())
        })
        .map(|(_, fault)| fault)
    }

    /// The per-stream half of a decision: applies the kind mask and the
    /// layer, row and window filters once for every site of `kind` at
    /// `(layer, row, ordinal)`, and folds those coordinates into the site
    /// hash's prefix. `None` when no such site can fire.
    fn stream(
        &self,
        kind: u32,
        layer: usize,
        row: Option<usize>,
        ordinal: Option<u64>,
    ) -> Option<FaultStream> {
        if !self.is_enabled() || self.spec.kinds & kind == 0 || !self.targets(layer, row, ordinal) {
            return None;
        }
        let mut prefix = self.spec.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [
            u64::from(kind),
            layer as u64,
            row.map_or(u64::MAX, |r| r as u64),
            ordinal.unwrap_or(u64::MAX),
        ] {
            prefix = mix(prefix ^ v);
        }
        Some(FaultStream {
            prefix,
            once_ever: kind & FaultKind::WORKER != 0,
        })
    }

    /// The per-element half of a decision: does the site `element` of
    /// `stream` fire? One mix and one compare; returns the site's mixed
    /// hash (for deriving fault parameters such as the flipped bit) when it
    /// does.
    #[inline]
    fn fire(&self, stream: FaultStream, element: u64) -> Option<u64> {
        let h = mix(stream.prefix ^ element);
        if h % 1_000_000 >= u64::from(self.spec.rate_ppm) {
            return None;
        }
        self.fired(h, stream.once_ever)
    }

    /// The firing branch: consults the fired map and counts the fault.
    #[cold]
    #[inline(never)]
    fn fired(&self, h: u64, once_ever: bool) -> Option<u64> {
        if !self.arm(h, once_ever) {
            return None;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(mix(h))
    }

    /// Applies the spec's layer/row/window targeting filters.
    fn targets(&self, layer: usize, row: Option<usize>, ordinal: Option<u64>) -> bool {
        if self.spec.layer >= 0 && self.spec.layer as u64 != layer as u64 {
            return false;
        }
        if let Some(row) = row {
            if self.spec.row >= 0 && self.spec.row as u64 != row as u64 {
                return false;
            }
        }
        if let Some(ordinal) = ordinal {
            if self.spec.window_len > 0 {
                let end = self.spec.window_start.saturating_add(self.spec.window_len);
                if ordinal < self.spec.window_start || ordinal >= end {
                    return false;
                }
            }
        }
        true
    }

    /// Consults the fired map: corruption sites fire while the current epoch
    /// equals the epoch they first fired in; `once_ever` sites fire only on
    /// their very first query; `persistent` specs always fire.
    fn arm(&self, key: u64, once_ever: bool) -> bool {
        if self.spec.persistent {
            return true;
        }
        let epoch = self.epoch.load(Ordering::Relaxed);
        let mut fired = self.fired.lock().unwrap_or_else(PoisonError::into_inner);
        match fired.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(epoch);
                true
            }
            Entry::Occupied(slot) => !once_ever && *slot.get() == epoch,
        }
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
    /// `value` at every element, after [`FaultInjector::corrupt_inputs`].
    fn corrupt_input(
        inj: &FaultInjector,
        (layer, row, ordinal): (usize, usize, u64),
        element: usize,
        value: f32,
    ) -> f32 {
        let mut buf = vec![value; element + 1];
        inj.corrupt_inputs(layer, row, ordinal, &mut buf);
        buf[element]
    }

    #[test]
    fn disabled_spec_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        assert!(!inj.may_fire(FaultKind::ALL, 0));
        assert_eq!(corrupt_input(&inj, (0, 0, 0), 0, 1.5), 1.5);
        assert_eq!(inj.emit_fault(0, 0, 0, 0), None);
        assert_eq!(inj.worker_fault(0, 0), None);
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
            inj.corrupt_inputs(l, r, o, &mut buf);
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
        assert_eq!(inj.worker_fault(0, 0), Some(WorkerFault::Panic));
        assert_eq!(inj.worker_fault(0, 0), None);
        inj.begin_epoch();
        assert_eq!(inj.worker_fault(0, 0), None);
        assert_eq!(inj.worker_fault(0, 1), Some(WorkerFault::Panic));
    }

    #[test]
    fn persistent_specs_bypass_the_fired_map() {
        let mut s = spec(1_000_000, FaultKind::WORKER_PANIC | FaultKind::NAN_POISON);
        s.persistent = true;
        let inj = FaultInjector::new(s);
        inj.begin_epoch();
        assert!(corrupt_input(&inj, (0, 0, 0), 0, 2.0).is_nan());
        assert_eq!(inj.worker_fault(0, 0), Some(WorkerFault::Panic));
        inj.begin_epoch();
        assert!(corrupt_input(&inj, (0, 0, 0), 0, 2.0).is_nan());
        assert_eq!(inj.worker_fault(0, 0), Some(WorkerFault::Panic));
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
        assert!(inj.may_fire(FaultKind::INPUT_SITES, 1));
        assert!(!inj.may_fire(FaultKind::INPUT_SITES, 0), "wrong layer");
        assert!(!inj.may_fire(FaultKind::EMIT_SITES, 1), "unarmed kinds");
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
            inj.corrupt_weights(0, 7, 0, &mut buf);
            buf[1]
        };
        let corrupted = load();
        assert_ne!(corrupted.to_bits(), 1.0f32.to_bits());
        // The same stream element corrupts identically on a later load, and
        // a slice starting at that element sees it as its first word.
        assert_eq!(load().to_bits(), corrupted.to_bits());
        let mut tail = [1.0f32];
        inj.corrupt_weights(0, 7, 1, &mut tail);
        assert_eq!(tail[0].to_bits(), corrupted.to_bits());
    }

    #[test]
    fn mantissa_flips_stay_finite() {
        let inj = FaultInjector::new(spec(1_000_000, FaultKind::INPUT_FLIP));
        inj.begin_epoch();
        let mut buf = [3.25f32; 64];
        inj.corrupt_inputs(0, 0, 0, &mut buf);
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
                if inj.emit_fault(0, 0, ordinal, lane).is_some() {
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

    /// The per-site decision the stream split replaced, kept as the oracle
    /// of [`FaultInjector::stream`] + [`FaultInjector::fire`]: every query
    /// re-applies the kind mask and the filters and hashes all five site
    /// coordinates.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Over random seeds, rates, kinds, filters and coordinates, the
        /// hoisted decision (targeting and hash prefix once per stream, one
        /// mix per element) equals the per-site decision: whether a site
        /// fires, the mixed hash it fires with (so the flipped bit), and the
        /// fired map's effect across two epochs and repeated queries.
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
            elements in 1u64..9,
        ) {
            // Half the cases fire at every surviving site; the rest draw
            // from the full rate range, zero included.
            let rate_ppm = if rate_pick < 2 { 1_000_000 } else { rate };
            let spec = FaultSpec {
                seed,
                rate_ppm,
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
            let inj = FaultInjector::new(spec);
            let mut oracle = PerSite { spec, epoch: 0, fired: HashMap::new(), injected: 0 };
            for _ in 0..2 {
                inj.begin_epoch();
                oracle.epoch += 1;
                let stream = inj.stream(kind, layer, row, ordinal);
                for _ in 0..2 {
                    for element in first..first + elements {
                        let hoisted = stream.and_then(|s| inj.fire(s, element));
                        let per_site = oracle.fire(kind, layer, row, ordinal, element);
                        prop_assert_eq!(hoisted, per_site, "element {}", element);
                    }
                }
            }
            prop_assert_eq!(inj.injected_faults(), oracle.injected);
        }
    }
}
