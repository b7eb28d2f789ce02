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
    /// [`FaultInjector::corrupt_input`] for the ordinal definition).
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

    /// Possibly corrupts one gathered input operand.
    ///
    /// `ordinal` is the dispatch ordinal of the work unit —
    /// `((ky * ci_count + ci) * n_chunks + chunk) * co_count`, plus the first
    /// channel of the chunk's channel group for weight and emit sites — a
    /// pure function of the layer plan, identical at every thread count.
    /// `element` indexes the operand within the gathered stream.
    pub fn corrupt_input(
        &self,
        layer: usize,
        row: usize,
        ordinal: u64,
        element: usize,
        value: f32,
    ) -> f32 {
        if !self.is_enabled() {
            return value;
        }
        if self
            .fire(
                FaultKind::NAN_POISON,
                layer,
                Some(row),
                Some(ordinal),
                element as u64,
                false,
            )
            .is_some()
        {
            return f32::NAN;
        }
        match self.fire(
            FaultKind::INPUT_FLIP,
            layer,
            Some(row),
            Some(ordinal),
            element as u64,
            false,
        ) {
            Some(h) => flip_mantissa(value, h),
            None => value,
        }
    }

    /// Possibly corrupts one staged weight operand. Weight sites carry no
    /// row coordinate (the stream is shared across rows — see
    /// [`FaultKind::WEIGHT_FLIP`]), so every load of the same stream
    /// corrupts identically.
    pub fn corrupt_weight(&self, layer: usize, ordinal: u64, element: usize, value: f32) -> f32 {
        if !self.is_enabled() {
            return value;
        }
        match self.fire(
            FaultKind::WEIGHT_FLIP,
            layer,
            None,
            Some(ordinal),
            element as u64,
            false,
        ) {
            Some(h) => flip_mantissa(value, h),
            None => value,
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
        if !self.is_enabled() {
            return None;
        }
        let lane = lane as u64;
        if self
            .fire(
                FaultKind::STUCK_LANE,
                layer,
                Some(row),
                Some(ordinal),
                lane,
                false,
            )
            .is_some()
        {
            return Some(EmitFault::StuckLane);
        }
        if self
            .fire(
                FaultKind::DROP_UOP,
                layer,
                Some(row),
                Some(ordinal),
                lane,
                false,
            )
            .is_some()
        {
            return Some(EmitFault::DroppedUop);
        }
        if self
            .fire(
                FaultKind::DUP_UOP,
                layer,
                Some(row),
                Some(ordinal),
                lane,
                false,
            )
            .is_some()
        {
            return Some(EmitFault::DuplicatedUop);
        }
        None
    }

    /// Decides whether the worker about to run a shard of `layer` anchored
    /// at output row `row` is disturbed. Worker sites fire **once ever**
    /// (unless `persistent`), so a requeued shard completes.
    pub fn worker_fault(&self, layer: usize, row: usize) -> Option<WorkerFault> {
        if !self.is_enabled() {
            return None;
        }
        if self
            .fire(FaultKind::WORKER_PANIC, layer, Some(row), None, 0, true)
            .is_some()
        {
            return Some(WorkerFault::Panic);
        }
        if self
            .fire(FaultKind::WORKER_STALL, layer, Some(row), None, 0, true)
            .is_some()
        {
            return Some(WorkerFault::Stall);
        }
        None
    }

    /// The core decision: does `kind` fire at this site? Returns the site's
    /// mixed hash (for deriving fault parameters such as the flipped bit)
    /// when it does.
    fn fire(
        &self,
        kind: u32,
        layer: usize,
        row: Option<usize>,
        ordinal: Option<u64>,
        element: u64,
        once_ever: bool,
    ) -> Option<u64> {
        if self.spec.kinds & kind == 0 || !self.targets(layer, row, ordinal) {
            return None;
        }
        let h = self.site_hash(
            kind,
            layer as u64,
            row.map_or(u64::MAX, |r| r as u64),
            ordinal.unwrap_or(u64::MAX),
            element,
        );
        if h % 1_000_000 >= u64::from(self.spec.rate_ppm) {
            return None;
        }
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

    /// Hashes `(seed, kind, site)` into a uniform 64-bit value.
    fn site_hash(&self, kind: u32, layer: u64, row: u64, ordinal: u64, element: u64) -> u64 {
        let mut h = self.spec.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [u64::from(kind), layer, row, ordinal, element] {
            h = mix(h ^ v);
        }
        h
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

    fn spec(rate_ppm: u32, kinds: u32) -> FaultSpec {
        FaultSpec::seeded(0xFA_17, rate_ppm, kinds)
    }

    #[test]
    fn disabled_spec_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        assert_eq!(inj.corrupt_input(0, 0, 0, 0, 1.5), 1.5);
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
        let mut sites: Vec<(usize, usize, u64, usize)> = Vec::new();
        for layer in 0..3 {
            for row in 0..4 {
                for ordinal in 0..8 {
                    for element in 0..4 {
                        sites.push((layer, row, ordinal, element));
                    }
                }
            }
        }
        let forward: Vec<f32> = sites
            .iter()
            .map(|&(l, r, o, e)| a.corrupt_input(l, r, o, e, 1.0))
            .collect();
        let reverse: Vec<f32> = sites
            .iter()
            .rev()
            .map(|&(l, r, o, e)| b.corrupt_input(l, r, o, e, 1.0))
            .collect();
        let reverse: Vec<f32> = reverse.into_iter().rev().collect();
        for (x, y) in forward.iter().zip(reverse.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(
            forward.iter().any(|v| v.to_bits() != 1.0f32.to_bits()),
            "a 20% rate over {} sites fired nothing",
            sites.len()
        );
    }

    #[test]
    fn corruption_fires_within_an_epoch_and_clears_on_the_next() {
        let inj = FaultInjector::new(spec(1_000_000, FaultKind::NAN_POISON));
        inj.begin_epoch();
        assert!(inj.corrupt_input(0, 0, 0, 0, 1.0).is_nan());
        // Same epoch (a requeued shard recomputing): identical corruption.
        assert!(inj.corrupt_input(0, 0, 0, 0, 1.0).is_nan());
        // New epoch (a retry): clean.
        inj.begin_epoch();
        assert_eq!(inj.corrupt_input(0, 0, 0, 0, 1.0), 1.0);
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
        assert!(inj.corrupt_input(0, 0, 0, 0, 2.0).is_nan());
        assert_eq!(inj.worker_fault(0, 0), Some(WorkerFault::Panic));
        inj.begin_epoch();
        assert!(inj.corrupt_input(0, 0, 0, 0, 2.0).is_nan());
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
        assert!(inj.corrupt_input(1, 2, 12, 0, 1.0).is_nan());
        assert_eq!(inj.corrupt_input(0, 2, 12, 0, 1.0), 1.0, "wrong layer");
        assert_eq!(inj.corrupt_input(1, 3, 12, 0, 1.0), 1.0, "wrong row");
        assert_eq!(inj.corrupt_input(1, 2, 9, 0, 1.0), 1.0, "before window");
        assert_eq!(inj.corrupt_input(1, 2, 15, 0, 1.0), 1.0, "after window");
    }

    #[test]
    fn weight_sites_ignore_the_row_filter_and_share_across_rows() {
        let mut s = spec(1_000_000, FaultKind::WEIGHT_FLIP);
        s.row = 3;
        let inj = FaultInjector::new(s);
        inj.begin_epoch();
        let corrupted = inj.corrupt_weight(0, 7, 1, 1.0);
        assert_ne!(corrupted.to_bits(), 1.0f32.to_bits());
        // The same stream element corrupts identically on a later load.
        assert_eq!(
            inj.corrupt_weight(0, 7, 1, 1.0).to_bits(),
            corrupted.to_bits()
        );
    }

    #[test]
    fn mantissa_flips_stay_finite() {
        let inj = FaultInjector::new(spec(1_000_000, FaultKind::INPUT_FLIP));
        inj.begin_epoch();
        for element in 0..64 {
            let v = inj.corrupt_input(0, 0, 0, element, 3.25);
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
}
