//! GANAX accelerator configuration: validated, serializable geometry.
//!
//! [`GanaxConfig`] gathers every sizing knob of the modeled accelerator — PE
//! rows (PVs) and SIMD lanes, clock frequency, per-access energies, Table III
//! per-PE storage, and the cycle-level machine's worker-PE sizing — into one
//! value that is threaded through the analytic models
//! ([`GanaxModel`](crate::GanaxModel), [`EyerissModel`](ganax_eyeriss::EyerissModel)),
//! the cycle-level machine ([`GanaxMachine`](crate::GanaxMachine)) and the
//! comparison reports ([`compare`](crate::compare)). The
//! [`Default`]/[`GanaxConfig::paper`] value reproduces the paper's design
//! point (16 × 16 PEs, 500 MHz, Table II/III constants) bit-identically;
//! every other point is reachable through the `with_*` builders or by
//! deserializing a JSON file.
//!
//! ```
//! use ganax::GanaxConfig;
//!
//! // An 8×8-PV design with halved SIMD lanes, same clock and energies.
//! let small = GanaxConfig::paper().with_geometry(8, 8).unwrap();
//! assert_eq!(small.array().total_pes(), 64);
//! assert_eq!(small.array().simd_lanes(), 8);
//!
//! // Configs round-trip through JSON (the sweep engine and the handbook's
//! // custom-config workflow rely on this).
//! let json = small.to_json().unwrap();
//! let back = GanaxConfig::from_json(&json).unwrap();
//! assert_eq!(back, small);
//! ```

use std::fmt;

use ganax_dataflow::ArrayConfig;
use ganax_energy::{AreaModel, EnergyModel};
use ganax_eyeriss::AcceleratorConfig;
use ganax_sim::{FaultSpec, PeConfig};
use serde::{DeError, Deserialize, Serialize, Value};

/// Policy of the ABFT computation-integrity layer (Huang–Abraham checksums
/// over the machine's linear per-layer dataflow).
///
/// The checksum invariant — `checksum(W) · checksum(x) ≈ checksum(y)` per
/// output-row slice, under a deterministic geometry-scaled tolerance — is
/// verified at shard-retire time, so a finite bit flip that would otherwise
/// reach the client as a silently wrong image is caught where it happened.
/// Verdicts are bit-identical at every pool size (the checksums are
/// accumulated in a fixed order that does not depend on sharding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// No checksum verification — byte-identical behavior (outputs, counters
    /// and fingerprints) to a build without the integrity layer.
    #[default]
    Off,
    /// Verify every retired output-row slice; a mismatch fails the layer
    /// immediately with the typed
    /// [`MachineError::IntegrityViolation`](crate::MachineError::IntegrityViolation)
    /// (fail-fast: detection without re-execution).
    Verify,
    /// Verify, and on a mismatch surgically re-execute just the offending
    /// shards in a fresh fault epoch — bit-identical recovery without
    /// redoing the layer. Only a *persistent* mismatch (one that reproduces
    /// after healing) surfaces as
    /// [`MachineError::IntegrityViolation`](crate::MachineError::IntegrityViolation).
    VerifyAndHeal,
}

impl IntegrityMode {
    /// The canonical JSON spelling (`"off"`, `"verify"`,
    /// `"verify_and_heal"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            IntegrityMode::Off => "off",
            IntegrityMode::Verify => "verify",
            IntegrityMode::VerifyAndHeal => "verify_and_heal",
        }
    }

    /// Whether any checksum verification runs at all.
    pub fn verifies(&self) -> bool {
        !matches!(self, IntegrityMode::Off)
    }

    /// Whether a detected mismatch is healed before it becomes an error.
    pub fn heals(&self) -> bool {
        matches!(self, IntegrityMode::VerifyAndHeal)
    }
}

impl fmt::Display for IntegrityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// Hand-written (the derive shim only handles structs): the mode serializes
// as its canonical string, so config JSON stays human-editable.
impl Serialize for IntegrityMode {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for IntegrityMode {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => match s.as_str() {
                "off" => Ok(IntegrityMode::Off),
                "verify" => Ok(IntegrityMode::Verify),
                "verify_and_heal" => Ok(IntegrityMode::VerifyAndHeal),
                other => Err(DeError::new(format!(
                    "unknown integrity mode `{other}` (expected `off`, `verify` or \
                     `verify_and_heal`)"
                ))),
            },
            _ => Err(DeError::new("integrity mode must be a string")),
        }
    }
}

/// A typed configuration-validation error ([`GanaxConfig::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The PE array has a zero-sized dimension.
    EmptyArray {
        /// Configured number of processing vectors.
        num_pvs: usize,
        /// Configured PEs per processing vector (SIMD lanes).
        pes_per_pv: usize,
    },
    /// The area model's PE count disagrees with the array geometry (the area
    /// and performance models would describe different machines).
    ArrayAreaMismatch {
        /// PEs implied by the array geometry.
        array_pes: usize,
        /// PEs the area model budgets for.
        area_pes: usize,
    },
    /// The clock frequency is zero, negative or non-finite.
    InvalidFrequency {
        /// The offending frequency in hertz.
        frequency_hz: f64,
    },
    /// A per-access energy constant is negative or non-finite, or the gated
    /// fraction falls outside `[0, 1]`.
    InvalidEnergy {
        /// Which energy-model field is invalid.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The datapath word width is zero.
    ZeroWordBits,
    /// A PE scratchpad has no words.
    EmptyScratchpad {
        /// Which PE sizing is affected (`"pe"` for the Table III sizing,
        /// `"sim_pe"` for the machine's worker PEs).
        pe: &'static str,
        /// Which scratchpad is empty.
        scratchpad: &'static str,
    },
    /// A PE scratchpad has more words than the `u16` index generators can
    /// address.
    ScratchpadTooLarge {
        /// Which PE sizing is affected.
        pe: &'static str,
        /// Which scratchpad is oversized.
        scratchpad: &'static str,
        /// Configured words (at most `u16::MAX`).
        words: usize,
    },
    /// The execute µop FIFO cannot hold one `repeat`+`mac` program pair.
    UopFifoTooShallow {
        /// Which PE sizing is affected.
        pe: &'static str,
        /// Configured FIFO entries (must be ≥ 2).
        entries: usize,
    },
    /// An address FIFO has no entries (the access engine could never hand an
    /// operand address to the execute engine).
    EmptyAddrFifo {
        /// Which PE sizing is affected.
        pe: &'static str,
    },
    /// The fault-injection schedule is malformed (unknown kind bits or a
    /// rate above one million ppm).
    InvalidFault {
        /// What is wrong with the [`FaultSpec`].
        detail: &'static str,
    },
    /// JSON text could not be parsed into a config at all
    /// ([`GanaxConfig::from_json`]); distinct from the validation variants so
    /// callers can tell "malformed file" from "well-formed but invalid
    /// design".
    Malformed {
        /// The underlying parse error.
        detail: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyArray {
                num_pvs,
                pes_per_pv,
            } => write!(
                f,
                "PE array has a zero-sized dimension ({num_pvs} PVs x {pes_per_pv} lanes)"
            ),
            ConfigError::ArrayAreaMismatch {
                array_pes,
                area_pes,
            } => write!(
                f,
                "array geometry has {array_pes} PEs but the area model budgets {area_pes}"
            ),
            ConfigError::InvalidFrequency { frequency_hz } => {
                write!(
                    f,
                    "clock frequency {frequency_hz} Hz is not positive and finite"
                )
            }
            ConfigError::InvalidEnergy { field, value } => {
                write!(f, "energy model field `{field}` has invalid value {value}")
            }
            ConfigError::ZeroWordBits => write!(f, "datapath word width is zero bits"),
            ConfigError::EmptyScratchpad { pe, scratchpad } => {
                write!(f, "{pe} sizing has an empty {scratchpad} scratchpad")
            }
            ConfigError::ScratchpadTooLarge {
                pe,
                scratchpad,
                words,
            } => write!(
                f,
                "{pe} sizing has a {words}-word {scratchpad} scratchpad; the u16 index \
                 generators address at most {} words",
                u16::MAX
            ),
            ConfigError::UopFifoTooShallow { pe, entries } => write!(
                f,
                "{pe} sizing has a {entries}-entry uop FIFO; at least 2 entries \
                 (one repeat+mac pair) are required"
            ),
            ConfigError::EmptyAddrFifo { pe } => {
                write!(f, "{pe} sizing has an empty address FIFO")
            }
            ConfigError::InvalidFault { detail } => {
                write!(f, "fault-injection spec is invalid: {detail}")
            }
            ConfigError::Malformed { detail } => {
                write!(f, "config JSON could not be parsed: {detail}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the GANAX accelerator.
///
/// GANAX shares the PE-array organization, clock and on-chip memory sizes of
/// the Eyeriss baseline (Section V: "the same number of PEs and on-chip memory
/// are used for both accelerators") and adds the µop-buffer and access-engine
/// sizing of Table III. The `Default` reproduces the paper's design point
/// bit-identically; [`GanaxConfig::validate`] and the `with_*` builders
/// guard every other point, and [`GanaxConfig::to_json`] /
/// [`GanaxConfig::from_json`] round-trip configs through files.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GanaxConfig {
    /// The shared accelerator configuration (array geometry, clock frequency,
    /// per-access energy model) — also the Eyeriss baseline's configuration,
    /// which keeps every comparison same-budget by construction.
    pub base: AcceleratorConfig,
    /// Table III per-PE sizing (register files, weight SRAM, FIFOs) used by
    /// the analytic and area models.
    pub pe: PeConfig,
    /// Worker-PE sizing used by the cycle-level machine's functional fast
    /// path. Defaults to [`PeConfig::deep`] — scratchpads and µop FIFO sized
    /// so a whole channel group of a full-size layer dispatches in one burst;
    /// outputs and counters do not depend on this sizing (only simulation
    /// wall-clock does), as the machine's per-column traffic is invariant
    /// under chunking.
    pub sim_pe: PeConfig,
    /// Area model (Table III). `area.num_pes` must match the array geometry;
    /// [`GanaxConfig::with_geometry`] keeps them in sync.
    pub area: AreaModel,
    /// Seeded fault-injection schedule for the cycle-level machine
    /// ([`FaultSpec`], default disabled). When armed, the machine and the
    /// serving engine inject the scheduled faults deterministically — the
    /// same seed reproduces the same corruption at any thread count.
    pub fault: FaultSpec,
    /// ABFT computation-integrity policy ([`IntegrityMode`], default
    /// [`IntegrityMode::Off`]). When on, every retired output-row slice is
    /// checksum-verified against the plan's precomputed weight checksums;
    /// `VerifyAndHeal` additionally re-executes mismatching rows in a
    /// fresh fault epoch before surfacing a violation.
    pub integrity: IntegrityMode,
}

impl GanaxConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        GanaxConfig {
            base: AcceleratorConfig::paper(),
            pe: PeConfig::paper(),
            sim_pe: PeConfig::deep(),
            area: AreaModel::table_iii(),
            fault: FaultSpec::disabled(),
            integrity: IntegrityMode::Off,
        }
    }

    /// The PE-array organization.
    pub fn array(&self) -> ArrayConfig {
        self.base.array
    }

    /// The energy model.
    pub fn energy(&self) -> EnergyModel {
        self.base.energy
    }

    /// Fractional area overhead of GANAX over the baseline (≈7.8 %).
    pub fn area_overhead(&self) -> f64 {
        self.area.overhead_fraction()
    }

    /// Returns a copy with a different PE-array geometry (`num_pvs` MIMD rows
    /// × `pes_per_pv` SIMD lanes), keeping the area model's PE count in sync,
    /// validated.
    ///
    /// # Errors
    /// Returns [`ConfigError::EmptyArray`] when either dimension is zero (and
    /// propagates any other validation failure of the modified config).
    pub fn with_geometry(mut self, num_pvs: usize, pes_per_pv: usize) -> Result<Self, ConfigError> {
        self.base.array = ArrayConfig {
            num_pvs,
            pes_per_pv,
        };
        self.area.num_pes = num_pvs * pes_per_pv;
        self.validated()
    }

    /// Returns a copy with a different clock frequency, validated.
    ///
    /// # Errors
    /// Returns [`ConfigError::InvalidFrequency`] when `frequency_hz` is not
    /// positive and finite.
    pub fn with_frequency_hz(mut self, frequency_hz: f64) -> Result<Self, ConfigError> {
        self.base.frequency_hz = frequency_hz;
        self.validated()
    }

    /// Returns a copy with a different worker-PE sizing for the cycle-level
    /// machine, validated.
    ///
    /// # Errors
    /// Propagates scratchpad/FIFO validation failures for the new sizing.
    pub fn with_sim_pe(mut self, sim_pe: PeConfig) -> Result<Self, ConfigError> {
        self.sim_pe = sim_pe;
        self.validated()
    }

    /// Returns a copy with a different fault-injection schedule, validated.
    ///
    /// # Errors
    /// Returns [`ConfigError::InvalidFault`] when the spec's kind bits or
    /// rate are out of range.
    pub fn with_fault(mut self, fault: FaultSpec) -> Result<Self, ConfigError> {
        self.fault = fault;
        self.validated()
    }

    /// Returns a copy with a different computation-integrity policy,
    /// validated.
    ///
    /// # Errors
    /// Propagates any validation failure of the modified config (the mode
    /// itself is always valid; the `Result` keeps the builder chainable).
    pub fn with_integrity(mut self, integrity: IntegrityMode) -> Result<Self, ConfigError> {
        self.integrity = integrity;
        self.validated()
    }

    /// Checks every invariant the models rely on: non-empty array geometry,
    /// area/array agreement, a positive finite clock, sane energy constants
    /// and usable PE sizings.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let array = self.base.array;
        if array.num_pvs == 0 || array.pes_per_pv == 0 {
            return Err(ConfigError::EmptyArray {
                num_pvs: array.num_pvs,
                pes_per_pv: array.pes_per_pv,
            });
        }
        if self.area.num_pes != array.total_pes() {
            return Err(ConfigError::ArrayAreaMismatch {
                array_pes: array.total_pes(),
                area_pes: self.area.num_pes,
            });
        }
        if !(self.base.frequency_hz.is_finite() && self.base.frequency_hz > 0.0) {
            return Err(ConfigError::InvalidFrequency {
                frequency_hz: self.base.frequency_hz,
            });
        }
        let energy = &self.base.energy;
        for (field, value) in [
            ("register_file_pj_per_bit", energy.register_file_pj_per_bit),
            ("pe_pj_per_bit", energy.pe_pj_per_bit),
            ("inter_pe_pj_per_bit", energy.inter_pe_pj_per_bit),
            ("global_buffer_pj_per_bit", energy.global_buffer_pj_per_bit),
            ("dram_pj_per_bit", energy.dram_pj_per_bit),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(ConfigError::InvalidEnergy { field, value });
            }
        }
        if !(energy.gated_op_fraction.is_finite()
            && (0.0..=1.0).contains(&energy.gated_op_fraction))
        {
            return Err(ConfigError::InvalidEnergy {
                field: "gated_op_fraction",
                value: energy.gated_op_fraction,
            });
        }
        if energy.word_bits == 0 {
            return Err(ConfigError::ZeroWordBits);
        }
        validate_pe(&self.pe, "pe")?;
        validate_pe(&self.sim_pe, "sim_pe")?;
        self.fault
            .validate()
            .map_err(|detail| ConfigError::InvalidFault { detail })?;
        Ok(())
    }

    /// [`GanaxConfig::validate`], returning the config itself for chaining.
    ///
    /// # Errors
    /// As [`GanaxConfig::validate`].
    pub fn validated(self) -> Result<Self, ConfigError> {
        self.validate()?;
        Ok(self)
    }

    /// Serializes the config to pretty-printed JSON.
    ///
    /// # Errors
    /// Propagates the (shim-infallible) serializer error for call-site
    /// compatibility with the real `serde_json`.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a config from JSON and validates it.
    ///
    /// # Errors
    /// Returns [`ConfigError::Malformed`] when the JSON cannot be parsed or
    /// its shape does not match [`GanaxConfig`], and the matching typed
    /// variant when the parsed config fails [`GanaxConfig::validate`].
    pub fn from_json(json: &str) -> Result<Self, ConfigError> {
        let config: GanaxConfig =
            serde_json::from_str(json).map_err(|e| ConfigError::Malformed {
                detail: e.to_string(),
            })?;
        config.validated()
    }

    /// A stable 64-bit fingerprint of the whole configuration, hashed over
    /// its canonical JSON form. Two configs fingerprint equal exactly when
    /// every field (geometry, clock, energies, PE sizings, area) is equal —
    /// the serving plan cache uses this as the config half of its
    /// `(network fingerprint, config fingerprint)` key, so artifacts planned
    /// for one machine are never served on another.
    pub fn fingerprint(&self) -> u64 {
        let json = self
            .to_json()
            .expect("the shim serializer is infallible for derived configs");
        let mut hash = FNV_OFFSET;
        fnv1a64(&mut hash, json.as_bytes());
        hash
    }
}

/// FNV-1a offset basis — the seed of every fingerprint in the workspace.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds `bytes` into an FNV-1a 64-bit hash in place. Shared by
/// [`GanaxConfig::fingerprint`] and the network/weights fingerprint in
/// [`crate::network`], so every plan-cache key component uses one hash.
pub(crate) fn fnv1a64(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Folds the exact bit patterns of `values` into an FNV-1a-style 64-bit
/// hash in place, one 32-bit word per step. Each step is a bijection of the
/// running state, so changing any one word always changes the result.
pub(crate) fn fnv1a64_f32s(hash: &mut u64, values: &[f32]) {
    for &v in values {
        *hash ^= u64::from(v.to_bits());
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Validates one PE sizing (`label` distinguishes the Table III sizing from
/// the machine's worker-PE sizing in error messages).
fn validate_pe(pe: &PeConfig, label: &'static str) -> Result<(), ConfigError> {
    for (scratchpad, words) in [
        ("input", pe.input_words),
        ("weight", pe.weight_words),
        ("output", pe.output_words),
    ] {
        if words == 0 {
            return Err(ConfigError::EmptyScratchpad {
                pe: label,
                scratchpad,
            });
        }
        // Dispatch generator ends (`stream`, `group × stream`, `group ×
        // cols`) are bounded by these sizes and narrowed to `u16`.
        if words > u16::MAX as usize {
            return Err(ConfigError::ScratchpadTooLarge {
                pe: label,
                scratchpad,
                words,
            });
        }
    }
    if pe.addr_fifo_entries == 0 {
        return Err(ConfigError::EmptyAddrFifo { pe: label });
    }
    if pe.uop_fifo_entries < 2 {
        return Err(ConfigError::UopFifoTooShallow {
            pe: label,
            entries: pe.uop_fifo_entries,
        });
    }
    Ok(())
}

impl Default for GanaxConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_the_baseline() {
        let cfg = GanaxConfig::paper();
        assert_eq!(cfg.array().total_pes(), 256);
        assert_eq!(cfg.base.frequency_hz, 500.0e6);
        assert_eq!(cfg.energy().pe_pj_per_bit, 0.36);
        cfg.validate().expect("the paper design point is valid");
    }

    #[test]
    fn area_overhead_is_about_7_8_percent() {
        let overhead = GanaxConfig::paper().area_overhead();
        assert!(overhead > 0.07 && overhead < 0.085, "overhead = {overhead}");
    }

    #[test]
    fn with_geometry_keeps_area_in_sync() {
        let cfg = GanaxConfig::paper().with_geometry(8, 32).unwrap();
        assert_eq!(cfg.array().num_pvs, 8);
        assert_eq!(cfg.array().simd_lanes(), 32);
        assert_eq!(cfg.area.num_pes, 256);
        let small = GanaxConfig::paper().with_geometry(4, 4).unwrap();
        assert_eq!(small.area.num_pes, 16);
    }

    #[test]
    fn zero_sized_arrays_are_rejected_with_typed_errors() {
        assert_eq!(
            GanaxConfig::paper().with_geometry(0, 16).unwrap_err(),
            ConfigError::EmptyArray {
                num_pvs: 0,
                pes_per_pv: 16
            }
        );
        assert_eq!(
            GanaxConfig::paper().with_geometry(16, 0).unwrap_err(),
            ConfigError::EmptyArray {
                num_pvs: 16,
                pes_per_pv: 0
            }
        );
    }

    #[test]
    fn area_array_mismatch_is_rejected() {
        let mut cfg = GanaxConfig::paper();
        cfg.base.array = ArrayConfig {
            num_pvs: 8,
            pes_per_pv: 8,
        };
        assert_eq!(
            cfg.validate().unwrap_err(),
            ConfigError::ArrayAreaMismatch {
                array_pes: 64,
                area_pes: 256
            }
        );
    }

    #[test]
    fn bad_frequency_energy_and_pe_sizings_are_rejected() {
        assert!(matches!(
            GanaxConfig::paper().with_frequency_hz(0.0).unwrap_err(),
            ConfigError::InvalidFrequency { .. }
        ));
        assert!(matches!(
            GanaxConfig::paper()
                .with_frequency_hz(f64::INFINITY)
                .unwrap_err(),
            ConfigError::InvalidFrequency { .. }
        ));

        let mut cfg = GanaxConfig::paper();
        cfg.base.energy.dram_pj_per_bit = -1.0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            ConfigError::InvalidEnergy {
                field: "dram_pj_per_bit",
                value: -1.0
            }
        );

        let mut cfg = GanaxConfig::paper();
        cfg.base.energy.gated_op_fraction = 1.5;
        assert!(matches!(
            cfg.validate().unwrap_err(),
            ConfigError::InvalidEnergy {
                field: "gated_op_fraction",
                ..
            }
        ));

        let mut cfg = GanaxConfig::paper();
        cfg.base.energy.word_bits = 0;
        assert_eq!(cfg.validate().unwrap_err(), ConfigError::ZeroWordBits);

        let mut shallow = PeConfig::paper();
        shallow.uop_fifo_entries = 1;
        assert_eq!(
            GanaxConfig::paper().with_sim_pe(shallow).unwrap_err(),
            ConfigError::UopFifoTooShallow {
                pe: "sim_pe",
                entries: 1
            }
        );

        let mut empty = PeConfig::paper();
        empty.weight_words = 0;
        assert_eq!(
            GanaxConfig::paper().with_sim_pe(empty).unwrap_err(),
            ConfigError::EmptyScratchpad {
                pe: "sim_pe",
                scratchpad: "weight"
            }
        );

        let mut cfg = GanaxConfig::paper();
        cfg.pe.addr_fifo_entries = 0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            ConfigError::EmptyAddrFifo { pe: "pe" }
        );
    }

    #[test]
    fn invalid_fault_specs_are_rejected() {
        use ganax_sim::{FaultKind, FaultSpec};

        let mut bad = FaultSpec::disabled();
        bad.kinds = FaultKind::ALL << 1;
        assert!(matches!(
            GanaxConfig::paper().with_fault(bad).unwrap_err(),
            ConfigError::InvalidFault { .. }
        ));

        let armed = FaultSpec::seeded(7, 1_000, FaultKind::ALL);
        let cfg = GanaxConfig::paper().with_fault(armed).unwrap();
        assert_eq!(cfg.fault, armed);
        // An armed schedule changes the fingerprint: plans built under
        // faults are never served as fault-free (and vice versa).
        assert_ne!(cfg.fingerprint(), GanaxConfig::paper().fingerprint());
    }

    #[test]
    fn json_round_trip_is_identity() {
        for cfg in [
            GanaxConfig::paper(),
            GanaxConfig::paper().with_geometry(8, 8).unwrap(),
            GanaxConfig::paper().with_frequency_hz(750.0e6).unwrap(),
            GanaxConfig::paper()
                .with_integrity(IntegrityMode::Verify)
                .unwrap(),
            GanaxConfig::paper()
                .with_integrity(IntegrityMode::VerifyAndHeal)
                .unwrap(),
        ] {
            let json = cfg.to_json().unwrap();
            let back = GanaxConfig::from_json(&json).unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn integrity_modes_parse_fingerprint_and_default_sanely() {
        assert_eq!(IntegrityMode::default(), IntegrityMode::Off);
        assert_eq!(GanaxConfig::paper().integrity, IntegrityMode::Off);
        assert!(!IntegrityMode::Off.verifies());
        assert!(IntegrityMode::Verify.verifies() && !IntegrityMode::Verify.heals());
        assert!(IntegrityMode::VerifyAndHeal.verifies() && IntegrityMode::VerifyAndHeal.heals());

        // Each mode fingerprints differently: plans built under one policy
        // are never served as another.
        let verify = GanaxConfig::paper()
            .with_integrity(IntegrityMode::Verify)
            .unwrap();
        let heal = GanaxConfig::paper()
            .with_integrity(IntegrityMode::VerifyAndHeal)
            .unwrap();
        assert_ne!(verify.fingerprint(), GanaxConfig::paper().fingerprint());
        assert_ne!(verify.fingerprint(), heal.fingerprint());

        // An unknown mode string is a malformed config, not a panic.
        let json = verify.to_json().unwrap().replace("verify", "sometimes");
        assert!(matches!(
            GanaxConfig::from_json(&json).unwrap_err(),
            ConfigError::Malformed { .. }
        ));
    }

    #[test]
    fn from_json_rejects_garbage_and_invalid_configs() {
        assert!(matches!(
            GanaxConfig::from_json("{not json").unwrap_err(),
            ConfigError::Malformed { .. }
        ));
        let mut invalid = GanaxConfig::paper();
        invalid.area.num_pes = 99;
        let json = invalid.to_json().unwrap();
        assert_eq!(
            GanaxConfig::from_json(&json).unwrap_err(),
            ConfigError::ArrayAreaMismatch {
                array_pes: 256,
                area_pes: 99
            }
        );
    }

    #[test]
    fn scratchpads_beyond_u16_addressing_are_rejected() {
        let oversized = PeConfig {
            input_words: 1 << 17,
            weight_words: 1 << 17,
            output_words: 1 << 17,
            addr_fifo_entries: 8,
            uop_fifo_entries: 1 << 17,
        };
        let expected = ConfigError::ScratchpadTooLarge {
            pe: "sim_pe",
            scratchpad: "input",
            words: 1 << 17,
        };
        assert_eq!(
            GanaxConfig::paper().with_sim_pe(oversized).unwrap_err(),
            expected
        );
        let mut cfg = GanaxConfig::paper();
        cfg.sim_pe = oversized;
        let json = cfg.to_json().unwrap();
        assert_eq!(GanaxConfig::from_json(&json).unwrap_err(), expected);

        // One word past the generators' reach is refused; the largest
        // addressable sizing and the deep default stay valid.
        let mut just_over = PeConfig::deep();
        just_over.output_words = u16::MAX as usize + 1;
        assert!(matches!(
            GanaxConfig::paper().with_sim_pe(just_over).unwrap_err(),
            ConfigError::ScratchpadTooLarge {
                scratchpad: "output",
                ..
            }
        ));
        let largest = PeConfig {
            input_words: u16::MAX as usize,
            weight_words: u16::MAX as usize,
            output_words: u16::MAX as usize,
            ..PeConfig::deep()
        };
        GanaxConfig::paper().with_sim_pe(largest).unwrap();
        GanaxConfig::paper().with_sim_pe(PeConfig::deep()).unwrap();
    }

    #[test]
    fn deeply_nested_json_is_malformed_not_a_stack_overflow() {
        let json = "[".repeat(200_000);
        assert!(matches!(
            GanaxConfig::from_json(&json).unwrap_err(),
            ConfigError::Malformed { .. }
        ));
        let json = "{\"base\":".repeat(200_000);
        assert!(matches!(
            GanaxConfig::from_json(&json).unwrap_err(),
            ConfigError::Malformed { .. }
        ));
    }

    /// Byte offsets `(start, end)` of every numeric literal in `json`.
    fn numeric_literals(json: &str) -> Vec<(usize, usize)> {
        let bytes = json.as_bytes();
        let mut spans = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'-' || bytes[i].is_ascii_digit() {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                spans.push((start, i));
            } else if bytes[i] == b'"' {
                // Skip string bodies: digits inside keys are not numbers.
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                i += 1;
            } else {
                i += 1;
            }
        }
        spans
    }

    /// The valid configs the mutation fuzzers start from: the paper design
    /// point and one carrying an armed [`FaultSpec`].
    fn fuzz_seeds() -> [String; 2] {
        let armed = FaultSpec::seeded(7, 1_000, ganax_sim::FaultKind::ALL);
        [
            GanaxConfig::paper().to_json().unwrap(),
            GanaxConfig::paper()
                .with_fault(armed)
                .unwrap()
                .to_json()
                .unwrap(),
        ]
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random bytes (decoded lossily) parse to a typed result, never a
        /// panic.
        #[test]
        fn prop_random_bytes_never_panic(raw in proptest::collection::vec(0u16..256, 0..512)) {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            if let Ok(config) = GanaxConfig::from_json(&String::from_utf8_lossy(&bytes)) {
                prop_assert!(config.validate().is_ok());
            }
        }

        /// Every strict prefix of a valid config is malformed JSON.
        #[test]
        fn prop_truncated_configs_are_malformed(which in 0usize..2, cut in 0usize..4096) {
            let json = &fuzz_seeds()[which];
            let cut = cut % json.len();
            let result = GanaxConfig::from_json(&json[..cut]);
            prop_assert!(matches!(result, Err(ConfigError::Malformed { .. })), "{result:?}");
        }

        /// Replacing one numeric literal of a valid config with a huge,
        /// tiny or negative value yields a validated config or a typed error.
        #[test]
        fn prop_mutated_numbers_yield_typed_results(
            which in 0usize..2,
            pick in 0usize..1024,
            value in 0usize..9,
        ) {
            let json = &fuzz_seeds()[which];
            let spans = numeric_literals(json);
            let (start, end) = spans[pick % spans.len()];
            let replacement = [
                "-1",
                "-0",
                "0",
                "1e300",
                "-1e300",
                "1e-300",
                "4294967296",
                "18446744073709551616",
                "-9223372036854775809",
            ][value];
            let mutated = format!("{}{replacement}{}", &json[..start], &json[end..]);
            if let Ok(config) = GanaxConfig::from_json(&mutated) {
                prop_assert!(config.validate().is_ok());
            }
        }
    }

    #[test]
    fn error_messages_name_the_problem() {
        let msg = ConfigError::UopFifoTooShallow {
            pe: "sim_pe",
            entries: 1,
        }
        .to_string();
        assert!(msg.contains("sim_pe") && msg.contains("1-entry"), "{msg}");
    }
}
