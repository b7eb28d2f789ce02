//! Order statistics with sample-count guards.
//!
//! Every timing the benchmark gates on is a *fastest-sample* statistic: the
//! shortest of many short durations, or the highest of many window rates. On
//! a shared host whose speed drifts in spells of seconds to minutes, the
//! fastest sample tracks the code, while the median, and even the fastest
//! decile, track how much of the run landed in a slow spell. No sample can be
//! faster than the uncontended work, so the fastest has no lucky outliers to
//! fear; it is reported only over at least [`MIN_FASTEST_SAMPLES`] samples.
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, on the side of the tail it describes. Either way, the caller
//! gets a typed refusal instead of a number read off a handful of samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples behind a fastest-sample statistic.
pub const MIN_FASTEST_SAMPLES: usize = 100;

/// Why a statistic was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the requested percentile.
    TooFewSamples {
        /// The requested quantile in `[0, 1]`.
        quantile: f64,
        /// Samples available.
        samples: usize,
        /// Samples that would lie beyond the percentile.
        beyond: usize,
    },
    /// Fewer than [`MIN_FASTEST_SAMPLES`] samples for a fastest-sample
    /// statistic.
    TooFewForFastest {
        /// Samples available.
        samples: usize,
    },
    /// A sample is NaN or infinite.
    NonFinite,
    /// The quantile lies outside `[0, 1]`.
    BadQuantile(f64),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::TooFewSamples {
                quantile,
                samples,
                beyond,
            } => write!(
                f,
                "p{} of {samples} samples has only {beyond} beyond it (need {MIN_BEYOND})",
                quantile * 100.0
            ),
            StatsError::TooFewForFastest { samples } => write!(
                f,
                "the fastest of {samples} samples is refused (need {MIN_FASTEST_SAMPLES})"
            ),
            StatsError::NonFinite => write!(f, "a sample is not finite"),
            StatsError::BadQuantile(q) => write!(f, "quantile {q} is outside [0, 1]"),
        }
    }
}

impl std::error::Error for StatsError {}

/// The `quantile` percentile of `samples`, read so that exactly
/// `floor(min(quantile, 1 - quantile) * n)` samples lie beyond it: below it
/// for `quantile < 0.5`, above it otherwise. Fewer than [`MIN_BEYOND`]
/// samples beyond it is refused.
///
/// # Errors
/// [`StatsError::TooFewSamples`], [`StatsError::NonFinite`] or
/// [`StatsError::BadQuantile`].
pub fn percentile(samples: &[f64], quantile: f64) -> Result<f64, StatsError> {
    if !(0.0..=1.0).contains(&quantile) {
        return Err(StatsError::BadQuantile(quantile));
    }
    if samples.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    let n = samples.len();
    // The epsilon keeps `(1 - 0.9) * 100` from flooring to 9.
    let beyond = (quantile.min(1.0 - quantile) * n as f64 + 1e-9).floor() as usize;
    if beyond < MIN_BEYOND {
        return Err(StatsError::TooFewSamples {
            quantile,
            samples: n,
            beyond,
        });
    }
    let rank = if quantile < 0.5 {
        beyond
    } else {
        n - 1 - beyond
    };
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank])
}

/// Refuses `samples` for a fastest-sample statistic unless all are finite
/// and there are at least [`MIN_FASTEST_SAMPLES`] of them.
fn guard_fastest(samples: &[f64]) -> Result<(), StatsError> {
    if samples.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    if samples.len() < MIN_FASTEST_SAMPLES {
        return Err(StatsError::TooFewForFastest {
            samples: samples.len(),
        });
    }
    Ok(())
}

/// The shortest of `durations` (lower is better).
///
/// # Errors
/// [`StatsError::TooFewForFastest`] or [`StatsError::NonFinite`].
pub fn fastest(durations: &[f64]) -> Result<f64, StatsError> {
    guard_fastest(durations)?;
    Ok(durations.iter().copied().fold(f64::INFINITY, f64::min))
}

/// One fixed-size measurement window: a fixed group of consecutive requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Host seconds from the window's first submission to its last checked
    /// response.
    pub seconds: f64,
    /// Inferences completed in the window.
    pub inferences: u64,
    /// Busy PE-cycles the simulator modelled in the window.
    pub busy_pe_cycles: u64,
}

/// The rate of the fastest window (higher is better): the highest
/// `rate(window)` over the windows.
///
/// # Errors
/// As [`fastest`].
pub fn fastest_rate(windows: &[Window], rate: impl Fn(&Window) -> f64) -> Result<f64, StatsError> {
    let rates: Vec<f64> = windows.iter().map(rate).collect();
    guard_fastest(&rates)?;
    Ok(rates.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// Inferences per host second in a window.
pub fn inferences_per_second(window: &Window) -> f64 {
    window.inferences as f64 / window.seconds
}

/// Busy PE-cycles per host second in a window.
pub fn cycles_per_second(window: &Window) -> f64 {
    window.busy_pe_cycles as f64 / window.seconds
}

/// The median of `samples`, or `None` for an empty slice. Unguarded: for
/// set-up repeats and diagnostics whose sample counts are reported beside
/// them.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}
