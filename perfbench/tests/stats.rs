//! The benchmark's statistics: fastest-sample latency and windowed throughput
//! on synthetic bimodal samples, the sample-count guards, and span self time.

use ganax_perfbench::stats::{
    cycles_per_second, fastest, fastest_rate, inferences_per_second, median, percentile,
    StatsError, Window, MIN_BEYOND, MIN_FASTEST_SAMPLES,
};
use ganax_perfbench::trace::{SpanId, Tracer};
use ganax_perfbench::{shuffle, uniform};

/// `n` request durations in milliseconds: a `slow_share` of them from a slow
/// regime around 160 ms, the rest from a fast regime around 100 ms, each with
/// ±5% jitter, in seeded order.
fn bimodal(n: usize, slow_share: f64, seed: u64) -> Vec<f64> {
    let jitter = uniform(n, seed, 0.05);
    let slow = (n as f64 * slow_share).round() as usize;
    let mut samples: Vec<f64> = (0..n)
        .map(|i| {
            let base = if i < slow { 160.0 } else { 100.0 };
            base * (1.0 + f64::from(jitter[i]))
        })
        .collect();
    shuffle(&mut samples, seed ^ 0xABCD);
    samples
}

#[test]
fn the_fastest_sample_tracks_the_fast_regime_while_the_median_tracks_the_mix() {
    let mostly_fast = bimodal(300, 0.3, 1);
    let mostly_slow = bimodal(300, 0.95, 2);
    let min_fast = fastest(&mostly_fast).unwrap();
    let min_slow = fastest(&mostly_slow).unwrap();
    assert!((95.0..=100.0).contains(&min_fast), "{min_fast}");
    assert!((95.0..=100.0).contains(&min_slow), "{min_slow}");
    assert!((min_slow / min_fast - 1.0).abs() < 0.05);
    // With 95% of the run slow, even the fastest decile lands in the slow mode.
    let p10_slow = percentile(&mostly_slow, 0.1).unwrap();
    assert!(p10_slow > 150.0, "{p10_slow}");
    // The median jumps from the fast to the slow mode with the regime share.
    let p50_fast = median(&mostly_fast).unwrap();
    let p50_slow = median(&mostly_slow).unwrap();
    assert!(
        p50_fast < 106.0 && p50_slow > 150.0,
        "{p50_fast} {p50_slow}"
    );
}

#[test]
fn windowed_throughput_takes_the_fastest_window() {
    // 200 windows of 4 inferences; durations bimodal (0.4 s fast, 0.64 s slow).
    let durations = bimodal(200, 0.6, 3);
    let windows: Vec<Window> = durations
        .iter()
        .map(|ms| Window {
            seconds: 4.0 * ms / 1e3,
            inferences: 4,
            busy_pe_cycles: 4_000_000,
        })
        .collect();
    let rate = fastest_rate(&windows, inferences_per_second).unwrap();
    assert!((10.0..=10.6).contains(&rate), "{rate} inferences/s");
    let fastest_window = windows
        .iter()
        .map(|w| w.seconds)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(rate, 4.0 / fastest_window);
    let cycles = fastest_rate(&windows, cycles_per_second).unwrap();
    assert!((rate * 1e6 - cycles).abs() < 1e-3 * cycles);
    // The mean rate would sit between the modes.
    let mean: f64 = windows.iter().map(inferences_per_second).sum::<f64>() / 200.0;
    assert!(mean < 0.85 * rate, "{mean} vs {rate}");
}

#[test]
fn statistics_refuse_too_few_samples() {
    let samples: Vec<f64> = (0..MIN_FASTEST_SAMPLES).rev().map(|i| i as f64).collect();
    assert_eq!(fastest(&samples).unwrap(), 0.0);
    assert_eq!(
        fastest(&samples[..MIN_FASTEST_SAMPLES - 1]),
        Err(StatsError::TooFewForFastest {
            samples: MIN_FASTEST_SAMPLES - 1
        })
    );
    let windows: Vec<Window> = samples[1..]
        .iter()
        .map(|&s| Window {
            seconds: 1.0 + s,
            inferences: 1,
            busy_pe_cycles: 1,
        })
        .collect();
    assert!(matches!(
        fastest_rate(&windows, inferences_per_second),
        Err(StatsError::TooFewForFastest { .. })
    ));

    // A percentile needs ten samples beyond it: a p10 or p90 needs a hundred.
    assert_eq!(percentile(&samples, 0.1).unwrap(), MIN_BEYOND as f64);
    assert_eq!(percentile(&samples, 0.9).unwrap(), 89.0);
    assert!(matches!(
        percentile(&samples[..99], 0.1),
        Err(StatsError::TooFewSamples { beyond: 9, .. })
    ));
    assert!(matches!(
        percentile(&samples[..99], 0.9),
        Err(StatsError::TooFewSamples { beyond: 9, .. })
    ));

    // A median needs ten samples above it; a p99 needs a thousand samples.
    let nineteen: Vec<f64> = (0..19).map(f64::from).collect();
    assert!(percentile(&nineteen, 0.5).is_err());
    let twenty_one: Vec<f64> = (0..21).map(f64::from).collect();
    assert_eq!(percentile(&twenty_one, 0.5).unwrap(), 10.0);
    let many: Vec<f64> = (0..999).map(f64::from).collect();
    assert!(percentile(&many, 0.99).is_err());
    let more: Vec<f64> = (0..1000).map(f64::from).collect();
    assert_eq!(percentile(&more, 0.99).unwrap(), 989.0);

    assert!(percentile(&[], 0.5).is_err());
    assert_eq!(percentile(&samples, 1.5), Err(StatsError::BadQuantile(1.5)));
    let mut poisoned = samples.clone();
    poisoned[3] = f64::NAN;
    assert_eq!(fastest(&poisoned), Err(StatsError::NonFinite));
    assert_eq!(percentile(&poisoned, 0.5), Err(StatsError::NonFinite));
}

#[test]
fn self_time_subtracts_the_union_of_child_spans() {
    let mut tracer = Tracer::enabled();
    let root = tracer.begin("request", 1, SpanId::NONE);
    let a = tracer.begin("serve.submit", 1, root);
    std::thread::sleep(std::time::Duration::from_millis(2));
    tracer.end(a);
    let b = tracer.begin("serve.wait", 1, root);
    std::thread::sleep(std::time::Duration::from_millis(2));
    tracer.end(b);
    tracer.end(root);
    let times = tracer.self_times();
    let request = times["request"];
    let children = times["serve.submit"].total_ns + times["serve.wait"].total_ns;
    assert_eq!(request.count, 1);
    assert_eq!(request.self_ns, request.total_ns - children);
    assert_eq!(times["serve.wait"].self_ns, times["serve.wait"].total_ns);

    let mut off = Tracer::disabled();
    assert_eq!(off.span("x", 0, SpanId::NONE, || 7), 7);
    assert!(off.spans().is_empty());
}
