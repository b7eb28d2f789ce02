//! Golden-snapshot regression tests for the analytic models.
//!
//! Every Table I GAN's full [`ModelComparison`] (both accelerators, both
//! networks, per-layer cycles/counts/energy) is serialized to
//! `tests/golden/<model>.json` and asserted byte-identical, so *any* drift in
//! the analytic performance or energy models — intended or not — shows up in
//! CI as a golden diff instead of silently shifting the paper-claims numbers.
//! A small design-space sweep (`tests/golden/sweep_dcgan.json`) is pinned the
//! same way, covering the config-threading and Pareto machinery.
//!
//! To regenerate after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_snapshots
//! ```
//!
//! then commit the refreshed JSON files with the change that caused them.

use std::fs;
use std::path::PathBuf;

use ganax::compare::ModelComparison;
use ganax::SweepSpec;
use ganax_models::zoo;

fn golden_path(model: &str) -> PathBuf {
    let slug = model.to_ascii_lowercase();
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{slug}.json"))
}

/// Asserts `json` matches the golden file at `path` byte for byte, or
/// rewrites the file when `UPDATE_GOLDEN` is set.
fn assert_golden(path: &PathBuf, json: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("golden dir is creatable");
        fs::write(path, json).expect("golden file is writable");
        return;
    }
    let expected = fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test \
             golden_snapshots` and commit the result",
            path.display()
        )
    });
    assert_eq!(
        json,
        expected,
        "output drifted from {}; if the change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test golden_snapshots`",
        path.display()
    );
}

#[test]
fn zoo_model_comparisons_match_golden_snapshots() {
    for gan in zoo::all_models() {
        let report = ModelComparison::compare(&gan).unwrap();
        let json = serde_json::to_string_pretty(&report).expect("report serializes") + "\n";
        assert_golden(&golden_path(&gan.name), &json);
    }
}

/// A three-point geometry sweep over DCGAN, pinned byte for byte: any drift
/// in the config threading (geometry → schedule → energy) or the sweep
/// summaries/Pareto flags shows up as a golden diff.
#[test]
fn sweep_over_dcgan_matches_golden_snapshot() {
    let spec = SweepSpec::geometry_grid(&[(16, 16), (8, 8), (16, 32)], &["DCGAN"])
        .expect("golden sweep spec is valid");
    let result = spec.run();
    let json = serde_json::to_string_pretty(&result).expect("sweep serializes") + "\n";
    assert_golden(&golden_path("sweep_dcgan"), &json);
}

#[test]
fn golden_snapshots_cover_exactly_the_zoo() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        // Regeneration mode: the sibling test may still be writing files.
        return;
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut found: Vec<String> = fs::read_dir(&dir)
        .expect("tests/golden exists")
        .map(|e| {
            e.expect("golden dir entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .collect();
    found.sort();
    let mut expected: Vec<String> = zoo::all_models()
        .iter()
        .map(|m| format!("{}.json", m.name.to_ascii_lowercase()))
        .collect();
    expected.push("sweep_dcgan.json".to_string());
    expected.sort();
    assert_eq!(found, expected, "stale or missing golden snapshots");
}
