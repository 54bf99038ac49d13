//! Shared harness utilities for the benches.
//!
//! `cargo bench -p ss-bench --bench paper_fidelity` prints every table
//! and figure of the DATE 2008 paper with **measured** columns next to
//! the **paper-reported** values, and writes `BENCH_paper.json`.
//! `EXPERIMENTS.md` holds its committed full-scale run and the known
//! deviations from the paper.
//!
//! # Workload scaling
//!
//! The paper's experiments ran "a few minutes" per circuit on a 2008
//! Pentium; a full five-circuit sweep here is likewise minutes of CPU.
//! To keep `cargo bench` snappy the harness scales the synthetic test
//! sets by `SS_SCALE` (default 0.25 — a quarter of the profile's cube
//! count). Set `SS_SCALE=1` for full-size runs; every bench prints
//! its scale in the banner, and the `BENCH_*.json` files record it as
//! `ss_scale`. Scaling shrinks seed counts roughly proportionally but
//! leaves every *trend* (who wins, how results move with k, S and L)
//! intact; `EXPERIMENTS.md` records which scale each committed file
//! was run at.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::Instant;

use ss_telemetry::json::Json;
use ss_testdata::{generate_test_set, CubeProfile, TestSet, WorkloadRegistry, CORPUS_SEED};

/// Workload scale factor from `SS_SCALE`: 0.25 when unset, otherwise
/// the value clamped to `[0.01, 1]`.
///
/// # Panics
///
/// Panics, naming the variable, when `SS_SCALE` is set but is not a
/// finite number (`NaN`, `inf`, `full`, `1,0`): a silent fallback
/// would run, and record in `BENCH_*.json`, a scale nobody asked for.
pub fn scale() -> f64 {
    match std::env::var("SS_SCALE") {
        Ok(text) => parse_scale(&text).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => 0.25,
    }
}

/// Parses an `SS_SCALE` value: a finite number, clamped to `[0.01, 1]`.
fn parse_scale(text: &str) -> Result<f64, String> {
    match text.trim().parse::<f64>() {
        Ok(s) if s.is_finite() => Ok(s.clamp(0.01, 1.0)),
        _ => Err(format!(
            "SS_SCALE={text:?} is not a finite number; use a value in [0.01, 1]"
        )),
    }
}

/// Writes `BENCH_<file>.json` at the workspace root, one row per line:
/// the bench's name and `cargo bench` command, then `members`.
pub fn write_bench_json(file: &str, bench: &str, members: Vec<(&str, Json)>) {
    let command = Json::String(format!("cargo bench -p ss-bench --bench {bench}"));
    let head = [("bench", Json::from(bench)), ("command", command)];
    let json = Json::object(head.into_iter().chain(members));
    let path = format!("{}/../../BENCH_{file}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, format!("{json:#}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

/// Deterministic workload seed shared by all benches — the corpus
/// registry's canonical seed, so bench workloads and registry
/// workloads are the same bits.
pub const WORKLOAD_SEED: u64 = CORPUS_SEED;

/// The five paper circuits at the harness scale.
pub fn scaled_circuits() -> Vec<CubeProfile> {
    CubeProfile::paper_circuits()
        .into_iter()
        .map(|p| p.scaled(scale()))
        .collect()
}

/// The test set for a (possibly scaled) profile, pulled from the
/// named workload corpus.
///
/// Every paper profile is a registry entry
/// ([`WorkloadRegistry::find`] by `profile.name`), so benches, tests
/// and docs all run the same named bits; a scaled profile maps to the
/// corpus entry's prefix (`Workload::test_set_scaled`'s documented
/// truncation-equals-scaled-generation contract). Profiles without a
/// registry entry fall back to direct generation at [`WORKLOAD_SEED`].
pub fn workload(profile: &CubeProfile) -> TestSet {
    match WorkloadRegistry::find(profile.name) {
        Some(w) => w.test_set_prefix(profile.cube_count),
        None => generate_test_set(profile, WORKLOAD_SEED),
    }
}

/// Prints a standard bench header with the scale disclosure.
pub fn banner(what: &str) {
    println!("=== {what} ===");
    println!(
        "workload: synthetic profiles at SS_SCALE={} (SS_SCALE=1 for full size)",
        scale()
    );
    println!();
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_clamps_finite_values_and_rejects_the_rest() {
        assert_eq!(parse_scale("0.5"), Ok(0.5));
        assert_eq!(parse_scale("0"), Ok(0.01));
        assert_eq!(parse_scale("2"), Ok(1.0));
        for bad in ["NaN", "abc"] {
            let err = parse_scale(bad).expect_err(bad);
            assert!(err.contains("SS_SCALE"), "{err}");
        }
    }

    #[test]
    fn scaled_circuits_have_five_entries() {
        assert_eq!(scaled_circuits().len(), 5);
    }

    #[test]
    fn registry_workload_equals_direct_generation() {
        // the registry-backed path must produce the exact bits the old
        // direct-generation path produced, scaled or not
        for factor in [1.0, 0.25] {
            let profile = CubeProfile::s13207().scaled(factor);
            assert_eq!(
                workload(&profile),
                generate_test_set(&profile, WORKLOAD_SEED),
                "factor {factor}"
            );
        }
    }
}
