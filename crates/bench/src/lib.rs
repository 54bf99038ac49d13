//! Shared harness utilities for the paper-reproduction benches.
//!
//! Every `cargo bench -p ss-bench --bench <tableN|fig4|hardware>`
//! target prints the corresponding table/figure of the DATE 2008 paper
//! with **measured** columns next to the **paper-reported** values.
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
//! intact.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::Instant;

use ss_core::{Engine, PipelineReport};
use ss_telemetry::json::Json;
use ss_testdata::{generate_test_set, CubeProfile, TestSet, WorkloadRegistry, CORPUS_SEED};

/// Workload scale factor from `SS_SCALE` (default 0.25, clamped to
/// `(0, 1]`).
pub fn scale() -> f64 {
    std::env::var("SS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(|s| s.clamp(0.01, 1.0))
        .unwrap_or(0.25)
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

/// Runs the full State Skip flow for a profile at `(L, S, k)` through
/// the staged [`Engine`], using the paper's LFSR size for that
/// circuit. Intrinsically unencodable cubes (see
/// [`ss_core::HardwareCtx::encodable_subset`]) are dropped first and
/// their count reported on stderr — the paper's real test sets
/// contained none at these LFSR sizes.
///
/// # Panics
///
/// Panics on engine errors — benches want loud failures.
pub fn run_profile(
    profile: &CubeProfile,
    set: &TestSet,
    window: usize,
    segment: usize,
    speedup: u64,
) -> PipelineReport {
    let engine = Engine::builder()
        .window(window)
        .segment(segment)
        .speedup(speedup)
        .lfsr_size(profile.lfsr_size)
        .build()
        .unwrap_or_else(|e| panic!("{}: engine setup failed: {e}", profile.name));
    let (encodable, dropped) = engine
        .encodable_subset(set)
        .unwrap_or_else(|e| panic!("{}: hardware synthesis failed: {e}", profile.name));
    if !dropped.is_empty() {
        eprintln!(
            "note: {}: dropped {} intrinsically unencodable cube(s) of {} (n = {})",
            profile.name,
            dropped.len(),
            set.len(),
            profile.lfsr_size
        );
    }
    engine
        .run(&encodable)
        .unwrap_or_else(|e| panic!("{}: engine run failed: {e}", profile.name))
}

/// Best State-Skip reduction over a parameter sweep, reusing one
/// encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepBest {
    /// TSL of the plain window-based scheme.
    pub orig: u64,
    /// Best proposed TSL found.
    pub prop: u64,
    /// Segment size that achieved it.
    pub segment: usize,
    /// Speedup factor that achieved it.
    pub speedup: u64,
}

/// Sweeps segment sizes and speedup factors over an existing pipeline
/// report (the encoding and embedding map are fixed; only the segment
/// plan and traversal are recomputed — exactly the paper's experiment
/// structure).
pub fn best_reduction(
    report: &PipelineReport,
    scan_depth: usize,
    segments: &[usize],
    speedups: &[u64],
) -> SweepBest {
    let orig = report.tsl_original;
    let mut best: Option<SweepBest> = None;
    for &segment in segments {
        let plan = ss_core::SegmentPlan::build(&report.embedding, segment);
        for &speedup in speedups {
            let prop = plan.tsl(speedup, scan_depth).vectors;
            if best.is_none_or(|b| prop < b.prop) {
                best = Some(SweepBest {
                    orig,
                    prop,
                    segment,
                    speedup,
                });
            }
        }
    }
    best.expect("non-empty sweep")
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
    fn scale_is_clamped() {
        // without the env var the default applies
        let s = scale();
        assert!(s > 0.0 && s <= 1.0);
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

    #[test]
    fn run_profile_smoke() {
        let profile = CubeProfile::mini();
        let set = workload(&profile);
        let report = run_profile(&profile, &set, 10, 2, 4);
        assert!(report.seeds > 0);
    }
}
