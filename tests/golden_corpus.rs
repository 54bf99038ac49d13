//! Golden conformance harness: every registry workload runs through
//! `Engine::run` (and the three-scheme `comparison_table`) and must
//! reproduce the checked-in numbers in `tests/golden/corpus.txt`
//! exactly — seed counts, TDV, TSL before/after State Skip, and (for
//! file workloads) the stuck-at coverage of the applied sequence.
//!
//! Golden values are deliberately exact, not toleranced: the whole
//! flow is deterministic, so any drift is a behaviour change that must
//! be either fixed or consciously re-pinned. To re-pin after an
//! intentional change:
//!
//! ```text
//! SS_REGEN_GOLDEN=1 cargo test --test golden_corpus
//! ```
//!
//! and commit the rewritten `tests/golden/corpus.txt`.
//!
//! Engine knobs are fixed at `L=24, S=4, k=6`; profile workloads use
//! their paper LFSR size and run at scale 0.1 (the corpus prefix
//! contract — see `Workload::test_set_scaled`) to keep the harness
//! fast; file workloads run full size with the default (smax-derived)
//! LFSR.

use std::fmt::Write as _;
use std::path::PathBuf;

use ss_core::{
    comparison_table, parse_workload, sequence_coverage, Baseline11, ClassicalReseeding,
    CompressionScheme, Decompressor, Engine, StateSkip,
};
use ss_testdata::{TestSet, Workload, WorkloadRegistry};

const WINDOW: usize = 24;
const SEGMENT: usize = 4;
const SPEEDUP: u64 = 6;
const PROFILE_SCALE: f64 = 0.1;

/// One measured golden row.
#[derive(Debug, PartialEq)]
struct GoldenRow {
    name: String,
    cubes: usize,
    lfsr: usize,
    seeds: usize,
    tdv: usize,
    tsl_original: u64,
    tsl_proposed: u64,
    /// Applied-sequence stuck-at coverage in basis points (exact
    /// integer, avoids float formatting drift); -1 for profile
    /// workloads (no netlist to simulate).
    coverage_bp: i64,
}

impl GoldenRow {
    fn to_line(&self) -> String {
        format!(
            "{} cubes={} lfsr={} seeds={} tdv={} tsl_orig={} tsl_prop={} coverage_bp={}",
            self.name,
            self.cubes,
            self.lfsr,
            self.seeds,
            self.tdv,
            self.tsl_original,
            self.tsl_proposed,
            self.coverage_bp
        )
    }
}

fn engine_for(w: &Workload) -> Engine {
    let mut builder = Engine::builder()
        .window(WINDOW)
        .segment(SEGMENT)
        .speedup(SPEEDUP);
    if let Some(profile) = w.profile() {
        builder = builder.lfsr_size(profile.lfsr_size);
    }
    builder.build().expect("golden knobs are valid")
}

fn workload_set(w: &Workload) -> TestSet {
    if w.profile().is_some() {
        w.test_set_scaled(PROFILE_SCALE)
    } else {
        w.test_set()
    }
}

/// Runs one workload through the staged engine exactly like the CLI
/// `run` path: synthesize once, drop intrinsically unencodable cubes
/// against pinned hardware, run all stages. The cycle-accurate
/// decompressor then replays the report and must realise its TSL and
/// clock count and apply every encodable cube.
fn measure(w: &Workload) -> GoldenRow {
    let set = workload_set(w);
    let engine = engine_for(w);
    let ctx = engine.synthesize(&set).expect("synthesis succeeds");
    let (encodable, _) = ctx.encodable_subset(&set);
    let lfsr_size = ctx.lfsr_size();
    let mut config = *engine.config();
    config.lfsr_size = Some(lfsr_size);
    let engine = Engine::from_config(config).expect("pinned config is valid");
    let report = engine.run(&encodable).expect("engine run succeeds");

    // the comparison table must agree with the report on the State
    // Skip row (cheap cross-check that run_all and run share numbers)
    let schemes: Vec<Box<dyn CompressionScheme>> = vec![
        Box::new(StateSkip),
        Box::new(ClassicalReseeding),
        Box::new(Baseline11),
    ];
    let reports = engine.run_all(&schemes, &encodable).expect("schemes run");
    let table = comparison_table(&reports).to_string();
    assert!(
        table.contains(&report.tsl_proposed.to_string()),
        "{}: comparison table lost the State Skip TSL",
        w.name
    );

    let ctx = engine.synthesize(&encodable).expect("synthesis succeeds");
    let trace = Decompressor::new(
        ctx.lfsr().clone(),
        report.speedup,
        ctx.shifter().clone(),
        ctx.scan(),
        report.mode_select.clone(),
    )
    .run(&report.encoding, &report.plan);
    assert_eq!(trace.tsl(), report.tsl_proposed, "{}: replayed TSL", w.name);
    assert_eq!(
        trace.clocks, report.tsl_report.total_clocks,
        "{}: replayed clocks",
        w.name
    );
    assert!(
        trace.covers(&encodable),
        "{}: a cube was never applied",
        w.name
    );

    let coverage_bp = match w.bench_text() {
        None => -1,
        Some(bench) => {
            let loaded = parse_workload(bench, w.cubes_text().unwrap())
                .unwrap_or_else(|e| panic!("{}: corpus pair invalid: {e}", w.name));
            let cov = sequence_coverage(&loaded.circuit.netlist, &ctx, &report)
                .unwrap_or_else(|e| panic!("{}: coverage failed: {e}", w.name));
            (cov.applied_coverage * 10_000.0).round() as i64
        }
    };

    GoldenRow {
        name: w.name.to_string(),
        cubes: set.len(),
        lfsr: lfsr_size,
        seeds: report.seeds,
        tdv: report.tdv,
        tsl_original: report.tsl_original,
        tsl_proposed: report.tsl_proposed,
        coverage_bp,
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("corpus.txt")
}

#[test]
fn registry_workloads_match_golden_values() {
    let rows: Vec<GoldenRow> = WorkloadRegistry::all().iter().map(measure).collect();

    let mut rendered = String::new();
    writeln!(
        rendered,
        "# golden corpus numbers: L={WINDOW} S={SEGMENT} k={SPEEDUP}, profiles at scale {PROFILE_SCALE}"
    )
    .unwrap();
    writeln!(
        rendered,
        "# regenerate with: SS_REGEN_GOLDEN=1 cargo test --test golden_corpus"
    )
    .unwrap();
    for row in &rows {
        writeln!(rendered, "{}", row.to_line()).unwrap();
    }

    let regen = std::env::var("SS_REGEN_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0");
    if regen {
        std::fs::write(golden_path(), &rendered).expect("golden file is writable");
        return;
    }

    let golden = std::fs::read_to_string(golden_path()).expect("tests/golden/corpus.txt exists");
    let golden_lines: Vec<&str> = golden
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    let measured_lines: Vec<String> = rows.iter().map(GoldenRow::to_line).collect();
    assert_eq!(
        golden_lines.len(),
        measured_lines.len(),
        "registry size changed; SS_REGEN_GOLDEN=1 to re-pin"
    );
    for (golden_line, measured) in golden_lines.iter().zip(&measured_lines) {
        assert_eq!(
            golden_line, measured,
            "golden drift (SS_REGEN_GOLDEN=1 to re-pin after an intentional change)"
        );
    }
}

/// File workloads must also run end-to-end *from their on-disk files*
/// with results identical to the embedded copies — the CLI contract.
#[test]
fn file_workloads_run_from_disk() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates")
        .join("testdata")
        .join("workloads");
    for w in WorkloadRegistry::all() {
        if w.provenance().is_none() {
            continue;
        }
        let bench = std::fs::read_to_string(dir.join(format!("{}.bench", w.name))).unwrap();
        let cubes = std::fs::read_to_string(dir.join(format!("{}.cubes", w.name))).unwrap();
        assert_eq!(bench, w.bench_text().unwrap(), "{}: .bench drift", w.name);
        assert_eq!(cubes, w.cubes_text().unwrap(), "{}: .cubes drift", w.name);
        let loaded = parse_workload(&bench, &cubes).unwrap();
        assert_eq!(loaded.set, w.test_set(), "{}", w.name);
    }
}
