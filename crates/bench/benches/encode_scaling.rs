//! `encode_scaling`: throughput of the residue-cached encoder search
//! against the from-scratch reference search, on every registry
//! workload.
//!
//! Two measurements per workload, both over the same hardware context
//! at the golden-conformance knobs (`L=24, S=4, k=6`):
//!
//! * **reference** — [`WindowEncoder::encode_reference`], the
//!   pre-overhaul search (re-eliminates every candidate system from
//!   scratch each round);
//! * **cached** — [`WindowEncoder::encode`], the incremental
//!   residue-cached search (single-threaded, like the reference).
//!
//! Every run *asserts* the two searches return bit-identical
//! encodings (seeds and placements) and that the cached single-thread
//! search beats the reference (`speedup > 1`) on every workload large
//! enough to time reliably. CI's `test` job runs this bench (`cargo
//! bench -p ss-bench --bench encode_scaling`) on every push and pull
//! request, so a regression in either fails that step. Each time
//! is the median of three samples, so one noisy sample cannot move a
//! row; the times and ratios are recorded in `BENCH_encode.json` at
//! the workspace root, next to `BENCH_packed.json`.
//!
//! At `L = 24` every expression table fits in L2, so those rows cannot
//! show how the first-visit probe scales with the table. A second set
//! of **window rows** times the cached search alone on the two largest
//! profiles at the paper's `L = 50` and `L = 200` (scale 0.1, the
//! paper's LFSR sizes, as in perfbench's `paper-encode` jobs). The
//! reference search takes minutes at `L = 200`, so these rows skip it;
//! the cached search is pinned to the reference by
//! `tests/encoder_props.rs` and the golden corpus.

use std::time::{Duration, Instant};

use ss_core::{Engine, HardwareCtx, Table, WindowEncoder};
use ss_telemetry::json::Json;
use ss_testdata::{TestSet, Workload, WorkloadRegistry};

const WINDOW: usize = 24;
const SEGMENT: usize = 4;
const SPEEDUP: u64 = 6;

/// Timed samples per row; the row records their median.
const SAMPLES: usize = 3;

/// Workloads of the cached-only window rows.
const WINDOW_ROW_WORKLOADS: [&str; 2] = ["s38417", "s38584"];

/// Windows of the cached-only rows: the short and long ends of the
/// paper's Table 2 sweep.
const WINDOW_ROW_WINDOWS: [usize; 2] = [50, 200];

/// Cube-set scale of the cached-only rows, whatever `SS_SCALE` says.
const WINDOW_ROW_SCALE: f64 = 0.1;

/// Target length of one sample: a fast closure is called in a batch
/// of about this long, so the three samples of a fast row cost about
/// what the single 300 ms mean they replaced did.
const SAMPLE_BUDGET: Duration = Duration::from_millis(100);

/// The closure's last result and its seconds per call: the median of
/// [`SAMPLES`] samples. A sample is a single call when the closure is
/// slow (the reference search on the big profiles; the calibration
/// call then counts as the first sample), or the mean of a batch sized
/// to fill [`SAMPLE_BUDGET`] when it is fast.
fn time_median<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut out = std::hint::black_box(f());
    let first = start.elapsed().as_secs_f64();
    let batch = (SAMPLE_BUDGET.as_secs_f64() / first).clamp(1.0, 200.0) as u32;
    let mut samples = Vec::with_capacity(SAMPLES);
    if batch == 1 {
        samples.push(first);
    }
    while samples.len() < SAMPLES {
        let start = Instant::now();
        for _ in 0..batch {
            out = std::hint::black_box(f());
        }
        samples.push(start.elapsed().as_secs_f64() / f64::from(batch));
    }
    samples.sort_by(f64::total_cmp);
    (out, samples[SAMPLES / 2])
}

struct Row {
    name: String,
    cubes: usize,
    seeds: usize,
    reference_s: f64,
    cached_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_s / self.cached_s
    }
}

/// The workload's test set at the bench scale (profiles honour
/// `SS_SCALE`; file workloads are small and run full size).
fn bench_set(w: &Workload) -> TestSet {
    if w.profile().is_some() {
        w.test_set_scaled(ss_bench::scale())
    } else {
        w.test_set()
    }
}

/// One cached-only row: the residue-cached search at a paper window.
struct WindowRow {
    name: String,
    window: usize,
    lfsr_size: usize,
    cubes: usize,
    seeds: usize,
    cached_s: f64,
}

/// The encodable part of `set` and its hardware context at window
/// `window`, with the profile's paper LFSR size when it has one.
fn encodable(w: &Workload, set: &TestSet, window: usize) -> (Engine, HardwareCtx, TestSet) {
    let mut builder = Engine::builder()
        .window(window)
        .segment(SEGMENT)
        .speedup(SPEEDUP);
    if let Some(profile) = w.profile() {
        builder = builder.lfsr_size(profile.lfsr_size);
    }
    let engine = builder.build().expect("bench knobs are valid");
    let ctx = engine.synthesize(set).expect("synthesis succeeds");
    let (set, dropped) = ctx.encodable_subset(set);
    if !dropped.is_empty() {
        eprintln!(
            "note: {}: dropped {} unencodable cube(s)",
            w.name,
            dropped.len()
        );
    }
    (engine, ctx, set)
}

fn measure(w: &Workload) -> Row {
    let (engine, ctx, set) = encodable(w, &bench_set(w), WINDOW);
    let fill_seed = engine.config().fill_seed;
    let encoder = WindowEncoder::new(&set, ctx.table()).expect("one geometry");

    let (reference, reference_s) =
        time_median(|| encoder.encode_reference(fill_seed).expect("encodes"));
    let (cached, cached_s) = time_median(|| encoder.encode(fill_seed).expect("encodes"));
    assert_eq!(
        cached, reference,
        "{}: cached encoding diverged from encode_reference",
        w.name
    );

    Row {
        name: w.name.to_string(),
        cubes: set.len(),
        seeds: reference.seeds.len(),
        reference_s,
        cached_s,
    }
}

fn measure_window(w: &Workload, window: usize) -> WindowRow {
    let (engine, ctx, set) = encodable(w, &w.test_set_scaled(WINDOW_ROW_SCALE), window);
    let encoder = WindowEncoder::new(&set, ctx.table()).expect("one geometry");
    let (cached, cached_s) =
        time_median(|| encoder.encode(engine.config().fill_seed).expect("encodes"));
    WindowRow {
        name: w.name.to_string(),
        window,
        lfsr_size: ctx.table().vars(),
        cubes: set.len(),
        seeds: cached.seeds.len(),
        cached_s,
    }
}

fn write_json(rows: &[Row], window_rows: &[WindowRow]) {
    let workloads = rows
        .iter()
        .map(|row| {
            Json::object([
                ("name", row.name.as_str().into()),
                ("cubes", row.cubes.into()),
                ("seeds", row.seeds.into()),
                ("reference_s", Json::exp(row.reference_s, 6)),
                ("cached_1t_s", Json::exp(row.cached_s, 6)),
                ("speedup_1t", Json::fixed(row.speedup(), 2)),
            ])
        })
        .collect();
    let windows = window_rows
        .iter()
        .map(|row| {
            Json::object([
                ("name", row.name.as_str().into()),
                ("window", row.window.into()),
                ("lfsr_size", row.lfsr_size.into()),
                ("cubes", row.cubes.into()),
                ("seeds", row.seeds.into()),
                ("cached_1t_s", Json::exp(row.cached_s, 6)),
            ])
        })
        .collect();
    let engine = Json::String(format!("L={WINDOW} S={SEGMENT} k={SPEEDUP}"));
    ss_bench::write_bench_json(
        "encode",
        "encode_scaling",
        vec![
            ("engine", engine),
            ("ss_scale", ss_bench::scale().into()),
            ("samples_per_row", SAMPLES.into()),
            ("workloads", Json::Array(workloads)),
            ("window_rows_scale", WINDOW_ROW_SCALE.into()),
            ("window_rows", Json::Array(windows)),
        ],
    );
}

fn main() {
    ss_bench::banner("encode scaling: residue-cached search vs reference");

    let rows: Vec<Row> = WorkloadRegistry::all().iter().map(measure).collect();

    let mut table = Table::new([
        "workload",
        "cubes",
        "seeds",
        "reference",
        "cached 1t",
        "speedup 1t",
    ]);
    for row in &rows {
        table.add_row([
            row.name.clone(),
            row.cubes.to_string(),
            row.seeds.to_string(),
            format!("{:.3} ms", row.reference_s * 1e3),
            format!("{:.3} ms", row.cached_s * 1e3),
            format!("{:.1}x", row.speedup()),
        ]);
    }
    println!("{table}");

    let window_rows: Vec<WindowRow> = WINDOW_ROW_WORKLOADS
        .iter()
        .flat_map(|&name| {
            let w = WorkloadRegistry::find(name).expect("registry entry");
            WINDOW_ROW_WINDOWS.map(|window| measure_window(w, window))
        })
        .collect();
    let mut table = Table::new(["workload", "L", "n", "cubes", "seeds", "cached 1t"]);
    for row in &window_rows {
        table.add_row([
            format!("{}@{WINDOW_ROW_SCALE}", row.name),
            row.window.to_string(),
            row.lfsr_size.to_string(),
            row.cubes.to_string(),
            row.seeds.to_string(),
            format!("{:.3} ms", row.cached_s * 1e3),
        ]);
    }
    println!("{table}");
    write_json(&rows, &window_rows);

    // smoke contract: the cached search must never regress below the
    // reference on any workload large enough to time reliably
    // (sub-millisecond encodes are timing noise)
    for row in rows.iter().filter(|r| r.reference_s > 1e-3) {
        assert!(
            row.speedup() > 1.0,
            "{}: cached encoder ({:.3} ms) is not faster than the reference ({:.3} ms)",
            row.name,
            row.cached_s * 1e3,
            row.reference_s * 1e3
        );
    }
}
