//! `packed_vs_scalar`: throughput of the bit-packed 64-lane engine
//! against the one-pattern-at-a-time scalar oracles, on the standard
//! workloads.
//!
//! Three kernels are compared, each pinned bit-identical to its oracle
//! by property tests (`tests/packed_props.rs`):
//!
//! * **fsim** — fault-dropped coverage of a random pattern list
//!   ([`FaultSimulator::coverage_packed`] vs
//!   [`FaultSimulator::coverage_scalar`]);
//! * **expand** — seed-window expansion
//!   ([`ss_core::PackedWindowExpander::expand`] vs
//!   [`ss_core::try_expand_seed`]);
//! * **embed** — fortuitous-embedding detection
//!   ([`ss_core::EmbeddingMap::build`] vs
//!   [`EmbeddingMap::build_scalar`](ss_core::EmbeddingMap::build_scalar)).
//!
//! Besides the console table, the run records the measured
//! throughput ratios in `BENCH_packed.json` at the workspace root —
//! the first entry of the repo's bench-baseline trajectory. CI uploads
//! the file as an artifact.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ss_circuit::{random_circuit, CircuitSpec, FaultList, FaultSimulator};
use ss_core::{try_expand_seed, EmbeddingMap, Engine, PackedWindowExpander, Table};
use ss_gf2::{BitVec, PackedPatterns};
use ss_telemetry::json::Json;
use ss_testdata::{generate_test_set, CubeProfile};

/// Seconds per iteration: one warm-up call, then at least one measured
/// iteration, continuing until ~300 ms of samples are collected.
fn time_per_iter<T>(mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        std::hint::black_box(f());
        iters += 1;
        if start.elapsed() >= Duration::from_millis(300) || iters >= 1000 {
            break;
        }
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

struct Row {
    name: String,
    work_items: usize,
    scalar_s: f64,
    packed_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_s / self.packed_s
    }
}

fn fsim_rows(rows: &mut Vec<Row>) {
    for (spec, patterns) in [
        (CircuitSpec::tiny(), 2048usize),
        (CircuitSpec::mini(), 1024),
        (CircuitSpec::s9234_like(), 256),
    ] {
        let netlist = random_circuit(&spec, ss_bench::WORKLOAD_SEED);
        let faults = FaultList::collapsed(&netlist);
        let fsim = FaultSimulator::new(&netlist);
        let mut rng = SmallRng::seed_from_u64(ss_bench::WORKLOAD_SEED);
        let list: Vec<Vec<bool>> = (0..patterns)
            .map(|_| (0..netlist.input_count()).map(|_| rng.gen()).collect())
            .collect();
        let packed = PackedPatterns::from_bools(netlist.input_count(), &list);
        let scalar_s = time_per_iter(|| fsim.coverage_scalar(&faults, &list));
        let packed_s = time_per_iter(|| fsim.coverage_packed(&faults, &packed));
        rows.push(Row {
            name: format!("fsim/{}", spec.name),
            work_items: patterns,
            scalar_s,
            packed_s,
        });
    }
}

fn expand_rows(rows: &mut Vec<Row>) {
    let set = generate_test_set(&CubeProfile::mini(), ss_bench::WORKLOAD_SEED);
    let engine = Engine::builder().window(128).segment(4).build().unwrap();
    let ctx = engine.synthesize(&set).unwrap();
    let mut rng = SmallRng::seed_from_u64(7);
    let seed = BitVec::random(ctx.lfsr_size(), &mut rng);
    let window = 128;
    let scalar_s = time_per_iter(|| {
        try_expand_seed(ctx.lfsr(), ctx.shifter(), set.config(), &seed, window).unwrap()
    });
    // production path: the expander is built once per hardware and
    // amortised over every seed (as EmbeddingMap::build does)
    let expander =
        PackedWindowExpander::new(ctx.lfsr(), ctx.shifter(), set.config(), window).unwrap();
    let packed_s = time_per_iter(|| expander.expand(&seed).unwrap());
    rows.push(Row {
        name: "expand/mini-L128".to_string(),
        work_items: window,
        scalar_s,
        packed_s,
    });
}

fn embed_rows(rows: &mut Vec<Row>) {
    let set = generate_test_set(&CubeProfile::mini(), ss_bench::WORKLOAD_SEED);
    let engine = Engine::builder().window(64).segment(4).build().unwrap();
    let encoded = engine.encode(&set).expect("standard workload encodes");
    let (lfsr, shifter) = (encoded.ctx().lfsr(), encoded.ctx().shifter());
    let scalar_s =
        time_per_iter(|| EmbeddingMap::build_scalar(&set, encoded.encoding(), lfsr, shifter));
    let packed_s = time_per_iter(|| EmbeddingMap::build(&set, encoded.encoding(), lfsr, shifter));
    rows.push(Row {
        name: "embed/mini-L64".to_string(),
        work_items: encoded.seed_count() * 64,
        scalar_s,
        packed_s,
    });
}

fn write_json(rows: &[Row]) {
    let workloads = rows
        .iter()
        .map(|row| {
            Json::object([
                ("name", Json::from(row.name.as_str())),
                ("work_items", row.work_items.into()),
                ("scalar_s", Json::exp(row.scalar_s, 6)),
                ("packed_s", Json::exp(row.packed_s, 6)),
                ("speedup", Json::fixed(row.speedup(), 2)),
            ])
        })
        .collect();
    ss_bench::write_bench_json(
        "packed",
        "packed_vs_scalar",
        vec![
            ("ss_scale", ss_bench::scale().into()),
            ("workloads", Json::Array(workloads)),
        ],
    );
}

fn main() {
    ss_bench::banner("packed vs scalar: 64-lane bit-parallel engine throughput");

    let mut rows = Vec::new();
    fsim_rows(&mut rows);
    expand_rows(&mut rows);
    embed_rows(&mut rows);

    let mut table = Table::new(["kernel", "items", "scalar", "packed", "speedup"]);
    for row in &rows {
        table.add_row([
            row.name.clone(),
            row.work_items.to_string(),
            format!("{:.3} ms", row.scalar_s * 1e3),
            format!("{:.3} ms", row.packed_s * 1e3),
            format!("{:.1}x", row.speedup()),
        ]);
    }
    println!("{table}");
    write_json(&rows);
}
