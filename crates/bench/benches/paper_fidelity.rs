//! Paper-fidelity ledger: the DATE 2008 paper's Tables 1–4, Fig. 4 and
//! Section 4 hardware numbers, measured beside the paper's own values
//! (`ss_core`'s literature constants), plus the ablations.
//!
//! The ledger works one circuit at a time and synthesises and encodes
//! each window it needs once: L in {1, 50, 200, 300, 500}, plus L = 100
//! for s13207's Fig. 4 curve. Every (S, k) row derives from that one
//! encoding through the staged sweep hooks (`Embedded::segment_with`,
//! `Segmented::tsl_with`, `Segmented::finish`). The engines run at
//! k = 10, the SoC study's speedup, which is all `finish` reads it for.
//!
//! It prints every table and writes `BENCH_paper.json`: one row per
//! measured value with the paper's value (`null` where the paper gives
//! none, `[lo, hi]` where it gives a range), `ss_scale`, and the wall
//! time of the encoding the row derives from. The committed full-scale
//! run and its known deviations are in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo bench -p ss-bench --bench paper_fidelity              # SS_SCALE=0.25
//! SS_SCALE=1 cargo bench -p ss-bench --bench paper_fidelity   # full size
//! ```

use std::collections::HashSet;

use ss_bench::{banner, scale, scaled_circuits, timed, workload, write_bench_json};
use ss_core::{
    baseline11_tsl, improvement_percent, lit_table3, lit_table4, Embedded, Encoded, Engine, Table,
    PAPER_FIG4_BARS, PAPER_SECTION4, PAPER_TABLE1, PAPER_TABLE2,
};
use ss_gf2::primitive_poly;
use ss_lfsr::{CostModel, GateCount, Lfsr, SkipCircuit};
use ss_telemetry::json::Json;
use ss_testdata::{CubeProfile, TestSet};

/// Table 1's L = 1, 50, 200, 500 and Table 3's L = 300; s13207 adds
/// L = 100 for Fig. 4. Every other table reuses these encodings.
const WINDOWS: [usize; 5] = [1, 50, 200, 300, 500];
const S13207: &str = "s13207";
const ENGINE_SPEEDUP: u64 = 10;
/// Every plan is costed at k = 1..=24, the largest k a row reads.
const MAX_SPEEDUP: u64 = 24;
/// Tables 2–4: best S in {2, 5, 10} and 5 <= k <= 24, as in the paper.
const SWEEP_SEGMENTS: [usize; 3] = [2, 5, 10];
const FIG4_SPEEDUPS: [u64; 8] = [3, 6, 9, 12, 15, 18, 21, 24];
const FIG4_BAR_SEGMENTS: [usize; 4] = [4, 10, 12, 20];
const MODE_SELECT_WINDOWS: [usize; 3] = [50, 200, 500];
const MODE_SELECT_SEGMENTS: [usize; 3] = [2, 10, 50];
/// The single job of the encodings table and the ablations.
const JOB_SEGMENT: usize = 5;
const JOB_SPEEDUP: u64 = 20;

/// Cells for [`Table::add_row`], each through `to_string`.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => { [$($cell.to_string()),*] };
}

/// A table from comma-separated headers.
fn table(headers: &str) -> Table {
    Table::new(headers.split(", "))
}

/// One segment size's plan on an encoding.
struct Plan {
    segment: usize,
    /// TSL at k = 1..=MAX_SPEEDUP.
    tsl: Vec<u64>,
    useful: usize,
    truncated: u64,
    mode_select_ge: f64,
    shared_ge: f64,
    skip_ge: f64,
}

impl Plan {
    fn measure(embedded: &Embedded<'_>, segment: usize) -> Plan {
        let segmented = embedded.clone().segment_with(segment);
        let tsl = (1..=MAX_SPEEDUP).map(|k| segmented.tsl_with(k).vectors);
        let tsl = tsl.collect();
        let report = segmented.finish().expect("k = 10 builds a skip circuit");
        Plan {
            segment,
            tsl,
            useful: report.plan.total_useful(),
            truncated: report.tsl_truncated,
            mode_select_ge: report.cost.mode_select_ge(),
            shared_ge: report.cost.shared_ge(),
            skip_ge: report.cost.skip_ge(),
        }
    }

    fn tsl(&self, speedup: u64) -> u64 {
        self.tsl[speedup as usize - 1]
    }
}

/// One (circuit, L) encoding and everything the tables read of it.
struct Measured {
    window: usize,
    /// The workload's cube count, unencodable cubes included.
    cubes: usize,
    seeds: usize,
    tdv: usize,
    tsl_orig: u64,
    tsl_11: u64,
    mean_embeddings: f64,
    /// Useful segments at S = 5 if every segment holding an
    /// intentional placement were kept (the ablation's naive policy).
    naive_useful: usize,
    /// Ascending by S; none at L = 1.
    plans: Vec<Plan>,
    /// Synthesis, encode, embed and every plan.
    wall_s: f64,
}

impl Measured {
    /// Synthesises and encodes `set` once at `window` with the paper's
    /// LFSR size, and derives every plan the tables read at `segments`.
    /// Intrinsically unencodable cubes (see
    /// [`ss_core::HardwareCtx::encodable_subset`]) are dropped first and
    /// counted on stderr; the paper's real test sets had none at these
    /// LFSR sizes.
    fn measure(profile: &CubeProfile, set: &TestSet, window: usize, segments: &[usize]) -> Self {
        let name = profile.name;
        let (mut measured, wall_s) = timed(|| {
            // any valid S: every plan below picks its own
            let engine = Engine::builder()
                .window(window)
                .segment(window.min(SWEEP_SEGMENTS[0]))
                .speedup(ENGINE_SPEEDUP)
                .lfsr_size(profile.lfsr_size)
                .build()
                .unwrap_or_else(|e| panic!("{name}: engine setup failed: {e}"));
            let ctx = engine
                .synthesize(set)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (encodable, dropped) = ctx.encodable_subset(set);
            if !dropped.is_empty() {
                eprintln!(
                    "note: {name}: dropped {} intrinsically unencodable cube(s) of {} (n = {})",
                    dropped.len(),
                    set.len(),
                    profile.lfsr_size
                );
            }
            let encoded = Encoded::from_ctx(&encodable, ctx)
                .unwrap_or_else(|e| panic!("{name}: L = {window}: {e}"));
            let (seeds, tdv, tsl_orig) =
                (encoded.seed_count(), encoded.tdv(), encoded.tsl_original());
            let embedded = encoded.embed();
            let by_seed = embedded.encoding().seeds.iter().enumerate();
            let placed = by_seed.flat_map(|(i, s)| {
                s.placements
                    .iter()
                    .map(move |p| (i, p.position / JOB_SEGMENT))
            });
            Measured {
                window,
                cubes: set.len(),
                seeds,
                tdv,
                tsl_orig,
                tsl_11: baseline11_tsl(embedded.embedding()),
                mean_embeddings: embedded.embedding().mean_embeddings(),
                naive_useful: placed.collect::<HashSet<_>>().len(),
                plans: segments
                    .iter()
                    .map(|&s| Plan::measure(&embedded, s))
                    .collect(),
                wall_s: 0.0,
            }
        });
        measured.wall_s = wall_s;
        measured
    }

    fn plan(&self, segment: usize) -> &Plan {
        let found = self.plans.iter().find(|p| p.segment == segment);
        found.unwrap_or_else(|| panic!("L = {}: no plan at S = {segment}", self.window))
    }

    /// Tables 2–4's best `(S, k, TSL)`: the first minimum in (S, k)
    /// order.
    fn best(&self) -> (usize, u64, u64) {
        let sweep = SWEEP_SEGMENTS.map(|s| self.plan(s));
        let all = sweep
            .iter()
            .flat_map(|p| (5..=MAX_SPEEDUP).map(|k| (p.segment, k, p.tsl(k))));
        all.min_by_key(|&(.., tsl)| tsl).expect("non-empty sweep")
    }

    fn improvement(&self, segment: usize, speedup: u64) -> f64 {
        improvement_percent(self.tsl_orig, self.plan(segment).tsl(speedup))
    }
}

/// One circuit's encodings, ascending by L.
struct Circuit {
    profile: CubeProfile,
    windows: Vec<Measured>,
}

impl Circuit {
    fn measure(profile: CubeProfile) -> Circuit {
        let set = workload(&profile);
        let s13207 = profile.name == S13207;
        let mut windows = WINDOWS.to_vec();
        if s13207 {
            windows.insert(2, 100);
        }
        let windows = windows.into_iter().map(|window| {
            // Fig. 4's bars and Section 4's Mode Select grid are s13207's
            let mut segments = SWEEP_SEGMENTS.to_vec();
            if s13207 && window == 300 {
                segments.extend(FIG4_BAR_SEGMENTS);
            }
            if s13207 && MODE_SELECT_WINDOWS.contains(&window) {
                segments.extend(MODE_SELECT_SEGMENTS);
            }
            segments.retain(|&s| s <= window);
            segments.sort_unstable();
            segments.dedup();
            Measured::measure(&profile, &set, window, &segments)
        });
        let windows = windows.collect();
        Circuit { profile, windows }
    }

    fn name(&self) -> &'static str {
        self.profile.name
    }

    fn at(&self, window: usize) -> &Measured {
        let found = self.windows.iter().find(|m| m.window == window);
        found.unwrap_or_else(|| panic!("{}: L = {window} was not encoded", self.name()))
    }
}

fn s13207(circuits: &[Circuit]) -> &Circuit {
    let found = circuits.iter().find(|c| c.name() == S13207);
    found.expect("s13207 is a paper circuit")
}

/// `BENCH_paper.json`'s rows, each measured value beside the paper's.
struct Ledger {
    scale: f64,
    rows: Vec<Json>,
    /// Experiment, circuit, L, S and k of the rows `add` writes next,
    /// and the wall time of the work behind them.
    head: Vec<(&'static str, Json)>,
    wall_s: f64,
}

impl Ledger {
    fn at(
        &mut self,
        experiment: &str,
        circuit: &str,
        l: Option<usize>,
        s: Option<usize>,
        k: Option<u64>,
        wall_s: f64,
    ) -> &mut Self {
        self.head = vec![
            ("experiment", experiment.into()),
            ("circuit", circuit.into()),
            ("L", opt(l)),
            ("S", opt(s)),
            ("k", opt(k)),
        ];
        self.wall_s = wall_s;
        self
    }

    fn add(
        &mut self,
        quantity: &str,
        measured: impl Into<Json>,
        paper: impl Into<Json>,
    ) -> &mut Self {
        let tail = [
            ("quantity", quantity.into()),
            ("measured", measured.into()),
            ("paper", paper.into()),
            ("ss_scale", self.scale.into()),
            ("wall_s", Json::fixed(self.wall_s, 3)),
        ];
        let row = Json::object(self.head.iter().cloned().chain(tail));
        self.rows.push(row);
        self
    }
}

/// A value, or `null` where there is none.
fn opt(v: Option<impl Into<Json>>) -> Json {
    v.map_or(Json::Null, Into::into)
}

fn range((lo, hi): (u64, u64)) -> Json {
    Json::Array(vec![lo.into(), hi.into()])
}

fn table1(circuits: &[Circuit], ledger: &mut Ledger) {
    println!("=== Table 1: classical vs window-based LFSR reseeding ===\n");
    let mut t = table("circuit, LFSR, L, TDV meas, TDV paper, TSL meas, TSL paper");
    for (c, &(name, n, entries)) in circuits.iter().zip(PAPER_TABLE1) {
        assert_eq!(c.name(), name);
        for (window, tdv, tsl) in entries {
            let m = c.at(window);
            t.add_row(cells![name, n, window, m.tdv, tdv, m.tsl_orig, tsl]);
            ledger
                .at("table1", name, Some(window), None, None, m.wall_s)
                .add("tdv_bits", m.tdv, tdv)
                .add("tsl_vectors", m.tsl_orig, tsl);
        }
    }
    println!("{t}");
    println!("expected shape: TDV falls and TSL grows as L increases, for every circuit.\n");
}

fn table2(circuits: &[Circuit], ledger: &mut Ledger) {
    println!("=== Table 2: TSL improvements (best S in {{2,5,10}}, 5<=k<=24) ===\n");
    let mut t = table(
        "circuit, L, orig meas, orig paper, prop meas, prop paper, impr meas, impr paper, best S/k",
    );
    for (c, &(name, entries)) in circuits.iter().zip(PAPER_TABLE2) {
        assert_eq!(c.name(), name);
        for (window, orig, prop, impr) in entries {
            let m = c.at(window);
            let (s, k, best) = m.best();
            let ours = improvement_percent(m.tsl_orig, best);
            let (ours_pct, sk) = (format!("{ours:.0}%"), format!("{s}/{k}"));
            let cells = cells![name, window, m.tsl_orig, orig, best, prop, ours_pct];
            t.add_row(cells.into_iter().chain([format!("{impr}%"), sk]));
            ledger
                .at("table2", name, Some(window), Some(s), Some(k), m.wall_s)
                .add("tsl_original", m.tsl_orig, orig)
                .add("tsl_proposed", best, prop)
                .add("improvement_pct", ours, impr);
        }
    }
    println!("{t}");
    let paper = PAPER_TABLE2.iter().flat_map(|(_, rows)| rows.map(|r| r.3));
    let lo = paper.clone().min().expect("rows");
    let hi = paper.max().expect("rows");
    println!(
        "expected shape: improvements of {lo}-{hi}%, growing with L, lowest for s38584/s38417.\n"
    );
}

fn table3(circuits: &[Circuit], ledger: &mut Ledger) {
    println!("=== Table 3: vs test set embedding methods (L=300) ===\n");
    let mut t = table(
        "circuit, TDV [11] meas, TDV [22] paper, TDV prop meas, TSL [11] meas, TSL [22] paper, \
         TSL prop meas, impr vs [11], impr vs [22] (paper)",
    );
    for (c, lit) in circuits.iter().zip(lit_table3()) {
        assert_eq!(c.name(), lit.circuit);
        let m = c.at(300);
        let (s, k, prop) = m.best();
        // [11] stores the same seeds and only ends each window after
        // its last needed vector
        let impr_11 = improvement_percent(m.tsl_11, prop);
        let impr_22 = improvement_percent(lit.tsl_22, prop);
        let vs_22 = format!("{impr_22:.1}% (paper {:.1}%)", lit.impr_22);
        let (name, tdv, tsl_11) = (lit.circuit, m.tdv, m.tsl_11);
        let vs_11 = format!("{impr_11:.1}%");
        t.add_row(cells![
            name, tdv, lit.tdv_22, tdv, tsl_11, lit.tsl_22, prop, vs_11, vs_22
        ]);
        ledger
            .at("table3", name, Some(300), None, None, m.wall_s)
            .add("tdv_11_bits", tdv, lit.tdv_11)
            .add("tsl_11", tsl_11, lit.tsl_11)
            .at("table3", name, Some(300), Some(s), Some(k), m.wall_s)
            .add("tdv_proposed_bits", tdv, lit.tdv_prop)
            .add("tsl_proposed", prop, lit.tsl_prop)
            .add("improvement_vs_11_pct", impr_11, lit.impr_11)
            .add("improvement_vs_22_pct", impr_22, lit.impr_22);
    }
    println!("{t}");
    println!("paper values for reference: [11] TDV/TSL and prop TDV/TSL per circuit:");
    for lit in lit_table3() {
        println!(
            "  {}: [11] {} bits / {} vectors; prop {} bits / {} vectors (impr {:.1}%)",
            lit.circuit, lit.tdv_11, lit.tsl_11, lit.tdv_prop, lit.tsl_prop, lit.impr_11
        );
    }
    println!("expected shape: proposed TSL is a small fraction of [11]'s and tiny next to [22]'s;");
    println!("[22] wins TDV by an order of magnitude but with ~100x longer sequences.\n");
}

fn table4(circuits: &[Circuit], ledger: &mut Ledger) {
    println!("=== Table 4: vs test data compression methods ===\n");
    for (c, lit) in circuits.iter().zip(lit_table4()) {
        assert_eq!(c.name(), lit.circuit);
        let (classical, windowed) = (c.at(1), c.at(200));
        let (s, k, prop) = windowed.best();
        let mut t = Table::new([c.name(), "TSL", "TDV (bits)"]);
        let text = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
        for m in &lit.methods {
            t.add_row([m.label.to_string(), text(m.tsl), text(m.tdv)]);
        }
        let (tsl, tdv) = (classical.tsl_orig, classical.tdv);
        t.add_row(cells!["classical L=1 (measured)", tsl, tdv]);
        t.add_row(cells!["proposed L=200 (measured)", prop, windowed.tdv]);
        println!("{t}");
        let paper = |prefix: &str| {
            let found = lit.methods.iter().find(|m| m.label.starts_with(prefix));
            *found.expect("the paper's own columns are listed")
        };
        let paper_prop = paper("proposed");
        let (classic, name) = (paper("classical"), c.name());
        ledger
            .at("table4", name, Some(1), None, None, classical.wall_s)
            .add("tsl_classical", classical.tsl_orig, opt(classic.tsl))
            .add("tdv_classical_bits", classical.tdv, opt(classic.tdv))
            .at("table4", name, Some(200), Some(s), Some(k), windowed.wall_s)
            .add("tsl_proposed", prop, opt(paper_prop.tsl))
            .add("tdv_proposed_bits", windowed.tdv, opt(paper_prop.tdv));
    }
    println!("expected shape: the proposed method has the lowest TDV of all methods (except");
    println!("s38417) while its TSL is roughly 5-10x the compression methods' — the paper's");
    println!("'few data, longer sequences' trade-off that State Skip makes acceptable.\n");
}

fn fig4(circuits: &[Circuit], ledger: &mut Ledger) {
    println!("=== Fig. 4: TSL improvement vs k ({S13207}) ===\n");
    let c = s13207(circuits);
    let ks = FIG4_SPEEDUPS.map(|k| format!("k={k}")).join(", ");
    // the paper gives numbers for the bars only, at their first and last k
    let mut row = |t: &mut Table, m: &Measured, segment: usize, bar: bool| {
        let (l, w) = (Some(m.window), m.wall_s);
        let label = if bar {
            format!("S={segment} (L={})", m.window)
        } else {
            format!("L={} (S={segment})", m.window)
        };
        let mut cells = vec![label];
        for k in FIG4_SPEEDUPS {
            let impr = m.improvement(segment, k);
            cells.push(format!("{impr:.1}%"));
            let paper = PAPER_FIG4_BARS.iter().find(|&&(pk, ..)| bar && pk == k);
            let paper = paper.map_or(Json::Null, |&(_, lo, hi)| range((lo, hi)));
            ledger.at("fig4", S13207, l, Some(segment), Some(k), w).add(
                "improvement_pct",
                impr,
                paper,
            );
        }
        t.add_row(cells);
    };
    let mut bars = table(&format!("S \\ k, {ks}"));
    for segment in FIG4_BAR_SEGMENTS {
        row(&mut bars, c.at(300), segment, true);
    }
    println!("{bars}");
    let [(k_lo, lo_lo, lo_hi), (k_hi, hi_lo, hi_hi)] = PAPER_FIG4_BARS;
    println!("paper (bars): {lo_lo}-{lo_hi}% at k={k_lo} rising to {hi_lo}-{hi_hi}% at k={k_hi}; improvement grows as S shrinks.\n");
    let mut curves = table(&format!("L \\ k, {ks}"));
    for window in [50, 100, 300, 500] {
        row(&mut curves, c.at(window), 5, false);
    }
    println!("{curves}");
    println!("paper (curves): improvement rises with L; every curve rises with k.\n");
}

fn section4(circuits: &[Circuit], ledger: &mut Ledger) {
    println!("=== Section 4: hardware overhead ===\n");
    let paper = PAPER_SECTION4;

    // the State Skip circuit needs no encoding: n = 24 is s13207's LFSR
    let lfsr = Lfsr::fibonacci(primitive_poly(24).expect("tabulated degree"));
    let mut t = table("k, raw XOR2, shared XOR2, skip GE (incl. muxes)");
    for k in [8, 12, 16, 24, 32] {
        let ((raw, shared, ge), wall_s) = timed(|| {
            let skip = SkipCircuit::new(&lfsr, k).expect("k >= 1");
            let shared = skip.synthesize().gate_count();
            let ge = CostModel::default().ge(&GateCount::skip_frontend(24, shared));
            (skip.raw_xor2_count(), shared, ge)
        });
        t.add_row(cells![k, raw, shared, format!("{ge:.0}")]);
        let paper_ge = paper.skip_ge.iter().find(|&&(pk, _)| pk == k);
        let paper_ge = paper_ge.map_or(Json::Null, |&(_, g)| g.into());
        ledger
            .at("skip_circuit", S13207, None, None, Some(k), wall_s)
            .add("skip_ge", ge, paper_ge);
    }
    println!("{t}");
    let [(k_lo, ge_lo), (k_hi, ge_hi)] = paper.skip_ge;
    println!("paper: State Skip circuit grows from {ge_lo} GE (k={k_lo}) to {ge_hi} GE (k={k_hi}) for s13207.\n");

    // Mode Select and the shared blocks, each costed at its own (L, S)
    let mut t = table("L, S, useful segs, ModeSelect GE, shared GE");
    let (mut lo, mut hi) = (f64::MAX, 0.0f64);
    for window in MODE_SELECT_WINDOWS {
        let m = s13207(circuits).at(window);
        for segment in MODE_SELECT_SEGMENTS.into_iter().filter(|&s| s <= window) {
            let p = m.plan(segment);
            (lo, hi) = (lo.min(p.mode_select_ge), hi.max(p.mode_select_ge));
            let (ms, shared) = (p.mode_select_ge, p.shared_ge);
            t.add_row(cells![
                window,
                segment,
                p.useful,
                format!("{ms:.0}"),
                format!("{shared:.0}")
            ]);
            ledger
                .at(
                    "mode_select",
                    S13207,
                    Some(window),
                    Some(segment),
                    None,
                    m.wall_s,
                )
                .add("useful_segments", p.useful, Json::Null)
                .add("mode_select_ge", ms, range(paper.mode_select_ge))
                .add("shared_ge", shared, paper.shared_ge);
        }
    }
    println!("{t}");
    let (paper_lo, paper_hi) = paper.mode_select_ge;
    println!("measured Mode Select range: {lo:.0}-{hi:.0} GE (paper: {paper_lo}-{paper_hi} GE over 50<=L<=500, 2<=S<=50)");
    println!(
        "paper: rest of the decompressor (shared) ~{} GE for s13207.\n",
        paper.shared_ge
    );

    // the SoC case study: every core at L = 200, S = 10, k = 10
    let mut t = table("core, LFSR n, ModeSelect GE");
    let (mut shared, mut skip) = (0.0f64, 0.0f64);
    let (mut lo, mut hi) = (f64::MAX, 0.0f64);
    for c in circuits {
        let m = c.at(200);
        let p = m.plan(10);
        (shared, skip) = (shared.max(p.shared_ge), skip.max(p.skip_ge));
        (lo, hi) = (lo.min(p.mode_select_ge), hi.max(p.mode_select_ge));
        let (name, ms) = (c.name(), p.mode_select_ge);
        t.add_row(cells![name, c.profile.lfsr_size, format!("{ms:.0}")]);
        ledger
            .at(
                "soc",
                name,
                Some(200),
                Some(10),
                Some(ENGINE_SPEEDUP),
                m.wall_s,
            )
            .add("mode_select_ge", ms, range(paper.soc_mode_select_ge))
            .add("shared_ge", p.shared_ge, Json::Null)
            .add("skip_ge", p.skip_ge, Json::Null);
    }
    println!("{t}");
    println!("SoC: shared decompressor {shared:.0} GE + skip {skip:.0} GE; per-core Mode Select {lo:.0}-{hi:.0} GE");
    let (paper_lo, paper_hi) = paper.soc_mode_select_ge;
    let area = paper.soc_area_percent;
    println!("paper: Mode Select {paper_lo}-{paper_hi} GE per core; decompressor = {area}% of SoC area.\n");
}

fn ablations(circuits: &[Circuit]) {
    println!("=== Ablations ===\n");

    // 1. CSE on/off for the State Skip circuit
    let mut t = table("n, k, naive XOR2, shared XOR2, saving");
    for (n, k) in [(24, 12), (24, 24), (44, 12), (85, 12)] {
        let lfsr = Lfsr::fibonacci(primitive_poly(n).expect("tabulated degree"));
        let skip = SkipCircuit::new(&lfsr, k).expect("k >= 1");
        let (naive, shared) = (skip.raw_xor2_count(), skip.synthesize().gate_count());
        let saving = 100.0 * (1.0 - shared as f64 / naive.max(1) as f64);
        t.add_row(cells![n, k, naive, shared, format!("{saving:.0}%")]);
    }
    println!("{t}");
    println!("expected: sharing saves a large fraction; absolute cost grows mildly with k.\n");

    // 2. segment selection: the paper's set A + greedy cover against
    // keeping every segment that holds an intentional placement
    let m = s13207(circuits).at(200);
    let p = m.plan(JOB_SEGMENT);
    let mut t = table("policy, useful segments");
    t.add_row(cells!["paper (set A + greedy cover)", p.useful]);
    t.add_row(cells!["naive (intentional placements)", m.naive_useful]);
    println!("{t}");
    println!("expected: the cover exploits fortuitous embeddings and needs fewer segments.\n");

    // 3. how much of the cut is truncation ([11]) and how much skipping
    let mut t = table("scheme, TSL, improvement vs orig");
    let pct = |tsl: u64| format!("{:.1}%", improvement_percent(m.tsl_orig, tsl));
    let skip = p.tsl(JOB_SPEEDUP);
    t.add_row(cells!["full windows (orig)", m.tsl_orig, "-"]);
    let (cut, skip_label) = (
        p.truncated,
        format!("truncation + State Skip (k={JOB_SPEEDUP})"),
    );
    t.add_row(cells!["truncation only ([11]-style)", cut, pct(cut)]);
    t.add_row(cells![skip_label, skip, pct(skip)]);
    println!("{t}");
    println!("expected: State Skip contributes a large further cut beyond truncation alone.\n");
}

/// Every encoding with its wall time; at L = 50 and 200 also one job
/// at S = 5, k = 20.
fn encodings(circuits: &[Circuit]) {
    println!("=== Encodings (one per circuit and L) ===\n");
    let mut t = table(
        "circuit, cubes, L, seeds, TDV, TSL prop, useful segs, per seed, impr, mean emb, seconds",
    );
    for c in circuits {
        for m in &c.windows {
            let mut cells = cells![c.name(), m.cubes, m.window, m.seeds, m.tdv].to_vec();
            if [50, 200].contains(&m.window) {
                let p = m.plan(JOB_SEGMENT);
                let per_seed = format!("{:.2}", p.useful as f64 / m.seeds as f64);
                let impr = format!("{:.1}%", m.improvement(JOB_SEGMENT, JOB_SPEEDUP));
                let emb = format!("{:.1}", m.mean_embeddings);
                cells.extend(cells![p.tsl(JOB_SPEEDUP), p.useful, per_seed, impr, emb]);
            } else {
                cells.extend(["-"; 5].map(String::from));
            }
            cells.push(format!("{:.2}", m.wall_s));
            t.add_row(cells);
        }
    }
    println!("{t}");
    println!("(TSL prop through mean emb: S={JOB_SEGMENT}, k={JOB_SPEEDUP})\n");
}

fn main() {
    banner("Paper-fidelity ledger: Tables 1-4, Fig. 4, Section 4, ablations");
    let (circuits, wall_s) = timed(|| {
        let circuits = scaled_circuits().into_iter().map(Circuit::measure);
        circuits.collect::<Vec<_>>()
    });
    let encodes: usize = circuits.iter().map(|c| c.windows.len()).sum();

    let mut ledger = Ledger {
        scale: scale(),
        rows: Vec::new(),
        head: Vec::new(),
        wall_s: 0.0,
    };
    table1(&circuits, &mut ledger);
    table2(&circuits, &mut ledger);
    table3(&circuits, &mut ledger);
    table4(&circuits, &mut ledger);
    fig4(&circuits, &mut ledger);
    section4(&circuits, &mut ledger);
    ablations(&circuits);
    encodings(&circuits);
    println!("{encodes} encodes in {wall_s:.1}s");

    write_bench_json(
        "paper",
        "paper_fidelity",
        vec![
            ("ss_scale", scale().into()),
            ("encodes", encodes.into()),
            ("wall_s", Json::fixed(wall_s, 3)),
            ("rows", Json::Array(ledger.rows)),
        ],
    );
}
