//! Typed intermediate artifacts of the staged [`Engine`] flow.
//!
//! Each stage owns everything the next one needs, so a caller can run
//! exactly as far as it wants, inspect the intermediate state, and
//! continue (or stop) without recomputation:
//!
//! ```text
//! Engine::encode  ->  Encoded      (seeds, TDV)
//! Encoded::embed  ->  Embedded     (+ fortuitous embedding map)
//! Embedded::segment -> Segmented   (+ segment plan)
//! Segmented::tsl / finish          (TslReport / full PipelineReport)
//! ```
//!
//! [`Engine`]: crate::Engine

use std::borrow::Cow;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ss_gf2::{primitive_poly, IncrementalSolver, SolveOutcome};
use ss_lfsr::{Lfsr, PhaseShifter, SkipCircuit};
use ss_testdata::{ScanConfig, TestSet};

use crate::builder::{resolve_threads, EngineConfig};
use crate::cost::{DecompressorCost, DecompressorCostInputs};
use crate::embedding::EmbeddingMap;
use crate::encoder::{EncodingResult, WindowEncoder};
use crate::error::SchemeError;
use crate::expand::check_shifter;
use crate::expr_table::ExprTable;
use crate::modeselect::ModeSelect;
use crate::segments::{SegmentPlan, TslReport};

/// The synthesised hardware a scheme runs against: LFSR, phase
/// shifter and the precomputed expression table, together with the
/// engine configuration that produced them.
///
/// One context can serve many schemes — [`Engine::run_all`]
/// synthesises it once and shares it across scheme threads.
///
/// [`Engine::run_all`]: crate::Engine::run_all
#[derive(Debug, Clone)]
pub struct HardwareCtx {
    config: EngineConfig,
    scan: ScanConfig,
    lfsr: Lfsr,
    shifter: PhaseShifter,
    table: ExprTable,
}

impl HardwareCtx {
    /// Synthesises the hardware for `set` under `config`: picks the
    /// LFSR size (`smax + 4` unless overridden), builds the LFSR and
    /// phase shifter, and precomputes the expression table for the
    /// configured window.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadConfig`] for an empty set or an LFSR below
    /// `smax`; synthesis errors from the polynomial table, LFSR or
    /// phase shifter layers otherwise.
    pub fn synthesize(set: &TestSet, config: &EngineConfig) -> Result<Self, SchemeError> {
        if set.is_empty() {
            return Err(SchemeError::bad_config("test set is empty"));
        }
        let n = config.lfsr_size.unwrap_or((set.smax() + 4).clamp(3, 168));
        if n < set.smax() {
            return Err(SchemeError::bad_config(format!(
                "LFSR size {n} is below smax {}",
                set.smax()
            )));
        }
        let poly = primitive_poly(n)?;
        let lfsr = Lfsr::try_new(poly, config.lfsr_kind)?;
        let mut rng = SmallRng::seed_from_u64(config.hw_seed);
        let shifter = PhaseShifter::synthesize(n, set.config().chains(), config.ps_taps, &mut rng)?;
        let table = ExprTable::build(&lfsr, &shifter, set.config(), config.window);
        Ok(HardwareCtx {
            config: *config,
            scan: set.config(),
            lfsr,
            shifter,
            table,
        })
    }

    /// Reassembles a context from already-synthesised parts — the
    /// rehydration path of the persistent artifact store, where the
    /// LFSR, phase shifter and scan geometry come off disk and only
    /// the (deterministic, unserialised) expression table needs
    /// rebuilding.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadConfig`] when the parts disagree: the phase
    /// shifter must drive exactly `scan.chains()` outputs from exactly
    /// `lfsr.size()` LFSR bits, and `config.lfsr_size` (when pinned)
    /// must match the LFSR handed in.
    pub fn from_parts(
        config: EngineConfig,
        scan: ScanConfig,
        lfsr: Lfsr,
        shifter: PhaseShifter,
    ) -> Result<Self, SchemeError> {
        check_shifter(lfsr.size(), &shifter, scan)?;
        if let Some(n) = config.lfsr_size {
            if n != lfsr.size() {
                return Err(SchemeError::bad_config(format!(
                    "configuration pins a {n}-bit LFSR but the part has {} bits",
                    lfsr.size()
                )));
            }
        }
        let table = ExprTable::build(&lfsr, &shifter, scan, config.window);
        Ok(HardwareCtx {
            config,
            scan,
            lfsr,
            shifter,
            table,
        })
    }

    /// The engine configuration this hardware was synthesised for.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The scan geometry of the bound test set.
    pub fn scan(&self) -> ScanConfig {
        self.scan
    }

    /// The synthesised LFSR.
    pub fn lfsr(&self) -> &Lfsr {
        &self.lfsr
    }

    /// The synthesised phase shifter.
    pub fn shifter(&self) -> &PhaseShifter {
        &self.shifter
    }

    /// The precomputed expression table (window length
    /// `config().window`).
    pub fn table(&self) -> &ExprTable {
        &self.table
    }

    /// The LFSR size `n`.
    pub fn lfsr_size(&self) -> usize {
        self.lfsr.size()
    }

    /// Splits `set` into the cubes this hardware can encode and the
    /// indices of *intrinsically unencodable* cubes.
    ///
    /// A cube whose specified-bit expressions are linearly dependent
    /// with inconsistent values conflicts in an **empty** window — and
    /// because moving a cube from window position 0 to position `v`
    /// multiplies every expression by the invertible matrix `T^(v*r)`,
    /// such a conflict holds at *every* position: no seed can ever
    /// carry the cube. This is a property of the (LFSR, phase shifter,
    /// cube) triple; the paper's real test sets simply did not contain
    /// such cubes at the chosen LFSR sizes, and a DFT engineer hitting
    /// one would bump `n`. Benches use this filter to emulate the
    /// former and report how many cubes it dropped.
    pub fn encodable_subset(&self, set: &TestSet) -> (TestSet, Vec<usize>) {
        let mut keep = TestSet::new(set.config());
        let mut dropped = Vec::new();
        let mut solver = IncrementalSolver::new(self.table.vars());
        let empty = solver.checkpoint();
        for (ci, cube) in set.iter().enumerate() {
            solver.rollback(empty);
            let mut ok = true;
            for (cell, bit) in cube.iter_specified() {
                // borrowed word-slice path: the expression row is
                // consumed straight out of the table
                let expr = self.table.cell_expr_words(0, cell);
                if solver.insert_words(expr, bit) == SolveOutcome::Conflict {
                    ok = false;
                    break;
                }
            }
            if ok {
                keep.push(cube.clone()).expect("same geometry");
            } else {
                dropped.push(ci);
            }
        }
        (keep, dropped)
    }
}

/// Stage 1 output: the window-based seed encoding.
#[derive(Debug, Clone)]
pub struct Encoded<'a> {
    set: &'a TestSet,
    ctx: Cow<'a, HardwareCtx>,
    encoding: EncodingResult,
}

impl<'a> Encoded<'a> {
    /// Encodes `set` on an already-synthesised context, taking
    /// ownership of it.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Encode`] when a cube cannot be encoded.
    pub fn from_ctx(set: &'a TestSet, ctx: HardwareCtx) -> Result<Self, SchemeError> {
        let encoding = WindowEncoder::new(set, ctx.table())?.encode(ctx.config().fill_seed)?;
        Ok(Encoded {
            set,
            ctx: Cow::Owned(ctx),
            encoding,
        })
    }

    /// Encodes `set` on a borrowed context — no clone of the (large)
    /// expression table; the stages hold the reference instead.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Encode`] when a cube cannot be encoded.
    pub fn from_ctx_ref(set: &'a TestSet, ctx: &'a HardwareCtx) -> Result<Self, SchemeError> {
        let encoding = WindowEncoder::new(set, ctx.table())?.encode(ctx.config().fill_seed)?;
        Ok(Encoded {
            set,
            ctx: Cow::Borrowed(ctx),
            encoding,
        })
    }

    /// Re-enters the staged flow from an already-computed encoding —
    /// the cache-hit path of a serving layer: no synthesis, no encode,
    /// just the cheap later stages (embed → segment → finish).
    ///
    /// The caller asserts that `encoding` was produced by exactly this
    /// `(set, ctx)` pair (e.g. both were stored together under one
    /// content-addressed key, as `ss-server`'s artifact cache does);
    /// only the cheap structural invariants are re-checked here.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadConfig`] when the encoding's LFSR size or
    /// window disagrees with the context, or its cube count disagrees
    /// with the set — the signature of pairing artifacts from
    /// different runs.
    pub fn from_cached(
        set: &'a TestSet,
        ctx: &'a HardwareCtx,
        encoding: EncodingResult,
    ) -> Result<Self, SchemeError> {
        if encoding.lfsr_size != ctx.lfsr_size() {
            return Err(SchemeError::bad_config(format!(
                "cached encoding is for a {}-bit LFSR but the context has {} bits",
                encoding.lfsr_size,
                ctx.lfsr_size()
            )));
        }
        if encoding.window != ctx.config().window {
            return Err(SchemeError::bad_config(format!(
                "cached encoding used window {} but the context was built for {}",
                encoding.window,
                ctx.config().window
            )));
        }
        if encoding.encoded_cubes != set.len() {
            return Err(SchemeError::bad_config(format!(
                "cached encoding covers {} cubes but the set has {}",
                encoding.encoded_cubes,
                set.len()
            )));
        }
        if set.config() != ctx.scan() {
            return Err(SchemeError::bad_config(format!(
                "set has scan geometry {} but the context was synthesised for {}",
                set.config(),
                ctx.scan()
            )));
        }
        Ok(Encoded {
            set,
            ctx: Cow::Borrowed(ctx),
            encoding,
        })
    }

    /// The test set this artifact was computed from.
    pub fn set(&self) -> &'a TestSet {
        self.set
    }

    /// The hardware context.
    pub fn ctx(&self) -> &HardwareCtx {
        self.ctx.as_ref()
    }

    /// The raw encoding.
    pub fn encoding(&self) -> &EncodingResult {
        &self.encoding
    }

    /// Number of seeds.
    pub fn seed_count(&self) -> usize {
        self.encoding.seeds.len()
    }

    /// Test data volume in bits (`seeds * n`).
    pub fn tdv(&self) -> usize {
        self.encoding.tdv()
    }

    /// TSL of the plain window-based scheme (`seeds * L`).
    pub fn tsl_original(&self) -> u64 {
        self.encoding.tsl_original() as u64
    }

    /// Stage 2: detects fortuitous embeddings of every cube across all
    /// windows (parallel over seeds, honouring the engine's thread
    /// budget).
    pub fn embed(self) -> Embedded<'a> {
        let embedding = EmbeddingMap::build_threaded(
            self.set,
            &self.encoding,
            self.ctx.lfsr(),
            self.ctx.shifter(),
            resolve_threads(self.ctx.config().threads),
        );
        Embedded {
            set: self.set,
            ctx: self.ctx,
            encoding: self.encoding,
            embedding,
        }
    }
}

/// Stage 2 output: encoding plus the fortuitous-embedding map.
#[derive(Debug, Clone)]
pub struct Embedded<'a> {
    set: &'a TestSet,
    ctx: Cow<'a, HardwareCtx>,
    encoding: EncodingResult,
    embedding: EmbeddingMap,
}

impl<'a> Embedded<'a> {
    /// The hardware context.
    pub fn ctx(&self) -> &HardwareCtx {
        self.ctx.as_ref()
    }

    /// The raw encoding.
    pub fn encoding(&self) -> &EncodingResult {
        &self.encoding
    }

    /// All cube embeddings.
    pub fn embedding(&self) -> &EmbeddingMap {
        &self.embedding
    }

    /// Stage 3: cuts windows into segments of the configured size and
    /// selects the minimum useful set (Section 3.2 of the paper).
    pub fn segment(self) -> Segmented<'a> {
        let segment = self.ctx.config().segment;
        self.segment_with(segment)
    }

    /// Stage 3 with an explicit segment size — the hook for sweeps
    /// that re-plan one embedding at several granularities.
    pub fn segment_with(self, segment: usize) -> Segmented<'a> {
        let plan = SegmentPlan::build(&self.embedding, segment);
        Segmented {
            set: self.set,
            ctx: self.ctx,
            encoding: self.encoding,
            embedding: self.embedding,
            plan,
        }
    }
}

/// Stage 3 output: the segment plan, ready for TSL accounting and the
/// final report.
#[derive(Debug, Clone)]
pub struct Segmented<'a> {
    set: &'a TestSet,
    ctx: Cow<'a, HardwareCtx>,
    encoding: EncodingResult,
    embedding: EmbeddingMap,
    plan: SegmentPlan,
}

impl Segmented<'_> {
    /// The hardware context.
    pub fn ctx(&self) -> &HardwareCtx {
        self.ctx.as_ref()
    }

    /// The raw encoding.
    pub fn encoding(&self) -> &EncodingResult {
        &self.encoding
    }

    /// The segment plan.
    pub fn plan(&self) -> &SegmentPlan {
        &self.plan
    }

    /// Stage 4: State Skip traversal accounting at the configured
    /// speedup.
    pub fn tsl(&self) -> TslReport {
        self.tsl_with(self.ctx.config().speedup)
    }

    /// Stage 4 with an explicit speedup factor — the hook for sweeps.
    pub fn tsl_with(&self, speedup: u64) -> TslReport {
        self.plan.tsl(speedup, self.set.config().depth())
    }

    /// Finishes the flow: Mode Select synthesis, hardware cost
    /// estimation and the assembled [`PipelineReport`]. The report's
    /// segment size `S` (and the counter widths the cost model sizes
    /// from it) is the one the plan was built with, so a
    /// [`segment_with`](Embedded::segment_with) sweep reports its own
    /// `S`.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Skip`] if the State Skip circuit cannot be
    /// built for the configured speedup.
    pub fn finish(self) -> Result<PipelineReport, SchemeError> {
        let config = *self.ctx.config();
        let segment = self.plan.segment();
        let r = self.set.config().depth();
        let tsl_report = self.tsl();
        let mode_select = ModeSelect::from_plan(&self.plan);

        let skip = SkipCircuit::new(self.ctx.lfsr(), config.speedup)?;
        let skip_net = skip.synthesize();
        let cost = DecompressorCost::estimate(&DecompressorCostInputs {
            lfsr_size: self.ctx.lfsr_size(),
            poly_weight: self.ctx.lfsr().poly().weight(),
            ps_xor2: self.ctx.shifter().xor2_count(),
            skip_xor2: skip_net.gate_count(),
            scan_depth: r,
            segment,
            window: config.window,
            group_count: self.plan.groups().len(),
            max_group_size: self
                .plan
                .groups()
                .iter()
                .map(|(_, s)| s.len())
                .max()
                .unwrap_or(0),
            max_useful: self.plan.groups().last().map(|(c, _)| *c).unwrap_or(0),
            mode_select_terms: mode_select.term_count(),
        });

        let tsl_original = self.encoding.tsl_original() as u64;
        let tsl_proposed = tsl_report.vectors;
        Ok(PipelineReport {
            lfsr_size: self.ctx.lfsr_size(),
            window: config.window,
            segment,
            speedup: config.speedup,
            seeds: self.encoding.seeds.len(),
            tdv: self.encoding.tdv(),
            tsl_original,
            tsl_truncated: self.plan.tsl_truncated_only(r).vectors,
            tsl_proposed,
            improvement_percent: crate::report::improvement_percent(tsl_original, tsl_proposed),
            encoding: self.encoding,
            embedding: self.embedding,
            plan: self.plan,
            tsl_report,
            mode_select,
            cost,
        })
    }
}

/// Everything a full run produces: the [`Segmented::finish`] output,
/// and what [`Engine::run`](crate::Engine::run) returns.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// LFSR size `n` used.
    pub lfsr_size: usize,
    /// Window length `L`.
    pub window: usize,
    /// Segment size `S`.
    pub segment: usize,
    /// Speedup factor `k`.
    pub speedup: u64,
    /// Number of seeds.
    pub seeds: usize,
    /// Test data volume in bits (`seeds * n`).
    pub tdv: usize,
    /// TSL of the plain window-based scheme (`seeds * L`).
    pub tsl_original: u64,
    /// TSL with truncation after the last useful segment but no State
    /// Skip (the `[11]`-flavoured baseline).
    pub tsl_truncated: u64,
    /// TSL of the proposed State Skip scheme.
    pub tsl_proposed: u64,
    /// TSL improvement over the original window-based scheme, percent
    /// (the paper's relation (2)).
    pub improvement_percent: f64,
    /// The raw encoding.
    pub encoding: EncodingResult,
    /// All cube embeddings.
    pub embedding: EmbeddingMap,
    /// The segment plan.
    pub plan: SegmentPlan,
    /// Detailed TSL accounting.
    pub tsl_report: TslReport,
    /// The Mode Select unit model.
    pub mode_select: ModeSelect,
    /// Hardware cost estimate.
    pub cost: DecompressorCost,
}

impl PipelineReport {
    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "n={} L={} S={} k={}: {} seeds, TDV {} bits, TSL {} -> {} vectors ({:.1}% shorter; truncation-only {}), decompressor {:.0} GE",
            self.lfsr_size,
            self.window,
            self.segment,
            self.speedup,
            self.seeds,
            self.tdv,
            self.tsl_original,
            self.tsl_proposed,
            self.improvement_percent,
            self.tsl_truncated,
            self.cost.total_ge()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Engine;
    use ss_testdata::{generate_test_set, CubeProfile};

    fn mini_engine() -> Engine {
        Engine::builder()
            .window(24)
            .segment(4)
            .speedup(6)
            .build()
            .unwrap()
    }

    #[test]
    fn context_is_reusable_across_stages_and_schemes() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let engine = mini_engine();
        let ctx = engine.synthesize(&set).unwrap();
        assert_eq!(ctx.lfsr_size(), set.smax() + 4);
        assert_eq!(ctx.table().window(), 24);
        let a = Encoded::from_ctx(&set, ctx.clone()).unwrap();
        let b = Encoded::from_ctx(&set, ctx).unwrap();
        assert_eq!(a.encoding(), b.encoding(), "same ctx, same encoding");
    }

    #[test]
    fn segment_and_speedup_hooks_support_sweeps() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let embedded = mini_engine().encode(&set).unwrap().embed();
        let coarse = embedded.clone().segment_with(12);
        let fine = embedded.segment_with(2);
        assert!(fine.tsl().vectors <= coarse.tsl().vectors);
        let segmented = mini_engine().encode(&set).unwrap().embed().segment();
        assert!(segmented.tsl_with(24).vectors <= segmented.tsl_with(2).vectors);
    }

    #[test]
    fn from_cached_reproduces_the_fresh_flow_and_validates_pairing() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let engine = mini_engine();
        let ctx = engine.synthesize(&set).unwrap();
        let fresh = Encoded::from_ctx_ref(&set, &ctx).unwrap();
        let encoding = fresh.encoding().clone();
        let fresh_report = fresh.embed().segment().finish().unwrap();

        // the cache-hit path: no re-encode, identical report
        let cached = Encoded::from_cached(&set, &ctx, encoding.clone()).unwrap();
        assert_eq!(cached.encoding(), &encoding);
        let cached_report = cached.embed().segment().finish().unwrap();
        assert_eq!(cached_report.encoding, fresh_report.encoding);
        assert_eq!(cached_report.tsl_proposed, fresh_report.tsl_proposed);
        assert_eq!(cached_report.tdv, fresh_report.tdv);

        // mismatched pairings are rejected (the structural checks:
        // cube count, scan geometry, window, LFSR size)
        let mut shorter = TestSet::new(set.config());
        for cube in set.iter().skip(1) {
            shorter.push(cube.clone()).unwrap();
        }
        assert!(matches!(
            Encoded::from_cached(&shorter, &ctx, encoding.clone()),
            Err(SchemeError::BadConfig(_))
        ));
        let other_geometry = generate_test_set(&CubeProfile::s13207(), 1);
        let mut wrong_scan = TestSet::new(other_geometry.config());
        for cube in other_geometry.iter().take(set.len()) {
            wrong_scan.push(cube.clone()).unwrap();
        }
        assert!(matches!(
            Encoded::from_cached(&wrong_scan, &ctx, encoding.clone()),
            Err(SchemeError::BadConfig(_))
        ));
        let wide = Engine::builder()
            .window(32)
            .segment(4)
            .speedup(6)
            .build()
            .unwrap();
        let wide_ctx = wide.synthesize(&set).unwrap();
        assert!(matches!(
            Encoded::from_cached(&set, &wide_ctx, encoding),
            Err(SchemeError::BadConfig(_))
        ));
    }

    #[test]
    fn finish_reports_the_segment_size_the_plan_was_built_with() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let configured = mini_engine().run(&set).unwrap();
        let swept = mini_engine()
            .encode(&set)
            .unwrap()
            .embed()
            .segment_with(5)
            .finish()
            .unwrap();
        let direct = Engine::builder()
            .window(24)
            .segment(5)
            .speedup(6)
            .build()
            .unwrap()
            .run(&set)
            .unwrap();
        assert_ne!(
            direct.cost.counters, configured.cost.counters,
            "S = 5 must size the counters differently from S = 4"
        );
        assert_eq!(swept.segment, 5);
        assert_eq!(swept.segment, direct.segment);
        assert_eq!(swept.plan, direct.plan);
        assert_eq!(swept.tsl_proposed, direct.tsl_proposed);
        assert_eq!(swept.cost.total_ge(), direct.cost.total_ge());
    }

    #[test]
    fn synthesis_rejects_an_lfsr_below_smax() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let engine = Engine::builder()
            .window(24)
            .segment(4)
            .lfsr_size(set.smax() - 1)
            .build()
            .unwrap();
        assert!(matches!(
            engine.synthesize(&set),
            Err(SchemeError::BadConfig(msg)) if msg.contains("smax")
        ));
    }

    #[test]
    fn unencodable_detection_matches_the_encoder() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let ctx = mini_engine().synthesize(&set).unwrap();
        let (keep, dropped) = ctx.encodable_subset(&set);
        assert_eq!(keep.len() + dropped.len(), set.len());
        assert!(dropped.is_empty(), "calibrated defaults leave no drops");
    }
}
