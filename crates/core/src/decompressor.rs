//! Cycle-accurate simulation of the decompression architecture
//! (Fig. 3 of the paper).
//!
//! The simulator drives a [`StateSkipLfsr`] through the counter
//! discipline of the architecture: for every seed (walked group by
//! group), segments are generated in Normal mode when Mode Select says
//! *useful* and traversed with State Skip jumps otherwise; the seed
//! ends right after its group's quota of useful segments. Every scan
//! capture is recorded, so a run *proves* that the shortened sequence
//! still applies every test cube.

use ss_gf2::BitVec;
use ss_lfsr::{Lfsr, PhaseShifter, StateSkipLfsr};
use ss_testdata::{ScanConfig, TestSet};

use crate::encoder::EncodingResult;
use crate::modeselect::ModeSelect;
use crate::segments::SegmentPlan;

/// The decompressor: State Skip LFSR + phase shifter + counters +
/// Mode Select.
///
/// # Example
///
/// Constructed from pipeline products; see the `end_to_end`
/// integration test for the full proof flow.
#[derive(Debug)]
pub struct Decompressor {
    skip_lfsr: StateSkipLfsr,
    shifter: PhaseShifter,
    scan: ScanConfig,
    mode_select: ModeSelect,
}

/// Everything a decompressor run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompressorTrace {
    /// Every vector applied to the CUT, in order (useful and garbage).
    pub vectors: Vec<BitVec>,
    /// Vectors belonging to useful segments (exact window content).
    pub useful_vectors: Vec<BitVec>,
    /// Total clocks spent.
    pub clocks: u64,
    /// Garbage vectors applied during State Skip traversal.
    pub garbage_vectors: u64,
}

impl DecompressorTrace {
    /// Total vectors applied — the TSL the hardware realises.
    pub fn tsl(&self) -> u64 {
        self.vectors.len() as u64
    }

    /// `true` when every cube of `set` matches at least one applied
    /// vector — the end-to-end correctness property of the scheme.
    pub fn covers(&self, set: &TestSet) -> bool {
        set.iter()
            .all(|cube| self.vectors.iter().any(|v| cube.matches(v)))
    }
}

impl Decompressor {
    /// Assembles the architecture.
    ///
    /// # Panics
    ///
    /// Panics if the shifter geometry does not match the LFSR or scan
    /// configuration.
    pub fn new(
        lfsr: Lfsr,
        speedup: u64,
        shifter: PhaseShifter,
        scan: ScanConfig,
        mode_select: ModeSelect,
    ) -> Self {
        assert_eq!(shifter.input_count(), lfsr.size(), "shifter/LFSR mismatch");
        assert_eq!(
            shifter.output_count(),
            scan.chains(),
            "shifter/scan mismatch"
        );
        let skip_lfsr = StateSkipLfsr::new(lfsr, speedup).expect("speedup >= 1");
        Decompressor {
            skip_lfsr,
            shifter,
            scan,
            mode_select,
        }
    }

    /// Runs the whole test: every seed in group order, every segment up
    /// to the seed's useful quota.
    pub fn run(&mut self, encoding: &EncodingResult, plan: &SegmentPlan) -> DecompressorTrace {
        let r = self.scan.depth() as u64;
        let mut trace = DecompressorTrace {
            vectors: Vec::new(),
            useful_vectors: Vec::new(),
            clocks: 0,
            garbage_vectors: 0,
        };

        for (g, (useful_quota, seeds)) in plan.groups().iter().enumerate() {
            for (s, &seed_idx) in seeds.iter().enumerate() {
                self.skip_lfsr.load(&encoding.seeds[seed_idx].seed);
                let mut remaining = *useful_quota;
                let mut pending_gap = 0u64; // states queued for skip traversal
                let mut segment = 0usize;
                while remaining > 0 {
                    let len = plan.segment_len(segment) as u64;
                    if self.mode_select.mode(g, s, segment) {
                        // flush any queued useless gap with skip clocks
                        if pending_gap > 0 {
                            let clocks = self.traverse_gap(pending_gap, r, &mut trace);
                            trace.clocks += clocks;
                            pending_gap = 0;
                        }
                        // generate the useful segment in Normal mode
                        for _ in 0..len {
                            let vector = self.load_vector();
                            trace.clocks += r;
                            trace.useful_vectors.push(vector.clone());
                            trace.vectors.push(vector);
                        }
                        remaining -= 1;
                    } else {
                        pending_gap += len * r;
                    }
                    segment += 1;
                }
            }
        }
        trace
    }

    /// Shifts one full vector into the chains (Normal mode), returning
    /// the captured vector.
    fn load_vector(&mut self) -> BitVec {
        let r = self.scan.depth();
        let mut vector = BitVec::zeros(self.scan.cells());
        for t in 0..r {
            let outs = self.shifter.outputs(self.skip_lfsr.state());
            let pos = self.scan.position_loaded_at(t);
            for c in 0..self.scan.chains() {
                if outs.get(c) {
                    vector.set(self.scan.cell_index(c, pos), true);
                }
            }
            self.skip_lfsr.step();
        }
        vector
    }

    /// Traverses `gap` states in State Skip mode, capturing the garbage
    /// vectors that shift through the chains meanwhile. Returns the
    /// clocks spent.
    fn traverse_gap(&mut self, gap: u64, r: u64, trace: &mut DecompressorTrace) -> u64 {
        let k = self.skip_lfsr.k();
        let skip_clocks = gap / k;
        let total = skip_clocks + gap % k; // skips first, normal remainder
        let mut current = BitVec::zeros(self.scan.cells());
        let mut bit_count = 0u64;
        for clock in 0..total {
            // sample, then clock — the same order as Normal-mode loads
            let outs = self.shifter.outputs(self.skip_lfsr.state());
            let pos = self.scan.position_loaded_at(bit_count as usize);
            for c in 0..self.scan.chains() {
                current.set(self.scan.cell_index(c, pos), outs.get(c));
            }
            bit_count += 1;
            if bit_count == r {
                let full = std::mem::replace(&mut current, BitVec::zeros(self.scan.cells()));
                trace.vectors.push(full);
                trace.garbage_vectors += 1;
                bit_count = 0;
            }
            if clock < skip_clocks {
                self.skip_lfsr.jump();
            } else {
                self.skip_lfsr.step();
            }
        }
        if bit_count > 0 {
            // partial flush: the controller captures once more before
            // switching back to Normal mode
            trace.vectors.push(current);
            trace.garbage_vectors += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::{Encoded, HardwareCtx, PipelineReport};
    use crate::builder::Engine;
    use crate::embedding::EmbeddingMap;
    use crate::encoder::WindowEncoder;
    use crate::expand::try_expand_seed;
    use crate::expr_table::ExprTable;
    use ss_testdata::{generate_test_set, CubeProfile};

    /// The mini workload's hardware at `L = 20, S = 4` and the given
    /// speedup, with the full report run on that one context.
    fn setup(speedup: u64) -> (TestSet, HardwareCtx, PipelineReport) {
        let set = generate_test_set(&CubeProfile::mini(), 4);
        let engine = Engine::builder().window(20).segment(4).speedup(speedup);
        let ctx = engine.build().unwrap().synthesize(&set).unwrap();
        let report = Encoded::from_ctx_ref(&set, &ctx)
            .unwrap()
            .embed()
            .segment()
            .finish()
            .unwrap();
        (set, ctx, report)
    }

    fn replay(ctx: &HardwareCtx, report: &PipelineReport) -> DecompressorTrace {
        let mut dec = Decompressor::new(
            ctx.lfsr().clone(),
            report.speedup,
            ctx.shifter().clone(),
            ctx.scan(),
            report.mode_select.clone(),
        );
        dec.run(&report.encoding, &report.plan)
    }

    #[test]
    fn trace_matches_tsl_accounting_exactly() {
        let (_, ctx, report) = setup(7);
        let trace = replay(&ctx, &report);
        assert_eq!(trace.tsl(), report.tsl_proposed, "vector counts must agree");
        assert_eq!(
            trace.clocks, report.tsl_report.total_clocks,
            "clock counts must agree"
        );
        assert_eq!(
            trace.useful_vectors.len() as u64,
            report.tsl_report.useful_vectors
        );
    }

    #[test]
    fn every_cube_is_applied_by_the_shortened_sequence() {
        let (set, ctx, report) = setup(7);
        let trace = replay(&ctx, &report);
        assert!(
            trace.covers(&set),
            "shortened sequence must apply every cube"
        );
    }

    #[test]
    fn useful_vectors_equal_window_content() {
        let (set, ctx, report) = setup(7);
        let trace = replay(&ctx, &report);

        // reconstruct the expected useful vectors from the plan
        let mut expected = Vec::new();
        for (_, seeds) in report.plan.groups() {
            for &seed_idx in seeds {
                let window = try_expand_seed(
                    ctx.lfsr(),
                    ctx.shifter(),
                    set.config(),
                    &report.encoding.seeds[seed_idx].seed,
                    report.window,
                )
                .unwrap();
                for &seg in report.plan.useful_segments(seed_idx) {
                    let start = seg * report.segment;
                    let len = report.plan.segment_len(seg);
                    expected.extend(window[start..start + len].iter().cloned());
                }
            }
        }
        assert_eq!(
            trace.useful_vectors, expected,
            "skip traversal must land exactly"
        );
    }

    #[test]
    fn k_one_decompressor_equals_truncated_windows() {
        let (set, ctx, report) = setup(1);
        let trace = replay(&ctx, &report);
        assert_eq!(trace.tsl(), report.tsl_truncated);
        assert!(trace.covers(&set));
    }

    #[test]
    fn encoder_products_feed_decompressor_without_the_staged_flow() {
        // exercise the lower-level assembly path
        let (set, ctx, _) = setup(7);
        let config = ctx.config();
        let table = ExprTable::build(ctx.lfsr(), ctx.shifter(), set.config(), config.window);
        let encoding = WindowEncoder::new(&set, &table)
            .unwrap()
            .encode(config.fill_seed)
            .unwrap();
        let map = EmbeddingMap::build(&set, &encoding, ctx.lfsr(), ctx.shifter());
        let plan = SegmentPlan::build(&map, config.segment);
        let ms = ModeSelect::from_plan(&plan);
        let mut dec = Decompressor::new(
            ctx.lfsr().clone(),
            config.speedup,
            ctx.shifter().clone(),
            set.config(),
            ms,
        );
        let trace = dec.run(&encoding, &plan);
        assert!(trace.covers(&set));
    }
}
