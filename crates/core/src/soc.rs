//! Multi-core SoC decompressor sharing (the paper's Section 4 case
//! study).
//!
//! In a SoC, the LFSR, State Skip circuit, phase shifter and counters
//! are implemented **once** and reused for every core; only the Mode
//! Select unit (whose truth table encodes a specific core's useful
//! segments) is replicated. [`SocPlan`] aggregates per-core pipeline
//! results into that area accounting.

use ss_lfsr::CostModel;
use ss_testdata::TestSet;

use crate::artifacts::PipelineReport;
use crate::builder::Engine;
use crate::error::SchemeError;

/// One core's contribution to the SoC plan.
#[derive(Debug, Clone)]
pub struct SocCore {
    /// Core name (e.g. `"s13207"`).
    pub name: String,
    /// LFSR size this core's encoding used.
    pub lfsr_size: usize,
    /// Seeds stored for this core.
    pub seeds: usize,
    /// Test data volume in bits.
    pub tdv: usize,
    /// Proposed (State Skip) test sequence length.
    pub tsl: u64,
    /// Mode Select gate equivalents (per-core hardware).
    pub mode_select_ge: f64,
    /// Shared-block gate equivalents this core would need alone.
    pub shared_ge: f64,
    /// State Skip circuit gate equivalents this core would need alone.
    pub skip_ge: f64,
}

/// The SoC-level aggregation: shared blocks sized for the largest
/// core, Mode Select replicated per core.
#[derive(Debug, Clone, Default)]
pub struct SocPlan {
    cores: Vec<SocCore>,
}

impl SocPlan {
    /// An empty plan.
    pub fn new() -> Self {
        SocPlan::default()
    }

    /// Runs the full State Skip flow for every core **in parallel**
    /// (a [`std::thread::scope`] worker pool capped at the engine's
    /// [`threads`](Engine::threads) budget) under one shared engine
    /// configuration, and aggregates the reports into a plan — the
    /// paper's Section 4 five-core experiment as one call.
    ///
    /// Cores are `(name, test set)` pairs; reports are aggregated in
    /// input order, so the plan is deterministic regardless of thread
    /// scheduling.
    ///
    /// # Errors
    ///
    /// The first per-core [`SchemeError`] in input order. Panics in
    /// core threads are propagated.
    pub fn run_batch(engine: &Engine, cores: &[(String, TestSet)]) -> Result<SocPlan, SchemeError> {
        let reports: Vec<Result<PipelineReport, SchemeError>> =
            crate::builder::run_pool(engine.threads(), cores.len(), |i| engine.run(&cores[i].1));
        let mut plan = SocPlan::new();
        for ((name, _), report) in cores.iter().zip(reports) {
            plan.add_core(name.clone(), &report?);
        }
        Ok(plan)
    }

    /// Adds a core from its pipeline report.
    pub fn add_core(&mut self, name: impl Into<String>, report: &PipelineReport) {
        self.cores.push(SocCore {
            name: name.into(),
            lfsr_size: report.lfsr_size,
            seeds: report.seeds,
            tdv: report.tdv,
            tsl: report.tsl_proposed,
            mode_select_ge: report.cost.mode_select_ge(),
            shared_ge: report.cost.shared_ge(),
            skip_ge: report.cost.skip_ge(),
        });
    }

    /// The cores added so far.
    pub fn cores(&self) -> &[SocCore] {
        &self.cores
    }

    /// GE of the shared blocks: the maximum over cores (the shared
    /// LFSR must be as large as the largest core requires).
    pub fn shared_ge(&self) -> f64 {
        self.cores.iter().map(|c| c.shared_ge).fold(0.0, f64::max)
    }

    /// GE of the shared State Skip circuit (again sized by the largest
    /// core's LFSR).
    pub fn skip_ge(&self) -> f64 {
        self.cores.iter().map(|c| c.skip_ge).fold(0.0, f64::max)
    }

    /// Total per-core Mode Select GE.
    pub fn mode_select_total_ge(&self) -> f64 {
        self.cores.iter().map(|c| c.mode_select_ge).sum()
    }

    /// Range of per-core Mode Select GE, `(min, max)`; zeros when no
    /// cores were added.
    pub fn mode_select_range(&self) -> (f64, f64) {
        let min = self
            .cores
            .iter()
            .map(|c| c.mode_select_ge)
            .fold(f64::MAX, f64::min);
        let max = self
            .cores
            .iter()
            .map(|c| c.mode_select_ge)
            .fold(0.0, f64::max);
        if self.cores.is_empty() {
            (0.0, 0.0)
        } else {
            (min, max)
        }
    }

    /// Total decompressor GE for the whole SoC: shared blocks + shared
    /// skip circuit + all Mode Select units.
    pub fn total_ge(&self) -> f64 {
        self.shared_ge() + self.skip_ge() + self.mode_select_total_ge()
    }

    /// Naive (no-sharing) total: every core gets its own full
    /// decompressor. The gap to [`total_ge`](SocPlan::total_ge) is the
    /// benefit the paper's reuse argument claims.
    pub fn unshared_ge(&self) -> f64 {
        self.cores
            .iter()
            .map(|c| c.shared_ge + c.skip_ge + c.mode_select_ge)
            .sum()
    }

    /// The decompressor's share of the total SoC area, given the cores'
    /// own gate-equivalent areas (the paper reports 6.6% for its
    /// five-core SoC).
    pub fn area_fraction(&self, core_area_ge: f64) -> f64 {
        let dec = self.total_ge();
        if core_area_ge + dec == 0.0 {
            0.0
        } else {
            dec / (core_area_ge + dec)
        }
    }

    /// Total test data volume of the SoC (all cores' seeds).
    pub fn total_tdv(&self) -> usize {
        self.cores.iter().map(|c| c.tdv).sum()
    }

    /// Total test sequence length when cores are tested one after the
    /// other.
    pub fn total_tsl(&self) -> u64 {
        self.cores.iter().map(|c| c.tsl).sum()
    }
}

/// GE of a set of `CostModel`-weighted scan cells — a crude stand-in
/// for "SoC core area" when only the netlist's scan count is known.
/// Each scan cell is one flip-flop plus ~8 gates of logic (typical
/// logic-per-FF ratios in the ISCAS'89 era).
pub fn estimated_core_area_ge(scan_cells: usize) -> f64 {
    let model = CostModel::default();
    scan_cells as f64 * (model.dff + 8.0 * model.nand2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_testdata::{generate_test_set, CubeProfile};

    fn tiny_report() -> PipelineReport {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let engine = Engine::builder().window(12).segment(3).speedup(4);
        engine.build().unwrap().run(&set).unwrap()
    }

    #[test]
    fn sharing_beats_replication() {
        let report = tiny_report();
        let mut plan = SocPlan::new();
        for name in ["core-a", "core-b", "core-c"] {
            plan.add_core(name, &report);
        }
        assert_eq!(plan.cores().len(), 3);
        assert!(plan.total_ge() < plan.unshared_ge());
        // shared part counted once
        assert!((plan.shared_ge() - report.cost.shared_ge()).abs() < 1e-9);
        // mode select counted three times
        assert!((plan.mode_select_total_ge() - 3.0 * report.cost.mode_select_ge()).abs() < 1e-9);
    }

    #[test]
    fn totals_accumulate() {
        let report = tiny_report();
        let mut plan = SocPlan::new();
        plan.add_core("a", &report);
        plan.add_core("b", &report);
        assert_eq!(plan.total_tdv(), 2 * report.tdv);
        assert_eq!(plan.total_tsl(), 2 * report.tsl_proposed);
        let (lo, hi) = plan.mode_select_range();
        assert_eq!(lo, hi);
    }

    #[test]
    fn area_fraction_behaviour() {
        let report = tiny_report();
        let mut plan = SocPlan::new();
        plan.add_core("a", &report);
        let frac_small_soc = plan.area_fraction(1000.0);
        let frac_big_soc = plan.area_fraction(100_000.0);
        assert!(frac_small_soc > frac_big_soc);
        assert!(frac_big_soc > 0.0 && frac_big_soc < 0.05);
        assert_eq!(SocPlan::new().area_fraction(0.0), 0.0);
    }

    #[test]
    fn estimated_core_area_scales() {
        assert!(estimated_core_area_ge(1400) > estimated_core_area_ge(700));
        assert_eq!(estimated_core_area_ge(0), 0.0);
    }

    #[test]
    fn run_batch_matches_sequential_runs() {
        let engine = Engine::builder()
            .window(12)
            .segment(3)
            .speedup(4)
            .build()
            .unwrap();
        let cores: Vec<(String, TestSet)> = [3u64, 4]
            .iter()
            .map(|&seed| {
                (
                    format!("core-{seed}"),
                    generate_test_set(&CubeProfile::mini(), seed),
                )
            })
            .collect();
        let plan = SocPlan::run_batch(&engine, &cores).unwrap();
        assert_eq!(plan.cores().len(), 2);
        let mut reference = SocPlan::new();
        for (name, set) in &cores {
            reference.add_core(name.clone(), &engine.run(set).unwrap());
        }
        assert_eq!(plan.total_tdv(), reference.total_tdv());
        assert_eq!(plan.total_tsl(), reference.total_tsl());
        for (a, b) in plan.cores().iter().zip(reference.cores()) {
            assert_eq!(a.name, b.name, "input order is preserved");
            assert_eq!(a.tsl, b.tsl);
        }
    }

    #[test]
    fn run_batch_surfaces_the_first_error() {
        let engine = Engine::builder().window(8).segment(2).build().unwrap();
        let empty = TestSet::new(ss_testdata::ScanConfig::new(2, 4).unwrap());
        let cores = vec![("empty".to_string(), empty)];
        assert!(matches!(
            SocPlan::run_batch(&engine, &cores),
            Err(SchemeError::BadConfig(_))
        ));
    }
}
