//! The polymorphic compression-scheme API.
//!
//! The paper frames State Skip as one point in a *family* of
//! reseeding/embedding schemes and compares it against classical
//! reseeding and pure test set embedding. [`CompressionScheme`] makes
//! that family a first-class abstraction: every scheme consumes the
//! same test set and [`HardwareCtx`] and produces one
//! [`SchemeReport`], so `Box<dyn CompressionScheme>` collections can
//! be executed and tabulated uniformly (see
//! [`Engine::run_all`](crate::Engine::run_all) and
//! [`comparison_table`]).

use ss_testdata::TestSet;

use crate::artifacts::{Encoded, HardwareCtx};
use crate::baseline11::baseline11_tsl;
use crate::encoder::WindowEncoder;
use crate::error::SchemeError;
use crate::expr_table::ExprTable;
use crate::report::{improvement_percent, Table};

/// A test-data-compression scheme runnable against shared hardware.
///
/// Implementations must be `Send + Sync`: the batch drivers execute
/// schemes on scoped threads against one shared [`HardwareCtx`].
pub trait CompressionScheme: Send + Sync {
    /// Short scheme name used in reports and tables.
    fn name(&self) -> &str;

    /// Runs the scheme on `set` against the synthesised hardware.
    ///
    /// # Errors
    ///
    /// [`SchemeError`] when the set cannot be encoded under this
    /// scheme or the hardware context is unsuitable.
    fn compress(&self, set: &TestSet, ctx: &HardwareCtx) -> Result<SchemeReport, SchemeError>;
}

/// The unified result every scheme reports: the four numbers the
/// paper's tables compare.
///
/// `#[non_exhaustive]`: construct it with [`SchemeReport::new`] so
/// future fields stay non-breaking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SchemeReport {
    /// Scheme name, from [`CompressionScheme::name`].
    pub scheme: String,
    /// LFSR size `n` used.
    pub lfsr_size: usize,
    /// Number of stored seeds.
    pub seeds: usize,
    /// Test data volume in bits.
    pub tdv: usize,
    /// TSL before any sequence reduction (the scheme's raw length).
    pub tsl_original: u64,
    /// TSL the scheme actually applies.
    pub tsl: u64,
}

impl SchemeReport {
    /// Assembles a report.
    pub fn new(
        scheme: impl Into<String>,
        lfsr_size: usize,
        seeds: usize,
        tdv: usize,
        tsl_original: u64,
        tsl: u64,
    ) -> Self {
        SchemeReport {
            scheme: scheme.into(),
            lfsr_size,
            seeds,
            tdv,
            tsl_original,
            tsl,
        }
    }

    /// TSL improvement over the scheme's own unreduced sequence,
    /// percent (the paper's relation (2)).
    pub fn improvement_percent(&self) -> f64 {
        improvement_percent(self.tsl_original, self.tsl)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: n={}, {} seeds, TDV {} bits, TSL {} -> {} vectors ({:.1}% shorter)",
            self.scheme,
            self.lfsr_size,
            self.seeds,
            self.tdv,
            self.tsl_original,
            self.tsl,
            self.improvement_percent()
        )
    }
}

/// One comparison [`Table`] over any number of scheme reports — the
/// shape of the paper's Tables 1-3.
pub fn comparison_table(reports: &[SchemeReport]) -> Table {
    let mut table = Table::new(["scheme", "n", "seeds", "TDV (bits)", "TSL", "impr"]);
    for r in reports {
        table.add_row([
            r.scheme.clone(),
            r.lfsr_size.to_string(),
            r.seeds.to_string(),
            r.tdv.to_string(),
            r.tsl.to_string(),
            format!("{:.1}%", r.improvement_percent()),
        ]);
    }
    table
}

/// The proposed scheme: window-based reseeding, fortuitous-embedding
/// detection, segment selection and State Skip traversal, using the
/// window/segment/speedup of the bound [`HardwareCtx`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateSkip;

impl CompressionScheme for StateSkip {
    fn name(&self) -> &str {
        "state-skip"
    }

    fn compress(&self, set: &TestSet, ctx: &HardwareCtx) -> Result<SchemeReport, SchemeError> {
        // the same staged flow Engine::run uses — one implementation,
        // no drift between SchemeReport and PipelineReport numbers
        let segmented = Encoded::from_ctx_ref(set, ctx)?.embed().segment();
        let tsl = segmented.tsl();
        let encoding = segmented.encoding();
        Ok(SchemeReport::new(
            self.name(),
            ctx.lfsr_size(),
            encoding.seeds.len(),
            encoding.tdv(),
            encoding.tsl_original() as u64,
            tsl.vectors,
        ))
    }
}

/// Classical LFSR reseeding (the paper's `L = 1` baseline): every
/// seed expands into exactly one test vector, so TSL equals the seed
/// count and no sequence reduction applies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassicalReseeding;

impl CompressionScheme for ClassicalReseeding {
    fn name(&self) -> &str {
        "classical-reseeding"
    }

    fn compress(&self, set: &TestSet, ctx: &HardwareCtx) -> Result<SchemeReport, SchemeError> {
        let table = ExprTable::build(ctx.lfsr(), ctx.shifter(), set.config(), 1);
        let encoding = WindowEncoder::new(set, &table)?.encode(ctx.config().fill_seed)?;
        let tsl = encoding.seeds.len() as u64;
        Ok(SchemeReport::new(
            self.name(),
            ctx.lfsr_size(),
            encoding.seeds.len(),
            encoding.tdv(),
            tsl,
            tsl,
        ))
    }
}

/// The `[11]`-style test-set-embedding baseline (Kaseridis et al., ETS
/// 2005): the same window-based reseeding, but the only sequence
/// reduction is truncating each window after the last vector the cover
/// relies on — no State Skip hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Baseline11;

impl CompressionScheme for Baseline11 {
    fn name(&self) -> &str {
        "baseline-11"
    }

    fn compress(&self, set: &TestSet, ctx: &HardwareCtx) -> Result<SchemeReport, SchemeError> {
        // same encode + embed stages as StateSkip; the reduction step
        // is truncation only
        let embedded = Encoded::from_ctx_ref(set, ctx)?.embed();
        let tsl = baseline11_tsl(embedded.embedding());
        let encoding = embedded.encoding();
        Ok(SchemeReport::new(
            self.name(),
            ctx.lfsr_size(),
            encoding.seeds.len(),
            encoding.tdv(),
            encoding.tsl_original() as u64,
            tsl,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Engine;
    use ss_testdata::{generate_test_set, CubeProfile};

    fn mini() -> (TestSet, Engine) {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let engine = Engine::builder()
            .window(24)
            .segment(4)
            .speedup(6)
            .build()
            .unwrap();
        (set, engine)
    }

    #[test]
    fn all_three_schemes_run_through_trait_objects() {
        let (set, engine) = mini();
        let schemes: Vec<Box<dyn CompressionScheme>> = vec![
            Box::new(StateSkip),
            Box::new(ClassicalReseeding),
            Box::new(Baseline11),
        ];
        let reports = engine.run_all(&schemes, &set).unwrap();
        assert_eq!(reports.len(), 3);
        for (scheme, report) in schemes.iter().zip(&reports) {
            assert_eq!(scheme.name(), report.scheme);
            assert!(report.seeds > 0);
            assert_eq!(report.tdv, report.seeds * report.lfsr_size);
            assert!(report.tsl <= report.tsl_original);
            assert!(!report.summary().is_empty());
        }
        // the paper's ordering: state skip beats truncation-only
        // embedding, which beats the raw windowed sequence
        let state_skip = &reports[0];
        let baseline = &reports[2];
        assert!(state_skip.tsl <= baseline.tsl);
        assert!(baseline.tsl <= baseline.tsl_original);
        // classical reseeding stores more bits but applies fewer vectors
        // than the raw windowed sequence (the paper's Table 1 trade-off)
        let classical = &reports[1];
        assert!(classical.tdv >= state_skip.tdv);
        assert_eq!(classical.tsl, classical.seeds as u64);
        assert!(state_skip.tsl_original >= classical.tsl);
    }

    #[test]
    fn comparison_table_has_one_row_per_scheme() {
        let (set, engine) = mini();
        let schemes: Vec<Box<dyn CompressionScheme>> =
            vec![Box::new(StateSkip), Box::new(ClassicalReseeding)];
        let reports = engine.run_all(&schemes, &set).unwrap();
        let table = comparison_table(&reports);
        assert_eq!(table.row_count(), 2);
        let text = table.to_string();
        assert!(text.contains("state-skip"));
        assert!(text.contains("classical-reseeding"));
    }

    #[test]
    fn comparison_table_formats_report_fields() {
        let reports = vec![
            SchemeReport::new("state-skip", 24, 10, 240, 1000, 120),
            SchemeReport::new("classical-reseeding", 24, 40, 960, 40, 40),
        ];
        let table = comparison_table(&reports);
        assert_eq!(table.row_count(), 2);
        let text = table.to_string();
        let lines: Vec<&str> = text.lines().collect();
        // header + separator + one line per report
        assert_eq!(lines.len(), 4);
        for header in ["scheme", "n", "seeds", "TDV (bits)", "TSL", "impr"] {
            assert!(lines[0].contains(header), "missing header {header}");
        }
        // every column is rendered, improvement as a percentage
        assert!(lines[2].contains("state-skip"));
        assert!(lines[2].contains("240") && lines[2].contains("120"));
        assert!(lines[2].contains("88.0%"), "1000 -> 120 is 88.0% shorter");
        assert!(lines[3].contains("0.0%"), "no reduction formats as 0.0%");
        // aligned: all rows share the header's width
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn run_scheme_matches_run_all() {
        let (set, engine) = mini();
        let single = engine.run_scheme(&StateSkip, &set).unwrap();
        let batch = engine
            .run_all(&[Box::new(StateSkip) as Box<dyn CompressionScheme>], &set)
            .unwrap();
        assert_eq!(single, batch[0]);
    }
}
