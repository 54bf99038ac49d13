//! The staged [`Engine`] front-end and its builder.
//!
//! [`Engine::builder()`] collects the scheme knobs, validates them
//! once in [`EngineBuilder::build`], and the resulting [`Engine`]
//! exposes the flow as typed stages —
//! [`Encoded`](crate::Encoded) → [`Embedded`](crate::Embedded) →
//! [`Segmented`](crate::Segmented) → [`TslReport`](crate::TslReport) —
//! so callers can stop, inspect or re-enter at any point instead of
//! one opaque `run()`.

use std::panic;
use std::thread;

use ss_lfsr::LfsrKind;
use ss_testdata::TestSet;

use crate::artifacts::{Encoded, HardwareCtx, PipelineReport};
use crate::error::SchemeError;
use crate::scheme::{CompressionScheme, SchemeReport};

/// The validated knob set an [`Engine`] runs with.
///
/// `#[non_exhaustive]`: new knobs can be added without breaking
/// callers. Construct it through [`Engine::builder`], or start from
/// [`EngineConfig::default`] and validate with [`Engine::from_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Window length `L` (vectors per seed).
    pub window: usize,
    /// Segment size `S` (vectors per segment), `1..=L`.
    pub segment: usize,
    /// State Skip speedup factor `k`.
    pub speedup: u64,
    /// LFSR size `n`; `None` picks `smax + 4` (clamped to a tabulated
    /// primitive-polynomial degree).
    pub lfsr_size: Option<usize>,
    /// LFSR feedback structure.
    pub lfsr_kind: LfsrKind,
    /// Phase shifter taps per scan chain.
    pub ps_taps: usize,
    /// RNG seed for phase shifter synthesis (the "hardware" seed).
    pub hw_seed: u64,
    /// RNG seed for the pseudorandom fill of free seed variables.
    pub fill_seed: u64,
    /// Worker-thread cap for the parallel stages (embedding
    /// detection, [`Engine::run_all`]'s scheme pool,
    /// [`SocPlan::run_batch`](crate::SocPlan::run_batch)); `None`
    /// uses [`std::thread::available_parallelism`], and no pool starts
    /// more workers than the machine has hardware threads. The encoder
    /// itself runs on one thread. Results are bit-identical at every
    /// thread count.
    pub threads: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window: 100,
            segment: 5,
            speedup: 10,
            lfsr_size: None,
            lfsr_kind: LfsrKind::Fibonacci,
            ps_taps: 3,
            // calibrated so the default phase shifter yields zero
            // intrinsically unencodable cubes across the standard
            // synthetic workloads (mini + scaled paper profiles and the
            // tiny-circuit ATPG sets)
            hw_seed: 0x14A2_4108_A00E_3508,
            fill_seed: 1,
            threads: None,
        }
    }
}

/// Resolves a [`EngineConfig::threads`] knob to a concrete worker
/// count: the explicit value, or the machine's available parallelism
/// (falling back to 1 when that is unknowable).
pub(crate) fn resolve_threads(threads: Option<usize>) -> usize {
    threads
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
        .max(1)
}

/// Fluent construction of an [`Engine`].
///
/// ```
/// use ss_core::Engine;
///
/// # fn main() -> Result<(), ss_core::SchemeError> {
/// let engine = Engine::builder().window(40).segment(5).speedup(8).build()?;
/// assert_eq!(engine.config().window, 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain an Engine"]
pub struct EngineBuilder {
    config: EngineConfig,
}

impl EngineBuilder {
    pub(crate) fn new() -> Self {
        EngineBuilder {
            config: EngineConfig::default(),
        }
    }

    /// Window length `L` (vectors per seed).
    pub fn window(mut self, window: usize) -> Self {
        self.config.window = window;
        self
    }

    /// Segment size `S` (vectors per segment).
    pub fn segment(mut self, segment: usize) -> Self {
        self.config.segment = segment;
        self
    }

    /// State Skip speedup factor `k`.
    pub fn speedup(mut self, speedup: u64) -> Self {
        self.config.speedup = speedup;
        self
    }

    /// Explicit LFSR size `n` (default: `smax + 4`).
    pub fn lfsr_size(mut self, n: usize) -> Self {
        self.config.lfsr_size = Some(n);
        self
    }

    /// LFSR feedback structure.
    pub fn lfsr_kind(mut self, kind: LfsrKind) -> Self {
        self.config.lfsr_kind = kind;
        self
    }

    /// Phase shifter taps per scan chain.
    pub fn ps_taps(mut self, taps: usize) -> Self {
        self.config.ps_taps = taps;
        self
    }

    /// RNG seed for phase shifter synthesis.
    pub fn hw_seed(mut self, seed: u64) -> Self {
        self.config.hw_seed = seed;
        self
    }

    /// RNG seed for the pseudorandom fill of free seed variables.
    pub fn fill_seed(mut self, seed: u64) -> Self {
        self.config.fill_seed = seed;
        self
    }

    /// Worker-thread cap for the parallel stages — embedding
    /// detection, [`Engine::run_all`] and
    /// [`SocPlan::run_batch`](crate::SocPlan::run_batch); the encoder
    /// runs on one thread (default: the machine's
    /// [`std::thread::available_parallelism`]). Must be at least 1;
    /// results are bit-identical at every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = Some(threads);
        self
    }

    /// Validates the knobs and produces the [`Engine`].
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadConfig`] when `window == 0`, `segment` is
    /// outside `1..=window`, `speedup == 0` or `ps_taps == 0`.
    pub fn build(self) -> Result<Engine, SchemeError> {
        Engine::from_config(self.config)
    }
}

/// The staged execution front-end: hardware synthesis, the
/// encode → embed → segment → finish stages, and batch drivers over
/// [`CompressionScheme`] trait objects.
///
/// See the [crate-level quickstart](crate) for the typical flow.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Starts building an engine from the default knob set.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Validates a complete knob set directly.
    ///
    /// # Errors
    ///
    /// The same validation as [`EngineBuilder::build`].
    pub fn from_config(config: EngineConfig) -> Result<Self, SchemeError> {
        if config.window == 0 {
            return Err(SchemeError::bad_config("window must be >= 1"));
        }
        if config.segment == 0 || config.segment > config.window {
            return Err(SchemeError::bad_config("segment must be in 1..=window"));
        }
        if config.speedup == 0 {
            return Err(SchemeError::bad_config("speedup must be >= 1"));
        }
        if config.ps_taps == 0 {
            return Err(SchemeError::bad_config("ps_taps must be >= 1"));
        }
        if config.threads == Some(0) {
            return Err(SchemeError::bad_config("threads must be >= 1"));
        }
        Ok(Engine { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The concrete worker-thread count the engine's parallel stages
    /// run with: the configured knob, or the machine's available
    /// parallelism when unset.
    pub fn threads(&self) -> usize {
        resolve_threads(self.config.threads)
    }

    /// Synthesises the hardware context (LFSR, phase shifter,
    /// expression table) for a test set without encoding anything.
    ///
    /// # Errors
    ///
    /// [`SchemeError`] for an empty set, an LFSR below `smax`, or
    /// failed hardware synthesis.
    pub fn synthesize(&self, set: &TestSet) -> Result<HardwareCtx, SchemeError> {
        HardwareCtx::synthesize(set, &self.config)
    }

    /// Stage 1: encodes the test set into seeds, returning the
    /// [`Encoded`] artifact for inspection or further stages.
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors and [`SchemeError::Encode`] when a
    /// cube cannot be encoded (LFSR too small).
    pub fn encode<'a>(&self, set: &'a TestSet) -> Result<Encoded<'a>, SchemeError> {
        let ctx = self.synthesize(set)?;
        Encoded::from_ctx(set, ctx)
    }

    /// Runs all stages — encode, embed, segment, finish — and returns
    /// the full report. Equivalent, bit for bit, to running the stages
    /// on a borrowed context:
    /// `Encoded::from_ctx_ref(set, &ctx)?.embed().segment().finish()`.
    ///
    /// # Errors
    ///
    /// Any stage error, see [`Engine::encode`].
    pub fn run(&self, set: &TestSet) -> Result<PipelineReport, SchemeError> {
        self.encode(set)?.embed().segment().finish()
    }

    /// Splits `set` into the cubes this configuration's hardware can
    /// encode and the indices of intrinsically unencodable cubes (see
    /// [`HardwareCtx::encodable_subset`]).
    ///
    /// Note: with the default (set-derived) LFSR size, dropping cubes
    /// can lower `smax` and therefore change the hardware a subsequent
    /// [`Engine::run`] synthesises — possibly surfacing *new*
    /// conflicts. To filter and run against identical hardware, pin
    /// [`EngineBuilder::lfsr_size`], or keep the context and re-enter
    /// the staged flow via
    /// [`Encoded::from_ctx`](crate::Encoded::from_ctx).
    ///
    /// # Errors
    ///
    /// Propagates hardware synthesis errors.
    pub fn encodable_subset(&self, set: &TestSet) -> Result<(TestSet, Vec<usize>), SchemeError> {
        Ok(self.synthesize(set)?.encodable_subset(set))
    }

    /// Runs one scheme against this engine's hardware.
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors and the scheme's own failure.
    pub fn run_scheme(
        &self,
        scheme: &dyn CompressionScheme,
        set: &TestSet,
    ) -> Result<SchemeReport, SchemeError> {
        let ctx = self.synthesize(set)?;
        scheme.compress(set, &ctx)
    }

    /// Batch driver: synthesises the hardware once, then runs every
    /// scheme **in parallel** over a [`std::thread::scope`] worker
    /// pool capped at the configured [`threads`](Engine::threads) and
    /// returns their reports in input order — ready for
    /// [`comparison_table`](crate::comparison_table).
    ///
    /// # Errors
    ///
    /// The first scheme error in input order. Panics in scheme threads
    /// are propagated.
    pub fn run_all(
        &self,
        schemes: &[Box<dyn CompressionScheme>],
        set: &TestSet,
    ) -> Result<Vec<SchemeReport>, SchemeError> {
        let ctx = self.synthesize(set)?;
        let ctx = &ctx;
        let results = run_pool(self.threads(), schemes.len(), |i| {
            schemes[i].compress(set, ctx)
        });
        results.into_iter().collect()
    }
}

/// How many workers a pool for `count` jobs starts under a `threads`
/// cap: never more than the jobs, nor than the machine's hardware
/// threads (extra workers would only time-slice), and at least one.
pub(crate) fn pool_width(threads: usize, count: usize) -> usize {
    let hw = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    threads.min(count).min(hw).max(1)
}

/// Runs `count` independent jobs over a scoped worker pool of
/// [`pool_width`] threads (inline when one suffices), returning
/// results in job order. Panics in workers are propagated.
pub(crate) fn run_pool<T, F>(threads: usize, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = pool_width(threads, count);
    if threads <= 1 || count <= 1 {
        return (0..count).map(job).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
    thread::scope(|scope| {
        let next = &next;
        let job = &job;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        done.push((i, job(i)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        results[i] = Some(result);
                    }
                }
                Err(payload) => panic::resume_unwind(payload),
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_testdata::{generate_test_set, CubeProfile};

    #[test]
    fn builder_validates_every_knob() {
        let bad = |b: EngineBuilder| matches!(b.build(), Err(SchemeError::BadConfig(_)));
        assert!(bad(Engine::builder().window(0)));
        assert!(bad(Engine::builder().window(10).segment(0)));
        assert!(bad(Engine::builder().window(10).segment(11)));
        assert!(bad(Engine::builder().speedup(0)));
        assert!(bad(Engine::builder().ps_taps(0)));
        assert!(bad(Engine::builder().threads(0)));
        assert!(Engine::builder().window(10).segment(10).build().is_ok());
        let engine = Engine::builder().threads(3).build().unwrap();
        assert_eq!(engine.threads(), 3);
        assert!(Engine::builder().build().unwrap().threads() >= 1);
    }

    #[test]
    fn run_pool_preserves_order_at_any_width() {
        for threads in [1usize, 2, 7, 64] {
            let results = crate::builder::run_pool(threads, 23, |i| i * i);
            assert_eq!(results, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(crate::builder::run_pool(4, 0, |i| i).is_empty());
    }

    #[test]
    fn pool_width_caps_at_jobs_and_hardware_threads() {
        let hw = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(pool_width(5000, 600), hw.min(600));
        assert_eq!(pool_width(usize::MAX, usize::MAX), hw);
        assert_eq!(pool_width(3, 2), 2.min(hw));
        assert_eq!(pool_width(1, 600), 1);
        assert_eq!(pool_width(0, 0), 1);
        assert_eq!(pool_width(4, 0), 1);
    }

    #[test]
    fn staged_run_produces_a_consistent_report() {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let engine = Engine::builder()
            .window(24)
            .segment(4)
            .speedup(6)
            .build()
            .unwrap();
        let encoded = engine.encode(&set).unwrap();
        assert!(encoded.seed_count() > 0);
        let embedded = encoded.embed();
        assert!(embedded.embedding().validate());
        let segmented = embedded.segment();
        let tsl = segmented.tsl();
        let report = segmented.finish().unwrap();
        assert_eq!(report.tsl_proposed, tsl.vectors);
        assert_eq!(report.tdv, report.seeds * report.lfsr_size);
        assert_eq!(report.tsl_original, (report.seeds * 24) as u64);
        assert!(report.tsl_proposed <= report.tsl_truncated);
        assert!(report.tsl_truncated <= report.tsl_original);
        assert!(report.tsl_proposed < report.tsl_original);
        assert!(report.improvement_percent > 0.0);
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn higher_k_shortens_proposed_tsl() {
        let set = generate_test_set(&CubeProfile::mini(), 2);
        let run = |k: u64| {
            let engine = Engine::builder().window(24).segment(4).speedup(k);
            engine.build().unwrap().run(&set).unwrap()
        };
        let (slow, fast) = (run(2), run(12));
        // same seeds/plan (speedup affects traversal only)
        assert_eq!(slow.seeds, fast.seeds);
        assert!(fast.tsl_proposed <= slow.tsl_proposed);
    }

    #[test]
    fn engine_rejects_an_empty_set() {
        let set = ss_testdata::TestSet::new(ss_testdata::ScanConfig::new(2, 4).unwrap());
        let engine = Engine::builder().window(8).segment(2).build().unwrap();
        assert!(matches!(engine.run(&set), Err(SchemeError::BadConfig(_))));
    }
}
