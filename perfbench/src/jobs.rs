//! The jobs each workload runs, how their inputs are materialised, and
//! the two flows that produce their results: the in-process staged flow
//! of `paper-encode` and the flow a server runs for a cold job.

use std::sync::atomic::AtomicU64;

use ss_core::{Encoded, Engine, EngineConfig, HardwareCtx, PipelineReport, SchemeError};
use ss_server::{CachedArtifacts, JobSpec};
use ss_store::report_digest;
use ss_testdata::{TestSet, WorkloadRegistry};

use crate::expected::Expected;

/// One job: a registry workload at a scale, run at one `(L, S, k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobDef {
    /// Registry name of the workload.
    pub workload: &'static str,
    /// Share of the workload's cubes kept (a prefix; 1 keeps all).
    pub scale: f64,
    /// Window length `L`.
    pub window: usize,
    /// Segment size `S`.
    pub segment: usize,
    /// State Skip speedup `k`.
    pub speedup: u64,
}

impl JobDef {
    /// The job's name in the expected-values file.
    pub fn id(&self) -> String {
        format!(
            "{}@{}/L{}/S{}/k{}",
            self.workload, self.scale, self.window, self.segment, self.speedup
        )
    }

    /// The job's cube set.
    pub fn test_set(&self) -> TestSet {
        WorkloadRegistry::find(self.workload)
            .unwrap_or_else(|| panic!("{} is not a registry workload", self.workload))
            .test_set_scaled(self.scale)
    }

    /// The engine configuration: the paper's LFSR size for a paper
    /// profile, the engine default otherwise; one engine thread.
    pub fn config(&self) -> EngineConfig {
        let mut builder = Engine::builder()
            .window(self.window)
            .segment(self.segment)
            .speedup(self.speedup)
            .threads(1);
        if let Some(profile) = WorkloadRegistry::find(self.workload).and_then(|w| w.profile()) {
            builder = builder.lfsr_size(profile.lfsr_size);
        }
        *builder
            .build()
            .expect("benchmark job configs are valid")
            .config()
    }

    /// The engine for [`config`](JobDef::config).
    pub fn engine(&self) -> Engine {
        Engine::from_config(self.config()).expect("benchmark job configs are valid")
    }

    /// The job as a server submission.
    pub fn spec(&self, set: &TestSet) -> JobSpec {
        JobSpec::new(set, &self.config())
    }
}

/// The five paper profiles at `scale`, at each window, with one `(S, k)`.
pub fn paper_jobs(scale: f64, windows: &[usize], segment: usize, speedup: u64) -> Vec<JobDef> {
    ["s9234", "s13207", "s15850", "s38417", "s38584"]
        .iter()
        .flat_map(|&workload| {
            windows.iter().map(move |&window| JobDef {
                workload,
                scale,
                window,
                segment,
                speedup,
            })
        })
        .collect()
}

/// The result fields a job is checked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observed {
    /// Seeds stored.
    pub seeds: u64,
    /// Test data volume in bits.
    pub tdv: u64,
    /// State Skip test sequence length.
    pub tsl: u64,
    /// Report digest.
    pub digest: u64,
}

impl Observed {
    /// The fields of an in-process report.
    pub fn of_report(report: &PipelineReport) -> Self {
        Observed {
            seeds: report.seeds as u64,
            tdv: report.tdv as u64,
            tsl: report.tsl_proposed,
            digest: report_digest(report),
        }
    }

    /// Whether every field equals the pinned value.
    pub fn matches(&self, expected: &Expected) -> bool {
        self.seeds == expected.seeds
            && self.tdv == expected.tdv
            && self.tsl == expected.tsl
            && self.digest == expected.digest
    }
}

/// The flow a server runs for a cold job — synthesise on the submitted
/// set, drop the intrinsically unencodable cubes, encode, embed,
/// segment — returning the report with the expected-values entry it
/// pins, including the cache's size estimate for the artifacts.
///
/// # Errors
///
/// Any engine error.
pub fn pin_flow(engine: &Engine, set: &TestSet) -> Result<(PipelineReport, Expected), SchemeError> {
    let ctx = engine.synthesize(set)?;
    let (encodable, dropped) = ctx.encodable_subset(set);
    let encoded = Encoded::from_ctx_ref(&encodable, &ctx)?;
    let encoding = encoded.encoding().clone();
    let embedded = encoded.embed();
    let embeddings = embedded.embedding().mean_embeddings();
    let segmented = embedded.segment();
    let useful = segmented.plan().total_useful() as u64;
    let report = segmented.finish()?;
    let digest = report_digest(&report);
    let bytes = CachedArtifacts {
        ctx,
        set: encodable,
        dropped: dropped.len(),
        encoding,
        report_digest: digest,
        trace: AtomicU64::new(0),
    }
    .approx_bytes() as u64;
    let observed = Observed::of_report(&report);
    let expected = Expected {
        seeds: observed.seeds,
        tdv: observed.tdv,
        tsl: observed.tsl,
        digest,
        useful,
        embeddings,
        bytes,
    };
    Ok((report, expected))
}

/// What the `paper-encode` staged flow hands back beside the report.
#[derive(Debug, Clone, Copy)]
pub struct StageFacts {
    /// Mean embeddings per cube.
    pub embeddings: f64,
    /// Useful segments selected.
    pub useful: u64,
}

/// The staged flow of one `paper-encode` job, each stage in its own
/// span under `parent`.
///
/// # Errors
///
/// Any engine error.
pub fn staged_flow(
    engine: &Engine,
    set: &TestSet,
    tracer: &mut crate::trace::Tracer,
    job: u64,
    parent: Option<crate::trace::SpanId>,
) -> Result<(PipelineReport, StageFacts), SchemeError> {
    let ctx: HardwareCtx = tracer.time("synthesis", job, parent, || engine.synthesize(set))?;
    let encoded = tracer.time("encoder", job, parent, || Encoded::from_ctx(set, ctx))?;
    let embedded = tracer.time("embedding", job, parent, || encoded.embed());
    let embeddings = embedded.embedding().mean_embeddings();
    let (report, useful) = tracer.time("segments", job, parent, || {
        let segmented = embedded.segment();
        let useful = segmented.plan().total_useful() as u64;
        segmented.finish().map(|r| (r, useful))
    })?;
    Ok((report, StageFacts { embeddings, useful }))
}
