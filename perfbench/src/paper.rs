//! `paper-encode`: the paper's Table 2 experiment, in process.
//!
//! Each job runs the staged flow (synthesis, encode, embed, segment) of
//! one paper profile at its paper LFSR size. A pass runs all ten jobs
//! once, in a seeded order, and the run measures whole passes.

use std::collections::BTreeMap;
use std::time::Instant;

use ss_core::{Decompressor, Engine, PipelineReport, SchemeError};
use ss_testdata::TestSet;

use crate::expected::Expected;
use crate::jobs::{self, JobDef, Observed, StageFacts};
use crate::stream::SplitMix64;
use crate::trace::Tracer;
use crate::{Args, RunResult};

/// Share of each profile's cubes the jobs keep.
pub const SCALE: f64 = 0.1;
/// Window lengths `L`: the short and long ends of the paper's sweep.
pub const WINDOWS: [usize; 2] = [50, 200];
/// Times set-up runs in one run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The ten `paper-encode` jobs: five profiles × two windows, S=5, k=20.
pub fn jobs() -> Vec<JobDef> {
    jobs::paper_jobs(SCALE, &WINDOWS, 5, 20)
}

/// A job's input: its cube set without the intrinsically unencodable
/// cubes, as the repository's Table 2 bench filters them.
///
/// # Errors
///
/// Any synthesis error.
pub fn encodable_input(def: &JobDef) -> Result<TestSet, SchemeError> {
    let set = def.test_set();
    let ctx = def.engine().synthesize(&set)?;
    Ok(ctx.encodable_subset(&set).0)
}

struct Input {
    def: JobDef,
    engine: Engine,
    set: TestSet,
    expected: Expected,
}

/// Materialises every job's input: cube generation, then one synthesis
/// per job to filter unencodable cubes.
fn setup(tracer: &mut Tracer, expected: &BTreeMap<String, Expected>) -> Result<Vec<Input>, String> {
    let mut sets: BTreeMap<&str, TestSet> = BTreeMap::new();
    let mut inputs = Vec::new();
    for def in jobs() {
        let full = match sets.get(def.workload) {
            Some(set) => set.clone(),
            None => {
                let set = tracer.time("testdata.generate", 0, None, || def.test_set());
                sets.insert(def.workload, set.clone());
                set
            }
        };
        let engine = def.engine();
        let ctx = tracer
            .time("setup.synthesis", 0, None, || engine.synthesize(&full))
            .map_err(|e| format!("{}: {e}", def.id()))?;
        let set = ctx.encodable_subset(&full).0;
        let expected = *expected
            .get(&def.id())
            .ok_or_else(|| format!("{} is not pinned in expected.txt", def.id()))?;
        inputs.push(Input {
            def,
            engine,
            set,
            expected,
        });
    }
    Ok(inputs)
}

/// Replays a job's seeds through the cycle-accurate decompressor and
/// returns how many of its cubes no applied vector matches (plus one
/// if the applied sequence is not the reported TSL long).
fn replay_misses(input: &Input, report: &PipelineReport) -> Result<u64, SchemeError> {
    let ctx = input.engine.synthesize(&input.set)?;
    let mut decompressor = Decompressor::new(
        ctx.lfsr().clone(),
        input.def.speedup,
        ctx.shifter().clone(),
        input.set.config(),
        report.mode_select.clone(),
    );
    let applied = decompressor.run(&report.encoding, &report.plan);
    let missed = input
        .set
        .iter()
        .filter(|cube| !applied.vectors.iter().any(|v| cube.matches(v)))
        .count() as u64;
    Ok(missed + u64::from(applied.tsl() != report.tsl_proposed))
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure (a job missing from the expected values, or an
/// engine error while materialising inputs).
pub fn run(args: &Args, expected: &BTreeMap<String, Expected>) -> Result<RunResult, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut setup_secs = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = setup(&mut tracer, expected)?;
        setup_secs.push(t.elapsed().as_secs_f64());
    }

    let mut rng = SplitMix64::new(args.seed);
    // the job with the largest artifacts opens every pass, so the run's
    // memory peak does not depend on the seeded order of the rest
    let largest = (0..inputs.len())
        .max_by_key(|&i| inputs[i].expected.bytes)
        .ok_or("no paper-encode jobs")?;
    let order: Vec<usize> = (0..inputs.len()).filter(|&i| i != largest).collect();
    let mut last: Vec<Option<(PipelineReport, StageFacts)>> = vec![None; inputs.len()];
    let mut latencies = crate::stats::Latencies::default();
    let mut result = RunResult::default();
    let mut passes = 0u64;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < args.seconds {
        for i in std::iter::once(largest).chain(rng.shuffled(&order)) {
            let input = &inputs[i];
            let job_id = result.attempted;
            result.attempted += 1;
            let t = Instant::now();
            let span = tracer.begin("job", job_id, None);
            let outcome = jobs::staged_flow(&input.engine, &input.set, &mut tracer, job_id, span);
            tracer.end(span);
            latencies.record(input.def.id(), t.elapsed().as_secs_f64());
            match outcome {
                Ok((report, facts)) => {
                    if !Observed::of_report(&report).matches(&input.expected) {
                        eprintln!("{}: result differs from the pinned one", input.def.id());
                        result.failed += 1;
                    }
                    last[i] = Some((report, facts));
                }
                Err(e) => {
                    eprintln!("{}: {e}", input.def.id());
                    result.failed += 1;
                }
            }
        }
        passes += 1;
    }
    let measured = start.elapsed().as_secs_f64();

    // correctness outside the timed region: every cube of every job
    // must be applied by the decompressor the report describes
    let (mut tsl, mut tdv, mut seeds, mut useful, mut embeddings) = (0, 0, 0, 0, 0.0);
    for (input, done) in inputs.iter().zip(&last) {
        let Some((report, facts)) = done else {
            continue;
        };
        result.attempted += input.set.len() as u64 + 1;
        result.failed += replay_misses(input, report).unwrap_or_else(|e| {
            eprintln!("{}: replay: {e}", input.def.id());
            input.set.len() as u64 + 1
        });
        tsl += report.tsl_proposed;
        tdv += report.tdv as u64;
        seeds += report.seeds as u64;
        useful += facts.useful;
        embeddings += facts.embeddings / inputs.len() as f64;
    }
    let pinned_tsl: u64 = inputs.iter().map(|i| i.expected.tsl).sum();
    let pinned_tdv: u64 = inputs.iter().map(|i| i.expected.tdv).sum();
    result.exact_ok = last.iter().all(Option::is_some) && tsl == pinned_tsl && tdv == pinned_tdv;

    if !args.trace {
        result.metrics = crate::end_to_end(
            &latencies,
            measured,
            tsl,
            tdv,
            &setup_secs,
            crate::peak_rss_mb(),
            &mut result.notes,
        );
        return Ok(result);
    }

    let per = |v: f64| v / passes as f64;
    let encoder_s = tracer.busy("encoder");
    let job_s = tracer.busy("job");
    let layers = crate::Layers {
        encoder_calls: per(tracer.count("encoder") as f64),
        encoder_busy_s: per(encoder_s),
        encoder_share: encoder_s / job_s,
        encoder_seeds: seeds as f64,
        encoder_seeds_per_s: seeds as f64 * passes as f64 / encoder_s,
        synthesis_calls: per(tracer.count("synthesis") as f64),
        synthesis_busy_s: per(tracer.busy("synthesis")),
        generate_s: tracer.busy("testdata.generate") / SETUPS as f64,
        setup_synthesis_s: tracer.busy("setup.synthesis") / SETUPS as f64,
        embedding_busy_s: per(tracer.busy("embedding")),
        mean_embeddings: embeddings,
        segments_busy_s: per(tracer.busy("segments")),
        useful: useful as f64,
        job_self_s: per(tracer.self_time("job")),
        ..crate::Layers::default()
    };
    let traced_s = measured + setup_secs.iter().sum::<f64>();
    result.metrics = layers.metrics(&tracer, traced_s);
    crate::write_spans(args, &tracer, &mut result.notes)?;
    Ok(result)
}
