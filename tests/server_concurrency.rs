//! Concurrent artifact-reuse property: N client threads hammering the
//! service with a mix of repeated and fresh workloads receive results
//! **bit-identical to an uncached `Engine::run`**, at every worker
//! count — and no job is ever lost to backpressure (a `Busy` rejection
//! is retried, never dropped).
//!
//! The reference for every workload is computed locally through the
//! exact path the server runs cold (synthesize → drop intrinsically
//! unencodable cubes → pin the LFSR size → run), then every served
//! result — cold, cached, or coalesced with a concurrent identical
//! job — must match it field for field and digest for digest.

use std::collections::HashMap;
use std::sync::Mutex;

use ss_core::Engine;
use ss_server::{report_digest, Client, JobSpec, ServeOptions, Server};
use ss_testdata::{TestSet, WorkloadRegistry};

const WINDOW: usize = 24;
const SEGMENT: usize = 4;
const SPEEDUP: u64 = 6;
const CLIENTS: usize = 5;
const SUBMISSIONS_PER_CLIENT: usize = 6;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// What an uncached run of a workload must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    digest: u64,
    lfsr_size: usize,
    seeds: usize,
    tdv: usize,
    tsl_original: u64,
    tsl_proposed: u64,
    dropped: usize,
}

/// The corpus slice the clients fan over: the file workloads full
/// size, one paper profile scaled — small enough for a debug-build
/// test, varied enough to mix cache hits, misses and coalesced jobs.
fn workload_specs() -> Vec<(String, TestSet, Option<usize>)> {
    let mut specs = Vec::new();
    for name in ["tiny-1", "tiny-pad", "mini-7"] {
        let w = WorkloadRegistry::find(name).expect("registry entry");
        specs.push((name.to_string(), w.test_set(), None));
    }
    let w = WorkloadRegistry::find("s13207").expect("registry entry");
    specs.push((
        "s13207@0.1".to_string(),
        w.test_set_scaled(0.1),
        Some(w.profile().expect("profile entry").lfsr_size),
    ));
    specs
}

fn engine_for(lfsr: Option<usize>) -> Engine {
    let mut builder = Engine::builder()
        .window(WINDOW)
        .segment(SEGMENT)
        .speedup(SPEEDUP);
    if let Some(n) = lfsr {
        builder = builder.lfsr_size(n);
    }
    builder.build().expect("test knobs are valid")
}

/// The uncached reference: the CLI `run` path, no server, no cache.
fn uncached_reference(set: &TestSet, lfsr: Option<usize>) -> Expected {
    let engine = engine_for(lfsr);
    let ctx = engine.synthesize(set).expect("synthesis succeeds");
    let (encodable, dropped) = ctx.encodable_subset(set);
    let mut config = *engine.config();
    config.lfsr_size = Some(ctx.lfsr_size());
    let pinned = Engine::from_config(config).expect("pinned config is valid");
    let report = pinned.run(&encodable).expect("engine run succeeds");
    Expected {
        digest: report_digest(&report),
        lfsr_size: report.lfsr_size,
        seeds: report.seeds,
        tdv: report.tdv,
        tsl_original: report.tsl_original,
        tsl_proposed: report.tsl_proposed,
        dropped: dropped.len(),
    }
}

#[test]
fn hammered_cache_is_bit_identical_to_uncached_runs_at_every_worker_count() {
    let specs: Vec<(String, JobSpec, Expected)> = workload_specs()
        .into_iter()
        .map(|(name, set, lfsr)| {
            let expected = uncached_reference(&set, lfsr);
            let spec = JobSpec::new(&set, engine_for(lfsr).config());
            (name, spec, expected)
        })
        .collect();

    for workers in WORKER_COUNTS {
        // a deliberately tight queue so backpressure actually fires
        // under the client fan-out and the retry path is exercised
        let handle = Server::bind(&ServeOptions {
            workers,
            queue_depth: 2,
            ..ServeOptions::default()
        })
        .expect("bind loopback")
        .spawn();

        let cached_seen: Mutex<HashMap<String, u64>> = Mutex::new(HashMap::new());
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let specs = &specs;
                let cached_seen = &cached_seen;
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for i in 0..SUBMISSIONS_PER_CLIENT {
                        // deterministic schedule, different per
                        // client: repeats collide across threads while
                        // fresh keys keep arriving
                        let (name, spec, expected) = &specs[(c + i * 3) % specs.len()];
                        let (_, report) = client.run(spec).expect("submission retried past Busy");
                        assert_eq!(
                            report.digest, expected.digest,
                            "{name} (workers={workers}, client={c}): served digest \
                             diverged from the uncached Engine::run"
                        );
                        assert_eq!(report.lfsr_size as usize, expected.lfsr_size, "{name}");
                        assert_eq!(report.seeds as usize, expected.seeds, "{name}");
                        assert_eq!(report.tdv as usize, expected.tdv, "{name}");
                        assert_eq!(report.tsl_original, expected.tsl_original, "{name}");
                        assert_eq!(report.tsl_proposed, expected.tsl_proposed, "{name}");
                        assert_eq!(report.dropped as usize, expected.dropped, "{name}");
                        *cached_seen
                            .lock()
                            .expect("cache counter")
                            .entry(name.clone())
                            .or_insert(0) += u64::from(report.cached());
                    }
                });
            }
        });

        let total = (CLIENTS * SUBMISSIONS_PER_CLIENT) as u64;
        let stats = handle.stats();
        assert_eq!(
            stats.jobs_done, total,
            "workers={workers}: the server lost jobs under concurrent load"
        );
        // every job looked the memory tier up exactly once, and a
        // coalesced job is served by the hit it waited for
        assert_eq!(
            stats.memory.hits + stats.memory.misses,
            stats.jobs_done,
            "workers={workers}: memory-tier lookups disagree with jobs"
        );
        assert!(
            stats.coalesced <= stats.memory.hits,
            "workers={workers}: {} coalesced jobs but {} hits",
            stats.coalesced,
            stats.memory.hits
        );
        // every workload is submitted more than once, so the cache
        // must have served a hit for each (coalesced jobs included)
        let cached_seen = cached_seen.into_inner().expect("cache counter");
        for (name, _, _) in &specs {
            assert!(
                cached_seen.get(name).copied().unwrap_or(0) > 0,
                "workers={workers}: {name} was never served from the cache"
            );
        }
        handle.shutdown();
    }
}
