//! `serve-hit` and `serve-churn`: one in-process `Server` on loopback,
//! driven closed-loop by one client that waits for each reply.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ss_server::{
    cache_key, CacheTier, Client, Codec, JobReport, JobSpec, Request, Response, ServeOptions,
    Server, ServerHandle, ServerStats,
};
use ss_store::ArtifactStore;
use ss_testdata::WorkloadRegistry;

use crate::expected::Expected;
use crate::jobs::{JobDef, Observed};
use crate::stream::SplitMix64;
use crate::trace::{SpanId, Tracer};
use crate::{Args, Layers, RunResult};

/// Share of each paper profile's cubes in `serve-hit` and the hot keys
/// of `serve-churn` (s38417's request is then ~485 KB of cube text).
pub const HIT_SCALE: f64 = 0.25;
/// The one engine configuration `(L, S, k)` of `serve-hit`.
const HIT_CONFIG: (usize, usize, u64) = (24, 4, 8);
/// Servers set up and warmed per `serve-hit` run; `setup_s` is the
/// median.
const HIT_SETUPS: usize = 3;
/// The hot keys of `serve-churn`: `serve-hit` jobs that stay resident.
const CHURN_HOT: [&str; 3] = ["s9234", "s13207", "s15850"];
/// Share of each profile's cubes in `serve-churn`'s churning keys, so a
/// cold job costs tens of milliseconds.
const CHURN_SCALE: f64 = 0.1;
/// The profiles the churning keys come from: their artifacts are within
/// 1.5× of each other in size, which the memory budget relies on.
const CHURN_PROFILES: [&str; 2] = ["s13207", "s15850"];
/// `(L, S, k)` of the churning keys, in three groups of two: warmed in
/// set-up, cold in rounds 1–4, cold in rounds 5–8.
const CHURN_CONFIGS: [(usize, usize, u64); 6] = [
    (40, 5, 10),
    (50, 5, 10),
    (40, 10, 20),
    (50, 10, 20),
    (40, 4, 8),
    (50, 4, 8),
];
/// Rounds in one `serve-churn` pass.
const CHURN_ROUNDS: usize = 8;

/// The nine `serve-hit` jobs: every registry workload at [`HIT_CONFIG`].
pub fn hit_jobs() -> Vec<JobDef> {
    let (window, segment, speedup) = HIT_CONFIG;
    WorkloadRegistry::all()
        .iter()
        .map(|w| JobDef {
            workload: w.name,
            scale: if w.profile().is_some() {
                HIT_SCALE
            } else {
                1.0
            },
            window,
            segment,
            speedup,
        })
        .collect()
}

fn churn_hot() -> Vec<JobDef> {
    hit_jobs()
        .into_iter()
        .filter(|d| CHURN_HOT.contains(&d.workload))
        .collect()
}

/// The churning keys of group `g` (0 warm, 1 and 2 cold).
fn churn_group(g: usize) -> Vec<JobDef> {
    CHURN_PROFILES
        .iter()
        .flat_map(|&workload| {
            CHURN_CONFIGS[2 * g..2 * g + 2]
                .iter()
                .map(move |&(window, segment, speedup)| JobDef {
                    workload,
                    scale: CHURN_SCALE,
                    window,
                    segment,
                    speedup,
                })
        })
        .collect()
}

/// Every job either serve workload submits.
pub fn all_jobs() -> Vec<JobDef> {
    let mut jobs = hit_jobs();
    jobs.extend((0..3).flat_map(churn_group));
    jobs
}

/// A job ready to submit.
struct Served {
    id: String,
    spec: JobSpec,
    expected: Expected,
}

fn pinned(def: &JobDef, expected: &BTreeMap<String, Expected>) -> Result<Expected, String> {
    expected
        .get(&def.id())
        .copied()
        .ok_or_else(|| format!("{} is not pinned in expected.txt", def.id()))
}

fn materialise(
    defs: &[JobDef],
    tracer: &mut Tracer,
    expected: &BTreeMap<String, Expected>,
) -> Result<Vec<Served>, String> {
    defs.iter()
        .map(|def| {
            let set = tracer.time("testdata.generate", 0, None, || def.test_set());
            Ok(Served {
                id: def.id(),
                spec: def.spec(&set),
                expected: pinned(def, expected)?,
            })
        })
        .collect()
}

/// Binds a loopback server on an OS-chosen port and connects the one
/// client. At least as many workers as hardware threads, so each job
/// gets one engine thread.
fn start(store_dir: Option<PathBuf>, cache_bytes: usize) -> Result<(ServerHandle, Client), String> {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let server = Server::bind(&ServeOptions {
        workers: hw.max(2),
        cache_bytes,
        store_dir,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    let client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok((handle, client))
}

/// Calls into layers below the client, repeated from outside on the
/// same inputs in traced runs only, so each layer's public API is timed
/// on the bytes the served job carried.
struct Shadow {
    codec: Codec,
    /// The server's store (read) and a second store (written), on
    /// `serve-churn` only.
    stores: Option<(ArtifactStore, ArtifactStore)>,
}

impl Shadow {
    fn new(client: &Client, stores: Option<(&Path, &Path)>) -> Result<Self, String> {
        let config = client
            .codec_config()
            .ok_or("the client negotiated no codec")?;
        let stores = match stores {
            Some((server, spare)) => Some((
                ArtifactStore::open(server).map_err(|e| e.to_string())?,
                ArtifactStore::open(spare).map_err(|e| e.to_string())?,
            )),
            None => None,
        };
        Ok(Shadow {
            codec: Codec::new(config),
            stores,
        })
    }

    /// Repeats the job's protocol, codec, cache-key and store calls in
    /// spans under `parent`; `false` when any of them fails.
    fn replay(
        &self,
        tracer: &mut Tracer,
        job: u64,
        parent: Option<SpanId>,
        spec: &JobSpec,
        report: JobReport,
    ) -> bool {
        let mut ok = true;
        let request = Request::Submit(spec.clone());
        let req = tracer.time("protocol", job, parent, || request.encode());
        ok &= tracer
            .time("protocol", job, parent, || Request::decode(&req))
            .is_ok();
        let reply = Response::Done(report);
        let rep = tracer.time("protocol", job, parent, || reply.encode());
        ok &= tracer
            .time("protocol", job, parent, || Response::decode(&rep))
            .is_ok();
        for message in [&req, &rep] {
            let frames = tracer.time("codec.encode", job, parent, || {
                self.codec.encode_frames(message)
            });
            let Ok(frames) = frames else { return false };
            let back = tracer.time("codec.decode", job, parent, || {
                self.codec.decode_frames(frames)
            });
            ok &= back.is_ok_and(|b| &b == message);
        }
        let key = tracer.time("cache.key", job, parent, || cache_key(spec));
        if let Some((server, spare)) = &self.stores {
            match report.tier {
                CacheTier::Cold => match server.get(key, Some(1)) {
                    Ok(Some(artifact)) => {
                        ok &= tracer
                            .time("store.put", job, parent, || spare.put(key, &artifact))
                            .is_ok();
                    }
                    _ => ok = false,
                },
                CacheTier::Disk => {
                    ok &= matches!(
                        tracer.time("store.get", job, parent, || server.get(key, Some(1))),
                        Ok(Some(_))
                    );
                }
                CacheTier::Memory => {}
            }
        }
        ok
    }
}

/// Replies and their checks, accumulated over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    latencies: crate::stats::Latencies,
    memory: u64,
    disk: u64,
    cold: u64,
    cold_seeds: u64,
    service_s: f64,
    observed: BTreeMap<String, Observed>,
}

impl Tally {
    /// Submits one job and checks its reply against the pinned result
    /// and the tier the stream was built to hit. Latency is recorded
    /// only for `measured` jobs.
    fn submit(
        &mut self,
        client: &mut Client,
        job: &Served,
        want: CacheTier,
        measured: bool,
        tracer: &mut Tracer,
        shadow: Option<&Shadow>,
    ) {
        let job_id = self.attempted;
        self.attempted += 1;
        let t = Instant::now();
        let span = tracer.begin("job", job_id, None);
        let reply = tracer.time("client.rtt", job_id, span, || client.run(&job.spec));
        let rtt = t.elapsed().as_secs_f64();
        let report = match reply {
            Ok((_, report)) => report,
            Err(e) => {
                tracer.end(span);
                eprintln!("{}: {e}", job.id);
                self.failed += 1;
                return;
            }
        };
        let replayed = shadow.is_none_or(|s| s.replay(tracer, job_id, span, &job.spec, report));
        tracer.end(span);
        let observed = Observed {
            seeds: report.seeds,
            tdv: report.tdv,
            tsl: report.tsl_proposed,
            digest: report.digest,
        };
        if !observed.matches(&job.expected) || report.tier != want || !replayed {
            eprintln!(
                "{}: reply differs (tier {:?}, wanted {want:?}; replay ok: {replayed})",
                job.id, report.tier
            );
            self.failed += 1;
        }
        self.observed.insert(job.id.clone(), observed);
        if measured {
            self.latencies
                .record(format!("{} {:?}", job.id, report.tier), rtt);
            self.service_s += report.service_micros as f64 * 1e-6;
            match report.tier {
                CacheTier::Memory => self.memory += 1,
                CacheTier::Disk => self.disk += 1,
                CacheTier::Cold => {
                    self.cold += 1;
                    self.cold_seeds += report.seeds;
                }
            }
        }
    }

    /// Sums of TSL and TDV over the distinct jobs answered, and whether
    /// they equal the sums `pinned` for the workload's jobs.
    fn exact_sums(&self, pinned: &[Expected]) -> (u64, u64, bool) {
        let tsl = self.observed.values().map(|o| o.tsl).sum();
        let tdv = self.observed.values().map(|o| o.tdv).sum();
        let ok = self.observed.len() == pinned.len()
            && tsl == pinned.iter().map(|e| e.tsl).sum::<u64>()
            && tdv == pinned.iter().map(|e| e.tdv).sum::<u64>();
        (tsl, tdv, ok)
    }
}

/// Server counters between two snapshots.
#[derive(Debug, Default, Clone, Copy)]
struct Delta {
    memory_hits: u64,
    disk_hits: u64,
    evictions: u64,
    store_writes: u64,
    store_bytes: u64,
    encode_calls: u64,
    encode_s: f64,
    synthesis_calls: u64,
    synthesis_s: f64,
    embed_s: f64,
    segment_s: f64,
    raw_bytes: u64,
    wire_bytes: u64,
}

impl Delta {
    fn between(a: &ServerStats, b: &ServerStats) -> Self {
        let us = |x: u64, y: u64| (y - x) as f64 * 1e-6;
        Delta {
            memory_hits: b.memory.hits - a.memory.hits,
            disk_hits: b.disk.hits - a.disk.hits,
            evictions: b.memory.evictions - a.memory.evictions,
            store_writes: b.store_writes - a.store_writes,
            store_bytes: b.disk.bytes.saturating_sub(a.disk.bytes),
            encode_calls: b.encode.count - a.encode.count,
            encode_s: us(a.encode.total_micros, b.encode.total_micros),
            synthesis_calls: b.synthesis.count - a.synthesis.count,
            synthesis_s: us(a.synthesis.total_micros, b.synthesis.total_micros),
            embed_s: us(a.embed.total_micros, b.embed.total_micros),
            segment_s: us(a.segment.total_micros, b.segment.total_micros),
            raw_bytes: (b.codec.raw_rx_bytes + b.codec.raw_tx_bytes)
                - (a.codec.raw_rx_bytes + a.codec.raw_tx_bytes),
            wire_bytes: (b.codec.wire_rx_bytes + b.codec.wire_tx_bytes)
                - (a.codec.wire_rx_bytes + a.codec.wire_tx_bytes),
        }
    }

    fn add(&mut self, o: &Delta) {
        self.memory_hits += o.memory_hits;
        self.disk_hits += o.disk_hits;
        self.evictions += o.evictions;
        self.store_writes += o.store_writes;
        self.store_bytes += o.store_bytes;
        self.encode_calls += o.encode_calls;
        self.encode_s += o.encode_s;
        self.synthesis_calls += o.synthesis_calls;
        self.synthesis_s += o.synthesis_s;
        self.embed_s += o.embed_s;
        self.segment_s += o.segment_s;
        self.raw_bytes += o.raw_bytes;
        self.wire_bytes += o.wire_bytes;
    }
}

/// Per-layer figures common to both serve workloads, per pass.
fn serve_layers(
    tracer: &Tracer,
    tally: &Tally,
    delta: &Delta,
    pinned: &[Expected],
    passes: u64,
    measured_s: f64,
) -> Layers {
    let per = |v: f64| v / passes as f64;
    Layers {
        encoder_calls: per(delta.encode_calls as f64),
        encoder_busy_s: per(delta.encode_s),
        encoder_share: delta.encode_s / measured_s,
        encoder_seeds: per(tally.cold_seeds as f64),
        encoder_seeds_per_s: if delta.encode_s > 0.0 {
            tally.cold_seeds as f64 / delta.encode_s
        } else {
            0.0
        },
        synthesis_calls: per(delta.synthesis_calls as f64),
        synthesis_busy_s: per(delta.synthesis_s),
        embedding_busy_s: per(delta.embed_s),
        mean_embeddings: pinned.iter().map(|e| e.embeddings).sum::<f64>() / pinned.len() as f64,
        segments_busy_s: per(delta.segment_s),
        useful: pinned.iter().map(|e| e.useful as f64).sum(),
        codec_encode_busy_s: per(tracer.busy("codec.encode")),
        codec_decode_busy_s: per(tracer.busy("codec.decode")),
        codec_raw_bytes: per(delta.raw_bytes as f64),
        codec_wire_bytes: per(delta.wire_bytes as f64),
        protocol_busy_s: per(tracer.busy("protocol")),
        protocol_messages: per(tracer.count("protocol") as f64 / 2.0),
        client_rtt_s: per(tracer.busy("client.rtt")),
        server_service_s: per(tally.service_s),
        cache_key_busy_s: per(tracer.busy("cache.key")),
        memory_hits: per(tally.memory as f64),
        disk_hits: per(tally.disk as f64),
        misses: per(tally.cold as f64),
        evictions: per(delta.evictions as f64),
        store_writes: per(delta.store_writes as f64),
        store_bytes: per(delta.store_bytes as f64),
        store_put_busy_s: per(tracer.busy("store.put")),
        store_get_busy_s: per(tracer.busy("store.get")),
        job_self_s: per(tracer.self_time("job")),
        ..Layers::default()
    }
}

/// Runs `serve-hit`.
///
/// # Errors
///
/// A set-up failure: a job missing from the expected values, or a
/// server that cannot bind or be reached.
pub fn run_hit(args: &Args, expected: &BTreeMap<String, Expected>) -> Result<RunResult, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let mut setup_secs = Vec::new();
    let mut setup_delta = Delta::default();
    let mut set_up = |tracer: &mut Tracer, tally: &mut Tally| {
        let t = Instant::now();
        let served = materialise(&hit_jobs(), tracer, expected)?;
        let (handle, mut client) = start(None, 256 << 20)?;
        let fresh = handle.stats();
        for job in &served {
            tally.submit(&mut client, job, CacheTier::Cold, false, tracer, None);
        }
        setup_secs.push(t.elapsed().as_secs_f64());
        setup_delta.add(&Delta::between(&fresh, &handle.stats()));
        Ok::<_, String>((handle, client, served))
    };
    let (handle, mut client, served) = set_up(&mut tracer, &mut tally)?;
    let shadow = if args.trace {
        Some(Shadow::new(&client, None)?)
    } else {
        None
    };

    let before = handle.stats();
    let mut rng = SplitMix64::new(args.seed);
    let order: Vec<usize> = (0..served.len()).collect();
    let mut passes = 0u64;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < args.seconds {
        for i in rng.shuffled(&order) {
            tally.submit(
                &mut client,
                &served[i],
                CacheTier::Memory,
                true,
                &mut tracer,
                shadow.as_ref(),
            );
        }
        passes += 1;
    }
    let measured = start.elapsed().as_secs_f64();
    let delta = Delta::between(&before, &handle.stats());
    drop(client);
    handle.shutdown();
    // the memory peak of one server's set-up and measured phase; the
    // further set-ups below only time set-up again
    let peak_rss_mb = crate::peak_rss_mb();
    for _ in 1..HIT_SETUPS {
        let (handle, client, _) = set_up(&mut tracer, &mut tally)?;
        drop(client);
        handle.shutdown();
    }

    let pinned: Vec<Expected> = served.iter().map(|j| j.expected).collect();
    let (tsl, tdv, sums_ok) = tally.exact_sums(&pinned);
    let measured_jobs = tally.latencies.len() as u64;
    let mut result = RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        // every measured reply is a memory hit: nothing encoded,
        // evicted or missed
        exact_ok: sums_ok
            && tally.memory == measured_jobs
            && delta.encode_calls == 0
            && delta.evictions == 0,
        ..RunResult::default()
    };
    if args.trace {
        let mut layers = serve_layers(&tracer, &tally, &delta, &pinned, passes, measured);
        layers.generate_s = tracer.busy("testdata.generate") / HIT_SETUPS as f64;
        layers.setup_encoder_s = setup_delta.encode_s / HIT_SETUPS as f64;
        layers.setup_synthesis_s = setup_delta.synthesis_s / HIT_SETUPS as f64;
        result.metrics = layers.metrics(&tracer, measured + setup_secs.iter().sum::<f64>());
        crate::write_spans(args, &tracer, &mut result.notes)?;
    } else {
        result.metrics = crate::end_to_end(
            &tally.latencies,
            measured,
            tsl,
            tdv,
            &setup_secs,
            peak_rss_mb,
            &mut result.notes,
        );
    }
    Ok(result)
}

/// The memory budget of `serve-churn`: room for the hot keys and one
/// churning key, never two — so each churning insert evicts exactly the
/// previous one and no hot key.
fn churn_budget(
    hot: &[JobDef],
    churn: &[JobDef],
    expected: &BTreeMap<String, Expected>,
) -> Result<usize, String> {
    let bytes = |defs: &[JobDef]| -> Result<Vec<u64>, String> {
        defs.iter()
            .map(|d| Ok(pinned(d, expected)?.bytes))
            .collect()
    };
    let hot_bytes: u64 = bytes(hot)?.iter().sum();
    let mut sizes = bytes(churn)?;
    sizes.sort_unstable();
    let largest = *sizes.last().ok_or("no churning keys")?;
    let smallest_pair = sizes[0] + sizes[1];
    if largest >= smallest_pair {
        return Err(format!(
            "churning keys differ too much in size ({largest} B vs pair {smallest_pair} B)"
        ));
    }
    Ok((hot_bytes + (largest + smallest_pair) / 2) as usize)
}

/// Runs `serve-churn`.
///
/// Each pass is a fresh server over a fresh store. Set-up warms the hot
/// keys and four churning keys; then eight rounds each touch the hot
/// keys, submit a never-seen key (cold encode, store write, one
/// eviction), touch the hot keys again, and re-visit an evicted key
/// (disk read, verify, promote, one eviction). The seed orders every
/// group; what each request hits does not depend on it.
///
/// # Errors
///
/// A set-up failure: a job missing from the expected values, a budget
/// the pinned sizes cannot satisfy, or a server that cannot start.
pub fn run_churn(args: &Args, expected: &BTreeMap<String, Expected>) -> Result<RunResult, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let mut rng = SplitMix64::new(args.seed);
    let mut setup_secs = Vec::new();
    let mut delta = Delta::default();
    let mut setup_delta = Delta::default();
    let mut exact_ok = true;
    let mut measured = 0.0;
    let mut passes = 0u64;
    let hot_defs = churn_hot();
    let group_defs: Vec<Vec<JobDef>> = (0..3).map(churn_group).collect();
    let budget = churn_budget(&hot_defs, &group_defs.concat(), expected)?;
    let pinned: Vec<Expected> = hot_defs
        .iter()
        .chain(group_defs.iter().flatten())
        .map(|d| pinned(d, expected))
        .collect::<Result<_, _>>()?;
    let root = crate::out_dir();
    while passes == 0 || measured < args.seconds.as_secs_f64() {
        let dir = root.join(format!("churn-{}-{passes}", std::process::id()));
        let spare = root.join(format!("churn-{}-{passes}-shadow", std::process::id()));
        for d in [&dir, &spare] {
            if d.exists() {
                fs::remove_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
            }
        }

        let t = Instant::now();
        let hot = materialise(&hot_defs, &mut tracer, expected)?;
        let groups: Vec<Vec<Served>> = group_defs
            .iter()
            .map(|defs| materialise(defs, &mut tracer, expected))
            .collect::<Result<_, _>>()?;
        let (handle, mut client) = start(Some(dir.clone()), budget)?;
        let fresh = handle.stats();
        let hot_order: Vec<usize> = (0..hot.len()).collect();
        for job in &hot {
            tally.submit(&mut client, job, CacheTier::Cold, false, &mut tracer, None);
        }
        for (i, job) in groups[0].iter().enumerate() {
            if i > 0 {
                for h in rng.shuffled(&hot_order) {
                    tally.submit(
                        &mut client,
                        &hot[h],
                        CacheTier::Memory,
                        false,
                        &mut tracer,
                        None,
                    );
                }
            }
            tally.submit(&mut client, job, CacheTier::Cold, false, &mut tracer, None);
        }
        setup_secs.push(t.elapsed().as_secs_f64());
        let before = handle.stats();
        setup_delta.add(&Delta::between(&fresh, &before));

        let shadow = if args.trace {
            Some(Shadow::new(&client, Some((&dir, &spare)))?)
        } else {
            None
        };
        let cold_a = rng.shuffled(&(0..groups[1].len()).collect::<Vec<_>>());
        let cold_b = rng.shuffled(&(0..groups[2].len()).collect::<Vec<_>>());
        let revisit_warm = rng.shuffled(&(0..groups[0].len()).collect::<Vec<_>>());
        let revisit_a = rng.shuffled(&cold_a);
        let start = Instant::now();
        for round in 0..CHURN_ROUNDS {
            let half = CHURN_ROUNDS / 2;
            let (fresh, again) = if round < half {
                (&groups[1][cold_a[round]], &groups[0][revisit_warm[round]])
            } else {
                (
                    &groups[2][cold_b[round - half]],
                    &groups[1][revisit_a[round - half]],
                )
            };
            for (job, tier) in [(fresh, CacheTier::Cold), (again, CacheTier::Disk)] {
                for h in rng.shuffled(&hot_order) {
                    tally.submit(
                        &mut client,
                        &hot[h],
                        CacheTier::Memory,
                        true,
                        &mut tracer,
                        shadow.as_ref(),
                    );
                }
                tally.submit(&mut client, job, tier, true, &mut tracer, shadow.as_ref());
            }
        }
        measured += start.elapsed().as_secs_f64();
        let pass = Delta::between(&before, &handle.stats());
        let rounds = CHURN_ROUNDS as u64;
        exact_ok &= pass.memory_hits == 2 * rounds * hot.len() as u64
            && pass.disk_hits == rounds
            && pass.encode_calls == rounds
            && pass.store_writes == rounds
            && pass.evictions == 2 * rounds;
        delta.add(&pass);
        drop(client);
        handle.shutdown();
        for d in [&dir, &spare] {
            if d.exists() {
                fs::remove_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
            }
        }
        passes += 1;
    }

    let (tsl, tdv, sums_ok) = tally.exact_sums(&pinned);
    let mut result = RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        exact_ok: exact_ok && sums_ok,
        ..RunResult::default()
    };
    if args.trace {
        let mut layers = serve_layers(&tracer, &tally, &delta, &pinned, passes, measured);
        layers.generate_s = tracer.busy("testdata.generate") / passes as f64;
        layers.setup_encoder_s = setup_delta.encode_s / passes as f64;
        layers.setup_synthesis_s = setup_delta.synthesis_s / passes as f64;
        result.metrics = layers.metrics(&tracer, measured + setup_secs.iter().sum::<f64>());
        crate::write_spans(args, &tracer, &mut result.notes)?;
    } else {
        result.metrics = crate::end_to_end(
            &tally.latencies,
            measured,
            tsl,
            tdv,
            &setup_secs,
            crate::peak_rss_mb(),
            &mut result.notes,
        );
    }
    Ok(result)
}
