//! `server_stress`: the loopback serving benchmark — cold vs
//! warm-disk vs warm-memory latency per registry workload, and
//! throughput as concurrent clients fan over the corpus at several
//! worker-pool widths.
//!
//! Two measurements, both against a real `ss-server` over loopback
//! TCP at the golden-conformance knobs (`L=24, S=4, k=6`):
//!
//! * **cold vs warm-disk vs warm-memory** — every registry workload is
//!   submitted cold against a store-backed server (miss everywhere:
//!   synthesis + encode + embed + segment, then written through to the
//!   artifact store); the server is then *restarted* on the same store
//!   directory and the workload resubmitted, so the first answer comes
//!   from the persistent tier (disk read + table rebuild + embed +
//!   segment to verify the stored digest); repeats on the live server
//!   hit the in-memory LRU, a lookup that answers from the slot's
//!   report summary and runs no pipeline stage. Each tier is timed on
//!   the client's clock around its submission, which is what a client
//!   waits for (a memory hit's whole-microsecond `service_micros` reads
//!   0). The bench *asserts* each warm tier is flagged, digests are
//!   equal to the cold run, and both warm tiers are strictly faster
//!   than cold on every workload.
//! * **throughput vs workers** — N concurrent clients each stream the
//!   whole corpus through one server; wall-clock jobs/sec is recorded
//!   per worker-pool width. Every job must come back `Done` with the
//!   digest its workload produced cold — the server may never drop or
//!   corrupt a job under concurrent load.
//! * **fleet vs shard count** — the same balanced workload runs
//!   against 1, 2 and 4 shards whose *per-shard* cache is sized below
//!   the workload's measured working set. Sharding's scaling axis here
//!   is aggregate cache capacity (the artifacts are pure functions of
//!   their content key, so each key lives on exactly one owner): a
//!   single shard thrashes its LRU and re-pays cold synthesis, while
//!   the 4-shard fleet holds the whole working set and answers from
//!   warm memory. On a multi-core host the fleet also scales compute;
//!   the capacity effect makes the row meaningful even on one core.
//! * **replicated failover** — a 3-shard fleet with replication
//!   factor 2 is warmed, one shard is killed, and the full key
//!   population is timed against the degraded fleet. Asserted: every
//!   answer stays bit-identical and costs zero cold re-synthesis
//!   (failover lands on warm replicas), with the healthy:degraded
//!   wall-clock ratio recorded as the price of the death.
//! * **trace overhead** — the warm-memory corpus is timed against one
//!   server with per-job tracing (the default, every job stamps a
//!   trace id and the server records spans into its ring) and with
//!   the client's tracing disabled (trace id 0, the server's span path
//!   short-circuits before taking any lock), in `TRACE_ROUNDS`
//!   interleaved pairs of passes; the bench *asserts* the traced
//!   median stays within 5% of the untraced one.
//!
//! CI's `test` job runs this bench (`cargo bench -p ss-bench --bench
//! server_stress`) on every push and pull request, so a failed assert
//! fails that step. Results land in `BENCH_server.json` at the
//! workspace root, next to `BENCH_packed.json` and `BENCH_encode.json`.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ss_core::{Engine, Table};
use ss_server::{
    Balancer, CacheTier, Client, CodecCounters, JobReport, JobSpec, RetryPolicy, ServeOptions,
    Server, ServerHandle, ShardSpec,
};
use ss_telemetry::json::Json;
use ss_testdata::{generate_test_set, CubeProfile, Workload, WorkloadRegistry};

const WINDOW: usize = 24;
const SEGMENT: usize = 4;
const SPEEDUP: u64 = 6;
const CACHED_REPEATS: usize = 3;
const CLIENTS: usize = 8;
const WORKER_SWEEP: [usize; 3] = [1, 2, 4];
/// Profile workloads run at the golden scale in the throughput fan-out
/// so one round of the corpus is milliseconds, not minutes.
const THROUGHPUT_PROFILE_SCALE: f64 = 0.1;

/// Fleet sweep: shard counts, key population, balanced clients, and
/// the per-shard cache as a fraction of the measured working set —
/// under 1.0 so one shard cannot hold the workload, while at 4 shards
/// even a lopsided rendezvous spread (the ring hashes ephemeral-port
/// addresses, so the split varies run to run) leaves every owner's
/// slice of the 32 keys inside its budget.
const FLEET_SWEEP: [usize; 3] = [1, 2, 4];
const FLEET_KEYS: u64 = 32;
const FLEET_CLIENTS: usize = 4;
const FLEET_DRAWS: usize = 48;
const FLEET_CACHE_FRACTION: f64 = 0.5;
/// Cube-count scale on the s9234 profile for fleet keys. The profile
/// choice shapes the cold:warm cost gap the capacity-scaling
/// assertion depends on: a miss re-pays synthesis + encode over the
/// full 247-cell scan geometry, while a hit re-pays only the cheap
/// stages, which scale with the (deliberately small) cube count.
const FLEET_PROFILE_SCALE: f64 = 0.1;

/// The spec a registry workload submits: profiles at `scale` with
/// their paper LFSR size, file workloads full size with the default
/// (smax-derived) LFSR — the same shapes the golden corpus pins.
fn spec_for(w: &Workload, scale: f64) -> JobSpec {
    let set = if w.profile().is_some() {
        w.test_set_scaled(scale)
    } else {
        w.test_set()
    };
    let mut builder = Engine::builder()
        .window(WINDOW)
        .segment(SEGMENT)
        .speedup(SPEEDUP);
    if let Some(profile) = w.profile() {
        builder = builder.lfsr_size(profile.lfsr_size);
    }
    let engine = builder.build().expect("bench knobs are valid");
    JobSpec::new(&set, engine.config())
}

/// Mid-exchange disconnects survived via the typed retryable error
/// (`ClientError::Disconnected`) — reported in `BENCH_server.json` so
/// a flaky loopback shows up in the record instead of a flaky bench.
static DISCONNECT_RETRIES: AtomicU64 = AtomicU64::new(0);

/// Runs a job, transparently reconnecting on a retryable mid-exchange
/// disconnect and counting the event. Submissions are idempotent under
/// the content-addressed cache, so a retry costs at most a cache hit.
fn run_resilient(client: &mut Client, addr: SocketAddr, spec: &JobSpec) -> (u64, JobReport) {
    for _ in 0..3 {
        match client.run(spec) {
            Ok(done) => return done,
            Err(err) if err.is_retryable() => {
                DISCONNECT_RETRIES.fetch_add(1, Ordering::Relaxed);
                *client = Client::connect(addr).expect("reconnect after disconnect");
            }
            Err(err) => panic!("job failed: {err}"),
        }
    }
    panic!("job still disconnecting after 3 attempts");
}

struct LatencyRow {
    name: String,
    cubes: u64,
    cold_s: f64,
    warm_disk_s: f64,
    warm_mem_s: f64,
}

impl LatencyRow {
    fn disk_speedup(&self) -> f64 {
        self.cold_s / self.warm_disk_s
    }

    fn mem_speedup(&self) -> f64 {
        self.cold_s / self.warm_mem_s
    }
}

fn serve_with_store(dir: &std::path::Path) -> ServerHandle {
    Server::bind(&ServeOptions {
        store_dir: Some(dir.to_path_buf()),
        ..ServeOptions::default()
    })
    .expect("bind loopback with store dir")
    .spawn()
}

/// `run_resilient` and the seconds the client waited for it.
fn timed_run(client: &mut Client, addr: SocketAddr, spec: &JobSpec) -> (JobReport, f64) {
    let start = Instant::now();
    let (_, report) = run_resilient(client, addr, spec);
    (report, start.elapsed().as_secs_f64())
}

/// Three-tier latency pass. Generation 1 runs every workload cold and
/// writes the artifacts through to a fresh store directory. Each of
/// `CACHED_REPEATS` further generations restarts the server on that
/// directory and submits every workload once — the first answer per
/// workload per generation comes from the persistent tier (best time
/// kept). The last generation then resubmits each workload
/// `CACHED_REPEATS` times against the live server for the in-memory
/// tier (best time kept).
fn measure_latency() -> Vec<LatencyRow> {
    let dir = std::env::temp_dir().join(format!("ss-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // generation 1: cold + write-through
    let handle = serve_with_store(&dir);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut rows = Vec::new();
    let mut digests = HashMap::new();
    for w in WorkloadRegistry::all() {
        let spec = spec_for(w, ss_bench::scale());
        let (cold, cold_s) = timed_run(&mut client, handle.addr(), &spec);
        assert_eq!(
            cold.tier,
            CacheTier::Cold,
            "{}: first submission hit a cache",
            w.name
        );
        digests.insert(w.name.to_string(), cold.digest);
        rows.push(LatencyRow {
            name: w.name.to_string(),
            cubes: cold.cubes,
            cold_s,
            warm_disk_s: f64::MAX,
            warm_mem_s: f64::MAX,
        });
    }
    handle.shutdown();

    // generations 2..: restart on the populated store; first answer
    // per workload is the disk tier
    for round in 0..CACHED_REPEATS {
        let handle = serve_with_store(&dir);
        let mut client = Client::connect(handle.addr()).expect("reconnect");
        for row in &mut rows {
            let w = WorkloadRegistry::find(&row.name).expect("registry entry");
            let spec = spec_for(w, ss_bench::scale());
            let (warm, warm_s) = timed_run(&mut client, handle.addr(), &spec);
            assert_eq!(
                warm.tier,
                CacheTier::Disk,
                "{}: restart submission missed the persistent tier",
                row.name
            );
            assert_eq!(
                warm.digest, digests[&row.name],
                "{}: disk result diverged from cold",
                row.name
            );
            row.warm_disk_s = row.warm_disk_s.min(warm_s);
        }
        // last generation: repeats on the live server hit the LRU
        if round == CACHED_REPEATS - 1 {
            for row in &mut rows {
                let w = WorkloadRegistry::find(&row.name).expect("registry entry");
                let spec = spec_for(w, ss_bench::scale());
                for _ in 0..CACHED_REPEATS {
                    let (warm, warm_s) = timed_run(&mut client, handle.addr(), &spec);
                    assert_eq!(
                        warm.tier,
                        CacheTier::Memory,
                        "{}: repeat submission missed the memory tier",
                        row.name
                    );
                    assert_eq!(
                        warm.digest, digests[&row.name],
                        "{}: memory result diverged from cold",
                        row.name
                    );
                    row.warm_mem_s = row.warm_mem_s.min(warm_s);
                }
            }
        }
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
    rows
}

struct ThroughputRow {
    workers: usize,
    jobs: usize,
    wall_s: f64,
    /// Codec telemetry of the server after the fan-out: reply
    /// compression ratio and integrity rejects (expected 0 here — the
    /// loopback injects no noise; tests/noise_injection.rs does).
    codec: CodecCounters,
}

impl ThroughputRow {
    fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }
}

/// Fan-out pass: `CLIENTS` threads each submit the whole corpus
/// against a fresh server with `workers` workers; every result is
/// checked against the workload's cold digest.
fn measure_throughput(workers: usize) -> ThroughputRow {
    let handle = Server::bind(&ServeOptions {
        workers,
        ..ServeOptions::default()
    })
    .expect("bind loopback")
    .spawn();
    let specs: Vec<(String, JobSpec)> = WorkloadRegistry::all()
        .iter()
        .map(|w| (w.name.to_string(), spec_for(w, THROUGHPUT_PROFILE_SCALE)))
        .collect();
    let digests: Mutex<HashMap<String, u64>> = Mutex::new(HashMap::new());

    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let specs = &specs;
            let digests = &digests;
            let addr = handle.addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // stagger start positions so clients collide on the
                // cache from different directions
                for i in 0..specs.len() {
                    let (name, spec) = &specs[(i + c) % specs.len()];
                    let (_, report) = run_resilient(&mut client, addr, spec);
                    let mut digests = digests.lock().expect("digest map");
                    let seen = digests.entry(name.clone()).or_insert(report.digest);
                    assert_eq!(
                        *seen, report.digest,
                        "{name}: concurrent submissions disagreed"
                    );
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();

    let jobs = CLIENTS * specs.len();
    let stats = handle.stats();
    assert_eq!(
        stats.jobs_done, jobs as u64,
        "server dropped jobs under concurrent load"
    );
    assert_eq!(
        stats.codec.connections, CLIENTS as u64,
        "every fan-out client opens with one Hello"
    );
    assert_eq!(
        stats.codec.crc_rejects, 0,
        "a clean loopback produced CRC rejects"
    );
    handle.shutdown();
    ThroughputRow {
        workers,
        jobs,
        wall_s,
        codec: stats.codec,
    }
}

/// Interleaved pairs of trace-overhead passes. A pass of warm-memory
/// hits takes tens of milliseconds, and on a shared host the spread of
/// one mode's passes is wider than the 5% bound; the median of many
/// passes, each untraced one next to a traced one, is not.
const TRACE_ROUNDS: usize = 15;
/// Corpus repeats per timed trace-overhead pass.
const TRACE_REPEATS: usize = 3;
/// The bench's contract: traced warm-memory throughput must stay
/// within this factor of untraced.
const TRACE_OVERHEAD_BOUND: f64 = 1.05;

struct TraceOverheadRow {
    jobs: usize,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    spans_recorded: u64,
    spans_evicted: u64,
}

impl TraceOverheadRow {
    fn traced_jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.traced_wall_s
    }

    fn untraced_jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.untraced_wall_s
    }

    /// Traced:untraced wall-clock ratio — 1.00 is free, 1.05 the bound.
    fn overhead(&self) -> f64 {
        self.traced_wall_s / self.untraced_wall_s
    }
}

/// Times the warm-memory corpus with tracing on (the default: every
/// job carries a trace id, the server records spans) against the same
/// corpus with the client's tracing off (trace id 0 on the wire, the
/// server's span path no-ops). `TRACE_ROUNDS` interleaved pairs of
/// passes on one live server, so both modes see identical cache state
/// and the same drift of the host; each mode's time is its median.
fn measure_trace_overhead() -> TraceOverheadRow {
    let handle = Server::bind(&ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("bind loopback")
    .spawn();
    let addr = handle.addr();
    let specs: Vec<JobSpec> = WorkloadRegistry::all()
        .iter()
        .map(|w| spec_for(w, THROUGHPUT_PROFILE_SCALE))
        .collect();

    // warm every key into the memory tier, and pin the digests both
    // timed modes must reproduce
    let mut warmer = Client::connect(addr).expect("connect warm-up");
    let digests: Vec<u64> = specs
        .iter()
        .map(|spec| run_resilient(&mut warmer, addr, spec).1.digest)
        .collect();

    let mut traced = Client::connect(addr).expect("connect traced");
    traced.set_tracing(true);
    let mut untraced = Client::connect(addr).expect("connect untraced");
    untraced.set_tracing(false);

    let jobs = specs.len() * TRACE_REPEATS;
    let pass = |client: &mut Client, want_trace: bool| -> f64 {
        let start = Instant::now();
        for _ in 0..TRACE_REPEATS {
            for (spec, digest) in specs.iter().zip(&digests) {
                let (_, report) = run_resilient(client, addr, spec);
                assert_eq!(
                    report.tier,
                    CacheTier::Memory,
                    "overhead pass missed memory"
                );
                assert_eq!(report.digest, *digest, "overhead pass diverged");
                assert_eq!(
                    report.trace != 0,
                    want_trace,
                    "job traced={} but the mode wants traced={}",
                    report.trace != 0,
                    want_trace
                );
            }
        }
        start.elapsed().as_secs_f64()
    };

    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_ROUNDS {
        untraced_walls.push(pass(&mut untraced, false));
        traced_walls.push(pass(&mut traced, true));
    }
    let median = |walls: &mut Vec<f64>| {
        walls.sort_by(f64::total_cmp);
        walls[walls.len() / 2]
    };
    let (traced_wall_s, untraced_wall_s) = (median(&mut traced_walls), median(&mut untraced_walls));

    let stats = handle.stats();
    assert!(
        stats.spans_recorded > 0,
        "the traced passes never recorded a span"
    );
    handle.shutdown();
    TraceOverheadRow {
        jobs,
        traced_wall_s,
        untraced_wall_s,
        spans_recorded: stats.spans_recorded,
        spans_evicted: stats.spans_evicted,
    }
}

/// One key of the fleet workload: a deterministic cube set drawn from
/// the scaled s9234 profile, so its artifacts are a pure function of
/// the seed.
fn fleet_spec(seed: u64) -> JobSpec {
    let set = generate_test_set(&CubeProfile::s9234().scaled(FLEET_PROFILE_SCALE), seed);
    let engine = Engine::builder()
        .window(WINDOW)
        .segment(SEGMENT)
        .speedup(SPEEDUP)
        .build()
        .expect("engine knobs");
    JobSpec::new(&set, engine.config())
}

struct FleetRow {
    shards: usize,
    cache_bytes: usize,
    jobs: usize,
    wall_s: f64,
    /// Cold syntheses summed across the whole fleet — equals
    /// `FLEET_KEYS` exactly when the aggregate cache holds the
    /// working set (exactly-once cluster-wide), larger when a shard
    /// thrashes its LRU and re-pays cold compute.
    synthesis: u64,
    mem_hits: u64,
    mem_misses: u64,
    redirects: u64,
    failovers: u64,
}

impl FleetRow {
    fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }

    fn hit_rate(&self) -> f64 {
        self.mem_hits as f64 / (self.mem_hits + self.mem_misses).max(1) as f64
    }
}

/// Phase 0 of the fleet sweep: run every fleet key cold against a
/// throwaway single server with an ample cache, recording the golden
/// digests and the exact bytes the corpus occupies in the memory
/// tier. The sweep then sizes each shard's cache as a fraction of
/// that working set, so the scaling claim tracks the workload instead
/// of hard-coded byte counts.
fn fleet_working_set() -> (Vec<JobSpec>, Vec<u64>, u64) {
    let handle = Server::bind(&ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("bind working-set probe")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect probe");
    let specs: Vec<JobSpec> = (1..=FLEET_KEYS).map(fleet_spec).collect();
    let mut digests = Vec::with_capacity(specs.len());
    for spec in &specs {
        let (_, report) = run_resilient(&mut client, handle.addr(), spec);
        assert_eq!(report.tier, CacheTier::Cold, "fleet keys must be distinct");
        digests.push(report.digest);
    }
    let stats = handle.stats();
    assert_eq!(
        stats.memory.evictions, 0,
        "probe cache too small to measure the working set"
    );
    let working_set = stats.memory.bytes;
    handle.shutdown();
    (specs, digests, working_set)
}

/// Binds `shards` servers on ephemeral ports, one worker,
/// `cache_bytes` of memory tier and replication factor `replicas`
/// each, then wires the full peer list into every one before
/// spawning.
fn spawn_fleet(
    shards: usize,
    cache_bytes: usize,
    replicas: usize,
) -> (Vec<String>, Vec<ServerHandle>) {
    let servers: Vec<Server> = (0..shards)
        .map(|_| {
            Server::bind(&ServeOptions {
                workers: 1,
                cache_bytes,
                queue_depth: 16,
                replicas,
                ..ServeOptions::default()
            })
            .expect("bind shard")
        })
        .collect();
    let peers: Vec<String> = servers
        .iter()
        .map(|s| s.local_addr().expect("shard addr").to_string())
        .collect();
    let handles = servers
        .into_iter()
        .enumerate()
        .map(|(id, mut server)| {
            server
                .set_shards(ShardSpec {
                    peers: peers.clone(),
                    id,
                    epoch: 0,
                })
                .expect("shard spec");
            server.spawn()
        })
        .collect();
    (peers, handles)
}

/// One fleet row: an untimed warm-up pass seeds every owner's cache
/// as far as its budget allows, then `FLEET_CLIENTS` balancer clients
/// each draw `FLEET_DRAWS` keys uniformly (seeded xorshift, so every
/// sweep point replays the identical request stream) and every answer
/// is checked against its golden digest.
fn measure_fleet(
    shards: usize,
    cache_bytes: usize,
    specs: &[JobSpec],
    digests: &[u64],
) -> FleetRow {
    // replication off: this sweep deliberately under-provisions each
    // shard's cache to measure capacity scaling, and replica copies
    // would both consume that budget and blur the exactly-once
    // synthesis arithmetic; the replicated row is measured separately
    let (peers, handles) = spawn_fleet(shards, cache_bytes, 1);

    let mut warm = Balancer::new(peers.clone())
        .expect("warm-up balancer")
        .with_policy(RetryPolicy::seeded(7));
    let failovers = AtomicU64::new(0);
    for (spec, digest) in specs.iter().zip(digests) {
        let run = warm.run(spec).expect("warm-up job");
        assert_eq!(run.report.digest, *digest, "fleet warm-up diverged");
        failovers.fetch_add(u64::from(run.failovers), Ordering::Relaxed);
    }
    drop(warm);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..FLEET_CLIENTS {
            let peers = peers.clone();
            let failovers = &failovers;
            scope.spawn(move || {
                let mut balancer = Balancer::new(peers)
                    .expect("client balancer")
                    .with_policy(RetryPolicy::seeded(100 + c as u64));
                // per-client xorshift64 over the key space
                let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1);
                for _ in 0..FLEET_DRAWS {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let i = (state % FLEET_KEYS) as usize;
                    let run = balancer.run(&specs[i]).expect("fleet job");
                    assert_eq!(run.report.digest, digests[i], "fleet answer diverged");
                    failovers.fetch_add(u64::from(run.failovers), Ordering::Relaxed);
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut row = FleetRow {
        shards,
        cache_bytes,
        jobs: FLEET_CLIENTS * FLEET_DRAWS,
        wall_s,
        synthesis: 0,
        mem_hits: 0,
        mem_misses: 0,
        redirects: 0,
        failovers: failovers.into_inner(),
    };
    for handle in handles {
        let stats = handle.stats();
        assert_eq!(stats.shard_count as usize, shards);
        row.synthesis += stats.synthesis.count;
        row.mem_hits += stats.memory.hits;
        row.mem_misses += stats.memory.misses;
        row.redirects += stats.redirects;
        handle.shutdown();
    }
    assert_eq!(
        row.failovers, 0,
        "a healthy fleet must route without failovers"
    );
    assert_eq!(
        row.redirects, 0,
        "the balancer must route every key to its owner first try"
    );
    row
}

struct FailoverRow {
    shards: usize,
    replicas: usize,
    jobs: usize,
    healthy_wall_s: f64,
    degraded_wall_s: f64,
    replicas_pushed: u64,
    failovers: u64,
}

/// The self-healing row: a 3-shard fleet with replication factor 2 is
/// warmed over the whole key population, write-behind replication is
/// allowed to settle, one shard is killed, and the full key population
/// is timed again against the degraded fleet. The contract asserted
/// here is the one `tests/fleet_chaos.rs` pins functionally: every
/// degraded answer is bit-identical and costs **zero** cold
/// re-synthesis, because failover lands on a warm replica.
fn measure_replicated_failover(specs: &[JobSpec], digests: &[u64]) -> FailoverRow {
    const REPLICAS: usize = 2;
    let shards = 3;
    // ample cache: this row measures failover latency, not capacity
    let (peers, mut handles) = spawn_fleet(shards, 64 << 20, REPLICAS);

    let mut balancer = Balancer::new(peers)
        .expect("failover balancer")
        .with_policy(RetryPolicy::seeded(17));
    // untimed warm-up: every key cold on its owner
    for (spec, digest) in specs.iter().zip(digests) {
        let run = balancer.run(spec).expect("failover warm-up");
        assert_eq!(run.report.digest, *digest, "failover warm-up diverged");
    }

    // healthy reference pass, timed
    let start = Instant::now();
    for (spec, digest) in specs.iter().zip(digests) {
        let run = balancer.run(spec).expect("healthy pass");
        assert_eq!(run.report.digest, *digest, "healthy answer diverged");
    }
    let healthy_wall_s = start.elapsed().as_secs_f64();

    // write-behind replication settles: R=2 on 3 shards puts exactly
    // one replica copy of every key somewhere in the fleet
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    let received = loop {
        let received: u64 = handles.iter().map(|h| h.stats().replicas_received).sum();
        if received >= specs.len() as u64 {
            break received;
        }
        assert!(Instant::now() < deadline, "replication never settled");
        std::thread::sleep(std::time::Duration::from_millis(25));
    };

    let survivor_synthesis: u64 = handles[1..].iter().map(|h| h.stats().synthesis.count).sum();
    handles.remove(0).shutdown();

    // degraded pass, timed: the balancer discovers the death, marks
    // the shard down and drains onto the replicas
    let start = Instant::now();
    let mut failovers = 0u64;
    for (spec, digest) in specs.iter().zip(digests) {
        let run = balancer.run(spec).expect("degraded pass");
        assert_eq!(run.report.digest, *digest, "degraded answer diverged");
        failovers += u64::from(run.failovers);
    }
    let degraded_wall_s = start.elapsed().as_secs_f64();

    assert!(failovers > 0, "killing a shard produced no failovers");
    let after: u64 = handles.iter().map(|h| h.stats().synthesis.count).sum();
    assert_eq!(
        after, survivor_synthesis,
        "degraded fleet re-synthesized a replicated key"
    );
    for handle in handles {
        handle.shutdown();
    }
    FailoverRow {
        shards,
        replicas: REPLICAS,
        jobs: specs.len(),
        healthy_wall_s,
        degraded_wall_s,
        replicas_pushed: received,
        failovers,
    }
}

fn write_json(
    latency: &[LatencyRow],
    throughput: &[ThroughputRow],
    fleet: &[FleetRow],
    failover: &FailoverRow,
    trace: &TraceOverheadRow,
) {
    let workloads = latency
        .iter()
        .map(|row| {
            Json::object([
                ("name", Json::from(row.name.as_str())),
                ("cubes", row.cubes.into()),
                ("cold_s", Json::exp(row.cold_s, 6)),
                ("warm_disk_s", Json::exp(row.warm_disk_s, 6)),
                ("warm_mem_s", Json::exp(row.warm_mem_s, 6)),
                ("disk_speedup", Json::fixed(row.disk_speedup(), 2)),
                ("mem_speedup", Json::fixed(row.mem_speedup(), 2)),
            ])
        })
        .collect();
    let fanout = throughput
        .iter()
        .map(|row| {
            Json::object([
                ("workers", row.workers.into()),
                ("clients", CLIENTS.into()),
                ("jobs", row.jobs.into()),
                ("wall_s", Json::exp(row.wall_s, 6)),
                ("jobs_per_s", Json::fixed(row.jobs_per_s(), 1)),
                ("frames_sent", row.codec.frames_sent.into()),
                ("frames_received", row.codec.frames_received.into()),
                ("tx_compression_ratio", Json::fixed(row.codec.tx_ratio(), 2)),
                ("tx_bytes_saved", row.codec.tx_bytes_saved().into()),
                ("crc_rejects", row.codec.crc_rejects.into()),
            ])
        })
        .collect();
    let single = fleet.first().map_or(0.0, FleetRow::jobs_per_s);
    let fleet_rows = fleet
        .iter()
        .map(|row| {
            let speedup = row.jobs_per_s() / single;
            Json::object([
                ("shards", row.shards.into()),
                ("clients", FLEET_CLIENTS.into()),
                ("keys", FLEET_KEYS.into()),
                ("cache_bytes_per_shard", row.cache_bytes.into()),
                ("jobs", row.jobs.into()),
                ("wall_s", Json::exp(row.wall_s, 6)),
                ("jobs_per_s", Json::fixed(row.jobs_per_s(), 1)),
                ("speedup_vs_single", Json::fixed(speedup, 2)),
                ("synthesis_runs", row.synthesis.into()),
                ("mem_hit_rate", Json::fixed(row.hit_rate(), 3)),
                ("redirects", row.redirects.into()),
                ("failovers", row.failovers.into()),
            ])
        })
        .collect();
    let slowdown = failover.degraded_wall_s / failover.healthy_wall_s;
    let failover_row = Json::object([
        ("shards", failover.shards.into()),
        ("replicas", failover.replicas.into()),
        ("jobs", failover.jobs.into()),
        ("healthy_wall_s", Json::exp(failover.healthy_wall_s, 6)),
        ("degraded_wall_s", Json::exp(failover.degraded_wall_s, 6)),
        ("degraded_slowdown", Json::fixed(slowdown, 2)),
        ("replicas_pushed", failover.replicas_pushed.into()),
        ("failovers", failover.failovers.into()),
        ("resyntheses", 0u64.into()),
    ]);
    let (traced, untraced) = (trace.traced_jobs_per_s(), trace.untraced_jobs_per_s());
    let trace_row = Json::object([
        ("jobs", trace.jobs.into()),
        ("rounds", TRACE_ROUNDS.into()),
        ("statistic", "median".into()),
        ("traced_wall_s", Json::exp(trace.traced_wall_s, 6)),
        ("untraced_wall_s", Json::exp(trace.untraced_wall_s, 6)),
        ("traced_jobs_per_s", Json::fixed(traced, 1)),
        ("untraced_jobs_per_s", Json::fixed(untraced, 1)),
        ("overhead_ratio", Json::fixed(trace.overhead(), 4)),
        ("bound", Json::fixed(TRACE_OVERHEAD_BOUND, 2)),
        ("spans_recorded", trace.spans_recorded.into()),
        ("spans_evicted", trace.spans_evicted.into()),
    ]);
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let engine = Json::String(format!("L={WINDOW} S={SEGMENT} k={SPEEDUP}"));
    let retries = DISCONNECT_RETRIES.load(Ordering::Relaxed);
    ss_bench::write_bench_json(
        "server",
        "server_stress",
        vec![
            ("engine", engine),
            ("ss_scale", ss_bench::scale().into()),
            ("throughput_profile_scale", THROUGHPUT_PROFILE_SCALE.into()),
            ("fleet_cache_fraction", FLEET_CACHE_FRACTION.into()),
            ("available_parallelism", parallelism.into()),
            ("disconnect_retries", retries.into()),
            ("workloads", Json::Array(workloads)),
            ("throughput", Json::Array(fanout)),
            ("fleet", Json::Array(fleet_rows)),
            ("replicated_failover", Json::Array(vec![failover_row])),
            ("trace_overhead", Json::Array(vec![trace_row])),
        ],
    );
}

fn main() {
    ss_bench::banner("server stress: content-addressed cache + concurrent fan-out");

    let latency = measure_latency();
    let mut table = Table::new([
        "workload",
        "cubes",
        "cold",
        "warm disk",
        "warm mem",
        "disk x",
        "mem x",
    ]);
    for row in &latency {
        table.add_row([
            row.name.clone(),
            row.cubes.to_string(),
            format!("{:.3} ms", row.cold_s * 1e3),
            format!("{:.3} ms", row.warm_disk_s * 1e3),
            format!("{:.3} ms", row.warm_mem_s * 1e3),
            format!("{:.1}x", row.disk_speedup()),
            format!("{:.1}x", row.mem_speedup()),
        ]);
    }
    println!("{table}");

    let throughput: Vec<ThroughputRow> = WORKER_SWEEP
        .iter()
        .map(|&w| measure_throughput(w))
        .collect();
    let mut table = Table::new(["workers", "clients", "jobs", "wall", "jobs/s", "tx ratio"]);
    for row in &throughput {
        table.add_row([
            row.workers.to_string(),
            CLIENTS.to_string(),
            row.jobs.to_string(),
            format!("{:.3} s", row.wall_s),
            format!("{:.1}", row.jobs_per_s()),
            format!("{:.2}x", row.codec.tx_ratio()),
        ]);
    }
    println!("{table}");

    let (specs, fleet_digests, working_set) = fleet_working_set();
    let cache_bytes = ((working_set as f64 * FLEET_CACHE_FRACTION) as usize).max(1);
    println!(
        "fleet working set: {} keys, {} bytes -> {} bytes of cache per shard\n",
        FLEET_KEYS, working_set, cache_bytes
    );
    let fleet: Vec<FleetRow> = FLEET_SWEEP
        .iter()
        .map(|&n| measure_fleet(n, cache_bytes, &specs, &fleet_digests))
        .collect();
    let mut table = Table::new([
        "shards", "clients", "jobs", "wall", "jobs/s", "speedup", "synth", "hit rate",
    ]);
    for row in &fleet {
        table.add_row([
            row.shards.to_string(),
            FLEET_CLIENTS.to_string(),
            row.jobs.to_string(),
            format!("{:.3} s", row.wall_s),
            format!("{:.1}", row.jobs_per_s()),
            format!("{:.2}x", row.jobs_per_s() / fleet[0].jobs_per_s()),
            row.synthesis.to_string(),
            format!("{:.1}%", row.hit_rate() * 100.0),
        ]);
    }
    println!("{table}");

    let failover = measure_replicated_failover(&specs, &fleet_digests);
    let mut table = Table::new([
        "shards",
        "replicas",
        "jobs",
        "healthy",
        "degraded",
        "slowdown",
        "failovers",
        "resynth",
    ]);
    table.add_row([
        failover.shards.to_string(),
        failover.replicas.to_string(),
        failover.jobs.to_string(),
        format!("{:.3} s", failover.healthy_wall_s),
        format!("{:.3} s", failover.degraded_wall_s),
        format!("{:.2}x", failover.degraded_wall_s / failover.healthy_wall_s),
        failover.failovers.to_string(),
        "0".to_string(),
    ]);
    println!("{table}");

    let trace = measure_trace_overhead();
    let mut table = Table::new(["mode", "jobs", "wall", "jobs/s", "overhead", "spans"]);
    table.add_row([
        "untraced".to_string(),
        trace.jobs.to_string(),
        format!("{:.3} s", trace.untraced_wall_s),
        format!("{:.1}", trace.untraced_jobs_per_s()),
        "1.00x".to_string(),
        "0".to_string(),
    ]);
    table.add_row([
        "traced".to_string(),
        trace.jobs.to_string(),
        format!("{:.3} s", trace.traced_wall_s),
        format!("{:.1}", trace.traced_jobs_per_s()),
        format!("{:.2}x", trace.overhead()),
        trace.spans_recorded.to_string(),
    ]);
    println!("{table}");
    write_json(&latency, &throughput, &fleet, &failover, &trace);

    // contract for tracing-on-by-default: stamping a trace id on
    // every job and recording its spans may cost at most 5% of
    // warm-memory throughput — an untraced job's span path must stay
    // a no-op, and a traced one must stay cheap enough to leave on
    assert!(
        trace.overhead() <= TRACE_OVERHEAD_BOUND,
        "tracing costs {:.1}% of warm-memory throughput (bound {:.0}%): {:.1} traced vs {:.1} untraced jobs/s",
        (trace.overhead() - 1.0) * 100.0,
        (TRACE_OVERHEAD_BOUND - 1.0) * 100.0,
        trace.traced_jobs_per_s(),
        trace.untraced_jobs_per_s()
    );

    // contract for the fleet sweep. With each shard capped below
    // the working set, the widest fleet holds every key warm on its
    // owner (exactly-once cluster-wide: cold synthesis ran once per
    // key, total, across warm-up and 192 timed jobs) while the single
    // shard thrashes its LRU and re-pays cold compute — so aggregate
    // cache capacity, not core count, must buy the >= 3x throughput.
    let widest = fleet.last().expect("fleet sweep is non-empty");
    assert_eq!(
        widest.synthesis, FLEET_KEYS,
        "{}-shard fleet recomputed a key it should have cached",
        widest.shards
    );
    assert!(
        fleet[0].synthesis > FLEET_KEYS,
        "single under-provisioned shard never thrashed — the sweep is not exercising capacity"
    );
    assert!(
        widest.jobs_per_s() >= 3.0 * fleet[0].jobs_per_s(),
        "{}-shard fleet managed only {:.2}x the single-shard rate ({:.1} vs {:.1} jobs/s)",
        widest.shards,
        widest.jobs_per_s() / fleet[0].jobs_per_s(),
        widest.jobs_per_s(),
        fleet[0].jobs_per_s()
    );

    // contract: both warm tiers must beat the cold path on every
    // registry workload — a disk hit skips the dominant encode stage
    // (it re-pays only the file read, table rebuild and cheap stages)
    // and a memory hit skips synthesis too, so losing either race
    // means a cache tier is broken, not slow
    for row in &latency {
        assert!(
            row.warm_disk_s < row.cold_s,
            "{}: warm-disk ({:.3} ms) is not strictly below cold ({:.3} ms)",
            row.name,
            row.warm_disk_s * 1e3,
            row.cold_s * 1e3
        );
        assert!(
            row.warm_mem_s < row.cold_s,
            "{}: warm-memory ({:.3} ms) is not strictly below cold ({:.3} ms)",
            row.name,
            row.warm_mem_s * 1e3,
            row.cold_s * 1e3
        );
    }
}
