//! The concurrent compression service: bounded job queue, worker
//! pool, per-connection protocol handlers and the content-addressed
//! artifact cache, all over blocking std TCP.
//!
//! # Threading model
//!
//! ```text
//! accept loop ── one handler thread per connection ──┐
//!                       ▲                            │ try_enqueue (bounded; Busy when full)
//!                       │ reply channel              ▼
//!                  worker pool (N threads) ◀── bounded queue
//!                  │  pop → execute → send Done/Failed
//!                  └─ artifact cache (Mutex<ArtifactCache>)
//!
//! sharded only:
//!   replicator ── drains the bounded write-behind queue, pushing
//!                 cold artifacts to ring peers (Replicate)
//!   prober     ── pings ring peers, feeds the health table, adopts
//!                 higher ring epochs gossiped back in Pong
//! ```
//!
//! Backpressure is explicit: the queue never grows past its capacity —
//! a submission that would overflow is answered [`Response::Busy`] and
//! nothing is buffered. A `Submit` is answered with its job's report,
//! so a connection has at most one job in flight; its handler waits
//! for the worker's reply with a stop check, so shutdown cannot
//! deadlock a connection.
//!
//! Each job runs with `total parallelism / workers` engine threads, so
//! the pool saturates the machine without oversubscribing it; results
//! are bit-identical at every thread count, so this knob never changes
//! what a client receives.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ss_core::{Encoded, Engine, PipelineReport};
use ss_store::{Artifact, ArtifactStore};
use ss_telemetry::{
    span_id, wall_micros, Span, SpanDump, SpanKind, SpanRing, TraceClock, TraceContext,
    DEFAULT_RING_CAPACITY,
};
use ss_testdata::TestSet;

use crate::cache::{cache_key, ArtifactCache, CachedArtifacts};
use crate::client::Client;
use crate::codec::{Codec, CodecConfig, CodecError, WireStats, MAX_MESSAGE_BYTES};
use crate::protocol::{
    read_frame, write_frame, CacheTier, CodecCounters, ConnStats, JobReport, JobSpec,
    PhaseHistogram, Request, Response, ServerStats, TierStats, SHARD_REMOVED, SHUTTING_DOWN,
};
use crate::report_digest;
use crate::shard::{ShardError, ShardRing, ShardSpec};

/// How long a connection may sit idle between requests before the
/// handler closes it (keeps abandoned sockets from pinning threads).
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// How often blocked waiters re-check the stop flag.
const WAIT_TICK: Duration = Duration::from_millis(100);

/// Concurrent-connection bound when [`ServeOptions::max_connections`]
/// is 0. Far above any sane client fleet, far below the OS thread
/// ceiling a connection flood would otherwise hit.
const DEFAULT_MAX_CONNECTIONS: usize = 256;

/// Replication factor when [`ServeOptions::replicas`] is 0 on a
/// sharded server: the owner plus one warm copy, so any single shard
/// death costs zero recomputation.
const DEFAULT_REPLICAS: usize = 2;

/// Bound on the write-behind replication queue. Replication is best
/// effort: past this backlog new work is dropped (and counted) rather
/// than buffered without limit.
const REPLICATION_QUEUE_DEPTH: usize = 1024;

/// How often the prober pings ring peers (health + epoch gossip).
const PROBE_INTERVAL: Duration = Duration::from_millis(250);

/// Connect timeout for shard-to-shard connections (probes and replica
/// pushes); a dead peer costs at most this per attempt.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Read/write timeout once a peer connection is up, the `Hello`
/// exchange included.
const PEER_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Tunables for [`Server::bind`]. `Default` is a loopback address on
/// an OS-assigned port, one worker per hardware thread, a 256 MiB
/// cache and a queue of four jobs per worker.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `"127.0.0.1:7113"`; port 0 lets the OS
    /// pick (read the result from [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads; 0 means one per hardware thread.
    pub workers: usize,
    /// Artifact-cache budget in bytes.
    pub cache_bytes: usize,
    /// Bounded queue capacity; 0 means `4 * workers`.
    pub queue_depth: usize,
    /// Root of the persistent artifact store; `None` serves from the
    /// in-memory tier only. The directory is created if absent, its
    /// existing artifacts warm-start the index on boot, and every cold
    /// job writes through to it.
    pub store_dir: Option<PathBuf>,
    /// Concurrent-connection bound; one handler thread exists per
    /// active connection, and an accepted connection past the bound is
    /// shed with a `Busy` reply instead of a thread. 0 means the
    /// default of 256.
    pub max_connections: usize,
    /// Fleet membership, when this server is one shard of a sharded
    /// tier: the full peer list and this server's index into it.
    /// `None` serves every key itself (single-node mode).
    pub shard: Option<ShardSpec>,
    /// Replication factor on a sharded server: every cold artifact is
    /// pushed to the first `replicas` shards of its key's rendezvous
    /// order (the owner plus `replicas - 1` warm copies). 0 means the
    /// default of 2; 1 disables replication. Ignored when unsharded.
    pub replicas: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            cache_bytes: 256 << 20,
            queue_depth: 0,
            store_dir: None,
            max_connections: 0,
            shard: None,
            replicas: 0,
        }
    }
}

/// A finished job as a worker sends it back: the report, or the
/// failure message.
type JobOutcome = Result<JobReport, String>;

/// A job sitting in the bounded queue: pre-parsed and pre-validated,
/// so workers only ever do compression work.
struct QueuedJob {
    id: u64,
    key: u64,
    set: TestSet,
    spec: JobSpec,
    /// When the job entered the queue (monotonic µs) — the queue-wait
    /// span runs from here to the worker pop.
    enqueued_micros: u64,
    /// One-slot channel to the connection handler waiting for this
    /// job; the worker's send never blocks.
    reply: SyncSender<JobOutcome>,
}

/// The persistent tier: the on-disk store plus an in-memory index of
/// the keys known to be present (warm-started by a boot-time scan, so
/// a miss never touches the filesystem) and its counters.
struct DiskTier {
    store: ArtifactStore,
    /// key → stored file size; the warm-start index and the occupancy
    /// accounting in one map.
    index: Mutex<HashMap<u64, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    corruptions: AtomicU64,
    writes: AtomicU64,
}

impl DiskTier {
    /// Opens the store and warm-starts the index from the artifacts
    /// already on disk.
    fn open(dir: &PathBuf) -> Result<Self, ss_store::StoreError> {
        let store = ArtifactStore::open(dir)?;
        let index: HashMap<u64, u64> = store.keys()?.into_iter().collect();
        Ok(DiskTier {
            store,
            index: Mutex::new(index),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// Counts a corruption and evicts the offending file + index
    /// entry, so the key recomputes cold (now and after restarts).
    fn evict_corrupt(&self, key: u64, why: &str) {
        eprintln!("ss-server: evicting corrupt artifact {key:016x}: {why}");
        self.corruptions.fetch_add(1, Ordering::Relaxed);
        self.index.lock().expect("disk index mutex").remove(&key);
        if let Err(e) = self.store.remove(key) {
            eprintln!("ss-server: removing corrupt artifact {key:016x}: {e}");
        }
    }
}

/// Per-phase latency histograms, one mutex for all four (recording is
/// a few adds — contention is irrelevant next to the phases
/// themselves).
#[derive(Default)]
struct PhaseTimes {
    synthesis: PhaseHistogram,
    encode: PhaseHistogram,
    embed: PhaseHistogram,
    segment: PhaseHistogram,
}

/// Lock-free wire-codec telemetry, bumped by connection handlers and
/// snapshotted into [`CodecCounters`] for `Stats` replies.
#[derive(Default)]
struct CodecTelemetry {
    connections: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    crc_rejects: AtomicU64,
    raw_tx_bytes: AtomicU64,
    wire_tx_bytes: AtomicU64,
    raw_rx_bytes: AtomicU64,
    wire_rx_bytes: AtomicU64,
}

impl CodecTelemetry {
    /// Accounts one received message.
    fn add_rx(&self, stats: WireStats) {
        self.frames_received
            .fetch_add(stats.frames, Ordering::Relaxed);
        self.raw_rx_bytes
            .fetch_add(stats.raw_bytes, Ordering::Relaxed);
        self.wire_rx_bytes
            .fetch_add(stats.wire_bytes, Ordering::Relaxed);
    }

    /// Accounts one sent message.
    fn add_tx(&self, stats: WireStats) {
        self.frames_sent.fetch_add(stats.frames, Ordering::Relaxed);
        self.raw_tx_bytes
            .fetch_add(stats.raw_bytes, Ordering::Relaxed);
        self.wire_tx_bytes
            .fetch_add(stats.wire_bytes, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CodecCounters {
        CodecCounters {
            connections: self.connections.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            crc_rejects: self.crc_rejects.load(Ordering::Relaxed),
            raw_tx_bytes: self.raw_tx_bytes.load(Ordering::Relaxed),
            wire_tx_bytes: self.wire_tx_bytes.load(Ordering::Relaxed),
            raw_rx_bytes: self.raw_rx_bytes.load(Ordering::Relaxed),
            wire_rx_bytes: self.wire_rx_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A sharded server's placement state: the fleet ring and this
/// server's own position in it. Swapped atomically (under its mutex)
/// by `Reconfigure` — `self_addr` is pinned at startup so the server
/// can re-find (or lose) its index in any future ring.
struct ShardState {
    ring: ShardRing,
    /// This server's index into the ring's peer list, or `None` after
    /// a reconfiguration removed it — a removed shard owns nothing and
    /// redirects every plain submission, but keeps serving direct
    /// traffic and its warm cache until drained.
    id: Option<usize>,
    /// The address this server is known by in fleet peer lists.
    self_addr: String,
}

/// One unit of write-behind replication: push `key`'s artifact to
/// every address in `targets`. `entry` is the in-memory artifact when
/// the producer held it; `None` makes the replicator load the
/// envelope from the disk tier (the re-replication path for keys that
/// were only on disk when the ring changed).
struct ReplicationTask {
    key: u64,
    entry: Option<Arc<CachedArtifacts>>,
    targets: Vec<String>,
    /// The trace that produced (or last served) the artifact being
    /// pushed — carried on the wire so the receiving shard's ingest
    /// span lands on the same timeline. 0 = untraced.
    trace: u64,
}

/// State shared by the accept loop, connection handlers and workers.
struct Shared {
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    cache: Mutex<ArtifactCache>,
    /// The persistent second tier, when `--store-dir` is configured.
    disk: Option<DiskTier>,
    /// Cache keys whose cold computation is in flight — request
    /// coalescing: a worker holding a duplicate key waits for the
    /// computer instead of re-running synthesis + encode in parallel.
    pending: Mutex<HashSet<u64>>,
    pending_cv: Condvar,
    phases: Mutex<PhaseTimes>,
    codec: CodecTelemetry,
    next_job: AtomicU64,
    jobs_done: AtomicU64,
    busy_rejections: AtomicU64,
    coalesced: AtomicU64,
    /// Fleet placement; `None` in single-node mode. Behind a mutex so
    /// `Reconfigure` can swap the ring live, without restarting.
    shards: Mutex<Option<ShardState>>,
    /// Replication factor (1 = off); fixed per process.
    replicas: usize,
    /// The bounded write-behind replication queue.
    repl_queue: Mutex<VecDeque<ReplicationTask>>,
    repl_cv: Condvar,
    /// Replica pushes acknowledged by a peer.
    replicas_sent: AtomicU64,
    /// Replica pushes accepted from peers after verification.
    replicas_received: AtomicU64,
    /// Replication work dropped (full queue or oversize envelope).
    replica_drops: AtomicU64,
    /// Reconfigurations that actually advanced the epoch.
    reconfigures: AtomicU64,
    /// Ring peers the prober (or a failed push) currently considers
    /// unreachable.
    peers_down: Mutex<HashSet<String>>,
    /// Live connection handlers (the accept gate's level).
    conn_active: AtomicUsize,
    /// The accept gate's bound.
    conn_max: usize,
    /// Connections shed at the gate.
    conn_shed: AtomicU64,
    /// Plain submissions answered with the owner's address.
    redirects: AtomicU64,
    /// Monotonic origin every span timestamp is measured from;
    /// `TraceDump` samples it against the wall clock so readers can
    /// normalise timestamps across processes.
    clock: TraceClock,
    /// Bounded ring of recorded spans (seeded random-replacement
    /// eviction, drained non-destructively by `TraceDump`).
    spans: Mutex<SpanRing>,
    /// Per-process span sequence, folded into span-id derivation.
    span_seq: AtomicU64,
    stop: AtomicBool,
    workers: usize,
    queue_capacity: usize,
    job_threads: usize,
}

/// What a submission attempt produced.
#[derive(Debug)]
enum Enqueue {
    /// Queued; the worker that runs it answers on this channel.
    Queued(Receiver<JobOutcome>),
    Busy {
        queued: u32,
        capacity: u32,
    },
    /// Another shard owns this key; the payload is its address.
    Redirect(String),
}

impl Shared {
    fn new(
        workers: usize,
        queue_capacity: usize,
        cache_bytes: usize,
        job_threads: usize,
        disk: Option<DiskTier>,
        conn_max: usize,
        replicas: usize,
    ) -> Self {
        Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            cache: Mutex::new(ArtifactCache::new(cache_bytes)),
            disk,
            pending: Mutex::new(HashSet::new()),
            pending_cv: Condvar::new(),
            phases: Mutex::new(PhaseTimes::default()),
            codec: CodecTelemetry::default(),
            next_job: AtomicU64::new(1),
            jobs_done: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shards: Mutex::new(None),
            replicas: replicas.max(1),
            repl_queue: Mutex::new(VecDeque::new()),
            repl_cv: Condvar::new(),
            replicas_sent: AtomicU64::new(0),
            replicas_received: AtomicU64::new(0),
            replica_drops: AtomicU64::new(0),
            reconfigures: AtomicU64::new(0),
            peers_down: Mutex::new(HashSet::new()),
            conn_active: AtomicUsize::new(0),
            conn_max,
            conn_shed: AtomicU64::new(0),
            redirects: AtomicU64::new(0),
            clock: TraceClock::new(),
            spans: Mutex::new(SpanRing::new(DEFAULT_RING_CAPACITY, span_ring_seed())),
            span_seq: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            workers,
            queue_capacity,
            job_threads,
        }
    }

    /// Validates a spec, canonicalises its workload text and either
    /// queues it (`Queued`), applies backpressure (`Busy`), or —
    /// sharded, non-`direct`, and the canonical key belongs to another
    /// shard — answers the owner's address (`Redirect`). The error
    /// carries a client-facing message.
    ///
    /// `direct` submissions (`SubmitDirect`) always execute locally:
    /// that is the balancer's failover path onto a non-owner, which
    /// must never be bounced back toward a dead owner.
    fn try_enqueue(&self, mut spec: JobSpec, direct: bool) -> Result<Enqueue, String> {
        let set = TestSet::from_text(&spec.set_text).map_err(|e| format!("cube file: {e}"))?;
        if set.is_empty() {
            return Err("cube file: test set is empty".to_string());
        }
        // canonical text: whitespace/comment variants share a cache key
        spec.set_text = set.to_text();
        // reject bad knobs at the door, not in a worker
        engine_from_spec(&spec, self.job_threads).map_err(|e| format!("config: {e}"))?;
        let key = cache_key(&spec);

        // ownership is decided on the canonical key, so a client that
        // hashed non-canonical text still converges in one redirect;
        // a server reconfigured out of its own ring owns nothing
        if !direct {
            let shards = self.shards.lock().expect("shards mutex");
            if let Some(state) = shards.as_ref() {
                let owner = state.ring.owner(key);
                if state.id != Some(owner) {
                    self.redirects.fetch_add(1, Ordering::Relaxed);
                    return Ok(Enqueue::Redirect(state.ring.shards()[owner].clone()));
                }
            }
        }

        let mut queue = self.queue.lock().expect("queue mutex");
        if queue.len() >= self.queue_capacity {
            self.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Ok(Enqueue::Busy {
                queued: queue.len() as u32,
                capacity: self.queue_capacity as u32,
            });
        }
        let (reply, outcome) = mpsc::sync_channel(1);
        queue.push_back(QueuedJob {
            id: self.next_job.fetch_add(1, Ordering::Relaxed),
            key,
            set,
            spec,
            enqueued_micros: self.clock.now_micros(),
            reply,
        });
        drop(queue);
        self.queue_cv.notify_one();
        Ok(Enqueue::Queued(outcome))
    }

    fn stats(&self) -> ServerStats {
        let queued = self.queue.lock().expect("queue mutex").len() as u32;
        let cache = self.cache.lock().expect("cache mutex").stats();
        let disk = self.disk.as_ref().map_or_else(TierStats::default, |d| {
            let index = d.index.lock().expect("disk index mutex");
            TierStats {
                hits: d.hits.load(Ordering::Relaxed),
                misses: d.misses.load(Ordering::Relaxed),
                entries: index.len() as u64,
                bytes: index.values().sum(),
                capacity_bytes: 0, // unbounded
                evictions: d.corruptions.load(Ordering::Relaxed),
            }
        });
        let (epoch, shard_id, shard_count) = {
            let shards = self.shards.lock().expect("shards mutex");
            match shards.as_ref() {
                Some(s) => (
                    s.ring.epoch(),
                    s.id.map_or(SHARD_REMOVED, |id| id as u32),
                    s.ring.len() as u32,
                ),
                None => (0, 0, 0),
            }
        };
        let (spans_recorded, spans_evicted) = {
            let spans = self.spans.lock().expect("spans mutex");
            (spans.recorded(), spans.evicted())
        };
        let phases = self.phases.lock().expect("phases mutex");
        ServerStats {
            workers: self.workers as u32,
            queue_capacity: self.queue_capacity as u32,
            queued,
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            memory: TierStats {
                hits: cache.hits,
                misses: cache.misses,
                entries: cache.entries as u64,
                bytes: cache.bytes as u64,
                capacity_bytes: cache.capacity_bytes as u64,
                evictions: cache.evictions,
            },
            disk,
            store_writes: self
                .disk
                .as_ref()
                .map_or(0, |d| d.writes.load(Ordering::Relaxed)),
            disk_corruptions: self
                .disk
                .as_ref()
                .map_or(0, |d| d.corruptions.load(Ordering::Relaxed)),
            synthesis: phases.synthesis,
            encode: phases.encode,
            embed: phases.embed,
            segment: phases.segment,
            codec: self.codec.snapshot(),
            connections_active: self.conn_active.load(Ordering::Relaxed) as u32,
            connections_max: self.conn_max as u32,
            connections_shed: self.conn_shed.load(Ordering::Relaxed),
            redirects: self.redirects.load(Ordering::Relaxed),
            shard_id,
            // 0 = single-node; a sharded server reports its fleet size
            shard_count,
            epoch,
            replicas_sent: self.replicas_sent.load(Ordering::Relaxed),
            replicas_received: self.replicas_received.load(Ordering::Relaxed),
            replica_queue_drops: self.replica_drops.load(Ordering::Relaxed),
            reconfigures: self.reconfigures.load(Ordering::Relaxed),
            peers_down: self.peers_down.lock().expect("peers_down mutex").len() as u32,
            spans_recorded,
            spans_evicted,
        }
    }

    /// Records one span on `trace` — a no-op (no lock, no allocation)
    /// for the zero trace, which is what keeps untraced traffic free.
    /// The note closure only runs when the span is actually recorded.
    fn record_span<F: FnOnce() -> String>(
        &self,
        trace: u64,
        parent: u64,
        kind: SpanKind,
        start_micros: u64,
        duration_micros: u64,
        note: F,
    ) {
        if trace == 0 {
            return;
        }
        let seq = self.span_seq.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("spans mutex").record(Span {
            trace,
            id: span_id(trace, seq),
            parent,
            kind,
            start_micros,
            duration_micros,
            note: note(),
        });
    }

    /// A non-destructive dump of the span ring (`trace` 0 = every
    /// span), stamped with paired wall/monotonic clocks so a reader
    /// can place this process's spans on a shared timeline.
    fn span_dump(&self, trace: u64) -> SpanDump {
        let spans = self.spans.lock().expect("spans mutex");
        SpanDump {
            wall_micros: wall_micros(),
            mono_micros: self.clock.now_micros(),
            recorded: spans.recorded(),
            evicted: spans.evicted(),
            spans: spans.snapshot(trace),
        }
    }

    /// The current membership view: `(epoch, own shard id, peer
    /// list)` — what `Pong` advertises. Unsharded servers answer
    /// `(0, u32::MAX, [])`.
    fn membership(&self) -> (u64, u32, Vec<String>) {
        let shards = self.shards.lock().expect("shards mutex");
        match shards.as_ref() {
            Some(s) => (
                s.ring.epoch(),
                s.id.map_or(u32::MAX, |id| id as u32),
                s.ring.shards().to_vec(),
            ),
            None => (0, u32::MAX, Vec::new()),
        }
    }

    /// Marks a ring peer reachable/unreachable in the health table.
    fn note_peer(&self, addr: &str, up: bool) {
        let mut down = self.peers_down.lock().expect("peers_down mutex");
        if up {
            down.remove(addr);
        } else {
            down.insert(addr.to_string());
        }
    }

    /// Queues one replication task, dropping (and counting) when the
    /// bounded queue is full — write-behind is best effort by design.
    fn push_replication(&self, task: ReplicationTask) {
        let mut queue = self.repl_queue.lock().expect("repl queue mutex");
        if queue.len() >= REPLICATION_QUEUE_DEPTH {
            self.replica_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        queue.push_back(task);
        drop(queue);
        self.repl_cv.notify_one();
    }
}

/// Eviction seed for the span ring: `SS_CHAOS_SEED` when set (the
/// chaos harness pins span retention alongside everything else it
/// derandomises), a fixed constant otherwise — retention is always
/// deterministic for a given seed and record sequence.
fn span_ring_seed() -> u64 {
    std::env::var("SS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5353_5452_4143_4531)
}

/// Builds the engine a spec describes, with the server's per-job
/// thread budget.
fn engine_from_spec(spec: &JobSpec, threads: usize) -> Result<Engine, String> {
    let mut builder = Engine::builder()
        .window(spec.window as usize)
        .segment(spec.segment as usize)
        .speedup(spec.speedup)
        .lfsr_kind(spec.lfsr_kind)
        .ps_taps(spec.ps_taps as usize)
        .hw_seed(spec.hw_seed)
        .fill_seed(spec.fill_seed)
        .threads(threads);
    if spec.lfsr_size > 0 {
        builder = builder.lfsr_size(spec.lfsr_size as usize);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Removes a key from the in-flight set when the cold computation
/// finishes — in every exit path, including errors and unwinds, so a
/// failed computer can never wedge its waiters.
struct PendingGuard<'a> {
    shared: &'a Shared,
    key: u64,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.shared
            .pending
            .lock()
            .expect("pending mutex")
            .remove(&self.key);
        self.shared.pending_cv.notify_all();
    }
}

/// Cache lookup with request coalescing: a hit returns the artifacts;
/// a miss either claims the key (returning a guard — the caller is
/// now the computer) or, when another worker is already computing the
/// same key, blocks until that computation lands and retries. A
/// computer that fails releases the key, so exactly one waiter
/// inherits the cold path — progress is guaranteed, never a stampede.
fn lookup_or_claim<'a>(
    shared: &'a Shared,
    key: u64,
) -> Result<Arc<CachedArtifacts>, PendingGuard<'a>> {
    let mut waited = false;
    loop {
        // lookup, not get: waiters re-poll this every tick, and only
        // the claimer below should record the (single) miss
        if let Some(entry) = shared.cache.lock().expect("cache mutex").lookup(key) {
            return Ok(entry);
        }
        let mut pending = shared.pending.lock().expect("pending mutex");
        if pending.insert(key) {
            drop(pending);
            shared.cache.lock().expect("cache mutex").record_miss();
            return Err(PendingGuard { shared, key });
        }
        // someone else is computing this key: wait for it to land (or
        // fail), then re-check the cache. Counted once per job, not
        // once per wakeup.
        if !waited {
            waited = true;
            shared.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        let (p, _) = shared
            .pending_cv
            .wait_timeout(pending, WAIT_TICK)
            .expect("pending mutex");
        drop(p);
    }
}

/// Re-enters the staged flow at the embed stage from cached
/// artifacts, returning the report plus the embed/segment timings in
/// microseconds (the caller records them — a run later discarded by a
/// digest check must not pollute the histograms).
fn finish_stages(entry: &CachedArtifacts) -> Result<(PipelineReport, u64, u64), String> {
    let encoded = Encoded::from_cached(&entry.set, &entry.ctx, entry.encoding.clone())
        .map_err(|e| format!("cache pairing: {e}"))?;
    let t = Instant::now();
    let embedded = encoded.embed();
    let embed_micros = t.elapsed().as_micros() as u64;
    let t = Instant::now();
    let report = embedded.segment().finish().map_err(|e| e.to_string())?;
    let segment_micros = t.elapsed().as_micros() as u64;
    Ok((report, embed_micros, segment_micros))
}

fn record_finish_phases(shared: &Shared, embed_micros: u64, segment_micros: u64) {
    let mut phases = shared.phases.lock().expect("phases mutex");
    phases.embed.record(embed_micros);
    phases.segment.record(segment_micros);
}

/// Disk-tier lookup: loads, re-verifies and promotes the artifact
/// stored under the job's key. Returns the finished report on
/// success; `None` is a miss (absent key, or a corrupt file that was
/// counted, evicted and left for the caller to recompute). Never
/// panics and never returns an unverified result: the envelope
/// checksum guards the bytes, and the stored report digest is checked
/// against the digest of the report the rehydrated artifacts actually
/// reproduce.
fn disk_lookup(shared: &Shared, job: &QueuedJob) -> Option<(PipelineReport, usize)> {
    let disk = shared.disk.as_ref()?;
    if !disk
        .index
        .lock()
        .expect("disk index mutex")
        .contains_key(&job.key)
    {
        disk.misses.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    let artifact = match disk.store.get(job.key, Some(shared.job_threads)) {
        Ok(Some(artifact)) => artifact,
        Ok(None) => {
            // index said present, file is gone (external deletion)
            disk.misses.fetch_add(1, Ordering::Relaxed);
            disk.index
                .lock()
                .expect("disk index mutex")
                .remove(&job.key);
            return None;
        }
        Err(e) => {
            disk.evict_corrupt(job.key, &e.to_string());
            return None;
        }
    };
    let entry = Arc::new(CachedArtifacts {
        ctx: artifact.ctx,
        set: artifact.set,
        dropped: artifact.dropped as usize,
        encoding: artifact.encoding,
        report_digest: artifact.report_digest,
        trace: AtomicU64::new(job.spec.trace.trace),
    });
    match finish_stages(&entry) {
        Ok((report, embed_micros, segment_micros))
            if report_digest(&report) == artifact.report_digest =>
        {
            disk.hits.fetch_add(1, Ordering::Relaxed);
            record_finish_phases(shared, embed_micros, segment_micros);
            // promote to the memory tier for the next lookup
            shared
                .cache
                .lock()
                .expect("cache mutex")
                .insert(job.key, Arc::clone(&entry));
            Some((report, entry.dropped))
        }
        Ok((report, ..)) => {
            disk.evict_corrupt(
                job.key,
                &format!(
                    "stored digest {:016x} but artifacts reproduce {:016x}",
                    artifact.report_digest,
                    report_digest(&report)
                ),
            );
            None
        }
        Err(e) => {
            disk.evict_corrupt(job.key, &e);
            None
        }
    }
}

/// Runs one job through the tiered lookup: the in-memory LRU (or a
/// coalesced wait on an identical in-flight job), then the persistent
/// store, then a cold run of the full flow (the same synthesize →
/// filter → encode path as the CLI `run` command) that populates both
/// tiers.
fn execute(shared: &Shared, job: &QueuedJob) -> Result<JobReport, String> {
    let start = Instant::now();
    let trace = job.spec.trace;
    let (report, dropped, tier) = match lookup_or_claim(shared, job.key) {
        Ok(entry) => {
            let t0 = shared.clock.now_micros();
            let (report, embed_micros, segment_micros) = finish_stages(&entry)?;
            record_finish_phases(shared, embed_micros, segment_micros);
            if trace.trace != 0 {
                // telemetry only: the entry remembers the last trace
                // that served it, so a later re-replication push can
                // attribute the copy
                entry.trace.store(trace.trace, Ordering::Relaxed);
            }
            shared.record_span(
                trace.trace,
                trace.parent,
                SpanKind::CacheMemory,
                t0,
                shared.clock.now_micros().saturating_sub(t0),
                || format!("key={:016x} hit", job.key),
            );
            shared.record_span(
                trace.trace,
                trace.parent,
                SpanKind::Embed,
                t0,
                embed_micros,
                String::new,
            );
            shared.record_span(
                trace.trace,
                trace.parent,
                SpanKind::Segment,
                t0 + embed_micros,
                segment_micros,
                String::new,
            );
            (report, entry.dropped, CacheTier::Memory)
        }
        // holding the guard: this worker is the (sole) computer for
        // the key, whether it comes off disk or runs cold
        Err(_pending_guard) => {
            let t_disk = shared.clock.now_micros();
            match disk_lookup(shared, job) {
                Some((report, dropped)) => {
                    shared.record_span(
                        trace.trace,
                        trace.parent,
                        SpanKind::CacheDisk,
                        t_disk,
                        shared.clock.now_micros().saturating_sub(t_disk),
                        || format!("key={:016x} hit", job.key),
                    );
                    (report, dropped, CacheTier::Disk)
                }
                None => {
                    let engine = engine_from_spec(&job.spec, shared.job_threads)?;
                    let t0 = shared.clock.now_micros();
                    let t = Instant::now();
                    let ctx = engine.synthesize(&job.set).map_err(|e| e.to_string())?;
                    let (encodable, dropped_idx) = ctx.encodable_subset(&job.set);
                    let synthesis_micros = t.elapsed().as_micros() as u64;
                    let t1 = shared.clock.now_micros();
                    let t = Instant::now();
                    let encoded =
                        Encoded::from_ctx_ref(&encodable, &ctx).map_err(|e| e.to_string())?;
                    let encode_micros = t.elapsed().as_micros() as u64;
                    let encoding = encoded.encoding().clone();
                    let t2 = shared.clock.now_micros();
                    let t = Instant::now();
                    let embedded = encoded.embed();
                    let embed_micros = t.elapsed().as_micros() as u64;
                    let t3 = shared.clock.now_micros();
                    let t = Instant::now();
                    let report = embedded.segment().finish().map_err(|e| e.to_string())?;
                    let segment_micros = t.elapsed().as_micros() as u64;
                    {
                        let mut phases = shared.phases.lock().expect("phases mutex");
                        phases.synthesis.record(synthesis_micros);
                        phases.encode.record(encode_micros);
                        phases.embed.record(embed_micros);
                        phases.segment.record(segment_micros);
                    }
                    for (kind, at, micros) in [
                        (SpanKind::Synthesis, t0, synthesis_micros),
                        (SpanKind::Encode, t1, encode_micros),
                        (SpanKind::Embed, t2, embed_micros),
                        (SpanKind::Segment, t3, segment_micros),
                    ] {
                        shared.record_span(
                            trace.trace,
                            trace.parent,
                            kind,
                            at,
                            micros,
                            String::new,
                        );
                    }
                    let dropped = dropped_idx.len();
                    let entry = Arc::new(CachedArtifacts {
                        ctx,
                        set: encodable,
                        dropped,
                        encoding,
                        report_digest: report_digest(&report),
                        trace: AtomicU64::new(trace.trace),
                    });
                    store_write_through(shared, job.key, &entry, entry.report_digest);
                    shared
                        .cache
                        .lock()
                        .expect("cache mutex")
                        .insert(job.key, Arc::clone(&entry));
                    // write-behind: push warm copies to the key's replica
                    // set so losing this shard re-pays nothing
                    schedule_replication(shared, job.key, entry, trace.trace);
                    (report, dropped, CacheTier::Cold)
                }
            }
        }
    };
    Ok(job_report(job, &report, dropped, tier, start.elapsed()))
}

/// Persists a cold run's artifacts. Failures are logged and absorbed —
/// a full disk must degrade the cache, never the answer.
fn store_write_through(shared: &Shared, key: u64, entry: &CachedArtifacts, digest: u64) {
    let Some(disk) = shared.disk.as_ref() else {
        return;
    };
    let artifact = Artifact {
        ctx: entry.ctx.clone(),
        set: entry.set.clone(),
        dropped: entry.dropped as u64,
        encoding: entry.encoding.clone(),
        report_digest: digest,
    };
    match disk.store.put(key, &artifact) {
        Ok(size) => {
            disk.writes.fetch_add(1, Ordering::Relaxed);
            disk.index
                .lock()
                .expect("disk index mutex")
                .insert(key, size);
        }
        Err(e) => eprintln!("ss-server: writing artifact {key:016x}: {e}"),
    }
}

/// Queues write-behind replication of a freshly computed cold key to
/// the other members of its replica set. No-op unless the server is
/// sharded with a factor above 1.
fn schedule_replication(shared: &Shared, key: u64, entry: Arc<CachedArtifacts>, trace: u64) {
    if shared.replicas <= 1 {
        return;
    }
    let targets = {
        let shards = shared.shards.lock().expect("shards mutex");
        match shards.as_ref() {
            Some(state) => state
                .ring
                .replicas(key, shared.replicas)
                .into_iter()
                .filter(|addr| *addr != state.self_addr)
                .collect::<Vec<_>>(),
            None => return,
        }
    };
    if targets.is_empty() {
        return;
    }
    shared.push_replication(ReplicationTask {
        key,
        entry: Some(entry),
        targets,
        trace,
    });
}

/// The addresses `key` must newly be pushed to when the ring changes
/// from `old` to `new`: members of the new replica set that are
/// neither in the old set (they already hold a copy) nor this server.
/// `None` when nothing gained the key.
fn replica_targets(
    old: &ShardRing,
    new: &ShardRing,
    key: u64,
    factor: usize,
    self_addr: &str,
) -> Option<Vec<String>> {
    let old_set: HashSet<String> = old.replicas(key, factor).into_iter().collect();
    let targets: Vec<String> = new
        .replicas(key, factor)
        .into_iter()
        .filter(|addr| !old_set.contains(addr) && addr != self_addr)
        .collect();
    if targets.is_empty() {
        None
    } else {
        Some(targets)
    }
}

/// Atomically swaps the ring for a strictly newer membership view and
/// queues re-replication of every locally held key whose replica set
/// gained members — the warm-copy guarantee must survive the ring
/// change. Idempotent: a stale or repeated epoch answers the epoch in
/// force without touching anything.
///
/// # Errors
///
/// A client-facing message when the server is unsharded or the peer
/// list is degenerate.
fn apply_reconfigure(shared: &Shared, epoch: u64, peers: Vec<String>) -> Result<u64, String> {
    let mut shards = shared.shards.lock().expect("shards mutex");
    let Some(state) = shards.as_mut() else {
        return Err("server is not sharded".to_string());
    };
    if epoch <= state.ring.epoch() {
        return Ok(state.ring.epoch());
    }
    let new_ring = ShardRing::new(peers)
        .map_err(|e| format!("reconfigure: {e}"))?
        .with_epoch(epoch);
    let new_id = new_ring
        .shards()
        .iter()
        .position(|addr| *addr == state.self_addr);
    if shared.replicas > 1 {
        // every key this server holds, memory tier first so the
        // replicator can reuse the live Arc; disk-only keys get a
        // load-on-push task (lock order: shards → cache / disk.index,
        // never the reverse — nothing locks shards under those)
        let mut tasks: Vec<ReplicationTask> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for (key, entry) in shared.cache.lock().expect("cache mutex").entries() {
            seen.insert(key);
            if let Some(targets) = replica_targets(
                &state.ring,
                &new_ring,
                key,
                shared.replicas,
                &state.self_addr,
            ) {
                tasks.push(ReplicationTask {
                    key,
                    trace: entry.trace.load(Ordering::Relaxed),
                    entry: Some(entry),
                    targets,
                });
            }
        }
        if let Some(disk) = shared.disk.as_ref() {
            for &key in disk.index.lock().expect("disk index mutex").keys() {
                if seen.contains(&key) {
                    continue;
                }
                if let Some(targets) = replica_targets(
                    &state.ring,
                    &new_ring,
                    key,
                    shared.replicas,
                    &state.self_addr,
                ) {
                    tasks.push(ReplicationTask {
                        key,
                        entry: None,
                        targets,
                        // a disk-only key carries no live trace
                        trace: 0,
                    });
                }
            }
        }
        for task in tasks {
            shared.push_replication(task);
        }
    }
    state.ring = new_ring;
    state.id = new_id;
    {
        let members: HashSet<&String> = state.ring.shards().iter().collect();
        shared
            .peers_down
            .lock()
            .expect("peers_down mutex")
            .retain(|peer| members.contains(peer));
    }
    shared.reconfigures.fetch_add(1, Ordering::Relaxed);
    Ok(epoch)
}

/// Accepts one `Replicate` push: decodes the artifact envelope,
/// re-verifies that the artifacts reproduce the digest they claim
/// (nothing off the wire is trusted), and lands the copy in the normal
/// memory → disk tiers. Deliberately records no synthesis, no phase
/// timings and no cache miss — ingestion is not service traffic.
fn ingest_replica(shared: &Shared, key: u64, bytes: &[u8], trace: u64) -> Response {
    let t0 = shared.clock.now_micros();
    let artifact = match Artifact::from_bytes(bytes, key, Some(shared.job_threads)) {
        Ok(artifact) => artifact,
        Err(e) => return Response::Error(format!("replica {key:016x}: {e}")),
    };
    let entry = Arc::new(CachedArtifacts {
        ctx: artifact.ctx,
        set: artifact.set,
        dropped: artifact.dropped as usize,
        encoding: artifact.encoding,
        report_digest: artifact.report_digest,
        trace: AtomicU64::new(trace),
    });
    match finish_stages(&entry) {
        Ok((report, ..)) if report_digest(&report) == entry.report_digest => {
            store_write_through(shared, key, &entry, entry.report_digest);
            shared.cache.lock().expect("cache mutex").insert(key, entry);
            shared.replicas_received.fetch_add(1, Ordering::Relaxed);
            shared.record_span(
                trace,
                0,
                SpanKind::ReplicaIngest,
                t0,
                shared.clock.now_micros().saturating_sub(t0),
                || format!("key={key:016x}"),
            );
            Response::Ack {
                epoch: shared.membership().0,
            }
        }
        Ok((report, ..)) => Response::Error(format!(
            "replica {key:016x}: claims digest {:016x}, artifacts reproduce {:016x}",
            entry.report_digest,
            report_digest(&report)
        )),
        Err(e) => Response::Error(format!("replica {key:016x}: {e}")),
    }
}

/// One request/response exchange with a ring peer, opened through the
/// same `Hello` exchange as any client and bounded by the peer
/// timeouts.
fn send_peer_request(addr: &str, request: &Request) -> Result<Response, String> {
    Client::connect_peer(addr, PEER_CONNECT_TIMEOUT, PEER_IO_TIMEOUT)
        .and_then(|mut peer| peer.call(request))
        .map_err(|e| e.to_string())
}

/// Pushes one replication task to its targets: resolves the artifact
/// (live entry, or loaded off disk for re-replication), serialises the
/// envelope once and sends it to each target. Best effort — a failed
/// push marks the peer down and moves on; the prober's next successful
/// round brings it back.
fn replicate_task(shared: &Shared, task: ReplicationTask) {
    let artifact = match task.entry {
        Some(entry) => Artifact {
            ctx: entry.ctx.clone(),
            set: entry.set.clone(),
            dropped: entry.dropped as u64,
            encoding: entry.encoding.clone(),
            report_digest: entry.report_digest,
        },
        None => match shared
            .disk
            .as_ref()
            .map(|disk| disk.store.get(task.key, Some(shared.job_threads)))
        {
            Some(Ok(Some(artifact))) => artifact,
            // gone or unreadable: nothing to push; the key recomputes
            // cold wherever it lands next
            _ => return,
        },
    };
    let bytes = artifact.to_bytes(task.key);
    // a Replicate travels as one codec message; an envelope that
    // cannot fit the message cap is dropped and counted, never split
    if bytes.len() as u64 + 64 > MAX_MESSAGE_BYTES {
        shared.replica_drops.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let epoch = shared.membership().0;
    for target in &task.targets {
        let request = Request::Replicate {
            epoch,
            key: task.key,
            bytes: bytes.clone(),
            trace: task.trace,
        };
        let t0 = shared.clock.now_micros();
        match send_peer_request(target, &request) {
            Ok(Response::Ack { .. }) => {
                shared.replicas_sent.fetch_add(1, Ordering::Relaxed);
                shared.note_peer(target, true);
                shared.record_span(
                    task.trace,
                    0,
                    SpanKind::ReplicatePush,
                    t0,
                    shared.clock.now_micros().saturating_sub(t0),
                    || format!("key={:016x} -> {target}", task.key),
                );
            }
            // the peer answered but refused (verification): it is
            // alive, just not a replica holder
            Ok(_) => shared.note_peer(target, true),
            Err(_) => shared.note_peer(target, false),
        }
    }
}

/// The write-behind replication thread: drains the bounded queue until
/// stop.
fn replicator_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.repl_queue.lock().expect("repl queue mutex");
            loop {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                let (q, _) = shared
                    .repl_cv
                    .wait_timeout(queue, WAIT_TICK)
                    .expect("repl queue mutex");
                queue = q;
            }
        };
        replicate_task(shared, task);
    }
}

/// The health/gossip thread: pings every ring peer each interval,
/// feeds the health table, and adopts any strictly newer membership
/// view a peer advertises in `Pong` — so one `Reconfigure` sent to one
/// shard converges the whole fleet within a probe interval.
fn prober_loop(shared: &Shared) {
    while !shared.stop.load(Ordering::Relaxed) {
        let (epoch, _, peers) = shared.membership();
        let self_addr = {
            let shards = shared.shards.lock().expect("shards mutex");
            shards.as_ref().map(|s| s.self_addr.clone())
        };
        for peer in &peers {
            if Some(peer.as_str()) == self_addr.as_deref() {
                continue;
            }
            if shared.stop.load(Ordering::Relaxed) {
                return;
            }
            match send_peer_request(peer, &Request::Ping) {
                Ok(Response::Pong {
                    epoch: peer_epoch,
                    peers: peer_list,
                    ..
                }) => {
                    shared.note_peer(peer, true);
                    if peer_epoch > epoch {
                        let _ = apply_reconfigure(shared, peer_epoch, peer_list);
                    }
                }
                // any answer at all means the peer is alive
                Ok(_) => shared.note_peer(peer, true),
                Err(_) => shared.note_peer(peer, false),
            }
        }
        // sleep in small steps so shutdown stays prompt
        let mut slept = Duration::ZERO;
        while slept < PROBE_INTERVAL && !shared.stop.load(Ordering::Relaxed) {
            thread::sleep(WAIT_TICK.min(PROBE_INTERVAL - slept));
            slept += WAIT_TICK;
        }
    }
}

/// Projects a full [`PipelineReport`] onto the wire-sized
/// [`JobReport`] of `job`.
fn job_report(
    job: &QueuedJob,
    report: &PipelineReport,
    dropped: usize,
    tier: CacheTier,
    service: Duration,
) -> JobReport {
    JobReport {
        lfsr_size: report.lfsr_size as u32,
        window: report.window as u32,
        segment: report.segment as u32,
        speedup: report.speedup,
        cubes: job.set.len() as u64,
        dropped: dropped as u64,
        seeds: report.seeds as u64,
        tdv: report.tdv as u64,
        tsl_original: report.tsl_original,
        tsl_truncated: report.tsl_truncated,
        tsl_proposed: report.tsl_proposed,
        digest: report_digest(report),
        tier,
        service_micros: service.as_micros() as u64,
        // stamped by the connection handler at reply time; a worker
        // has no wire context
        conn: ConnStats::default(),
        trace: job.spec.trace.trace,
        job: job.id,
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue mutex");
            loop {
                // stop beats pop: shutdown abandons the backlog (the
                // documented ServerHandle contract) instead of
                // draining arbitrarily many queued jobs first
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, WAIT_TICK)
                    .expect("queue mutex");
                queue = q;
            }
        };
        let popped = shared.clock.now_micros();
        shared.record_span(
            job.spec.trace.trace,
            job.spec.trace.parent,
            SpanKind::QueueWait,
            job.enqueued_micros,
            popped.saturating_sub(job.enqueued_micros),
            String::new,
        );
        let outcome = execute(shared, &job);
        // counted before the reply goes out, so a client that has its
        // report never reads a stale jobs_done
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
        // a client that hung up drops its receiver: the send fails and
        // the job's artifacts are still cached
        let _ = job.reply.send(outcome);
    }
}

/// Blocks a connection handler until the worker running its job
/// answers, re-checking the stop flag every [`WAIT_TICK`] so shutdown
/// never strands a connection.
fn await_outcome(shared: &Shared, outcome: &Receiver<JobOutcome>) -> Response {
    loop {
        match outcome.recv_timeout(WAIT_TICK) {
            Ok(Ok(report)) => return Response::Done(report),
            Ok(Err(message)) => {
                return Response::Failed {
                    message,
                    conn: ConnStats::default(),
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return Response::Error(SHUTTING_DOWN.to_string());
                }
            }
            // only a panicking worker drops a job without answering
            Err(RecvTimeoutError::Disconnected) => {
                return Response::Error("the worker running this job died".to_string())
            }
        }
    }
}

/// Answers a submission: with the job's outcome once a worker has run
/// it, or straight away with `Busy`, `Redirect` or `Error`.
fn submit(shared: &Shared, spec: JobSpec, direct: bool) -> Response {
    let trace = spec.trace;
    match shared.try_enqueue(spec, direct) {
        Ok(Enqueue::Queued(outcome)) => await_outcome(shared, &outcome),
        Ok(Enqueue::Busy { queued, capacity }) => Response::Busy { queued, capacity },
        Ok(Enqueue::Redirect(addr)) => {
            shared.record_span(
                trace.trace,
                trace.parent,
                SpanKind::Redirect,
                shared.clock.now_micros(),
                0,
                || format!("-> {addr}"),
            );
            Response::Redirect {
                addr,
                trace: trace.trace,
            }
        }
        Err(message) => Response::Error(message),
    }
}

/// The active trace context a request carries, if any — what the
/// connection handler's recv/decode span is attributed to.
fn request_trace(request: &Request) -> Option<TraceContext> {
    match request {
        Request::Submit(spec) | Request::SubmitDirect(spec) if spec.trace.is_active() => {
            Some(spec.trace)
        }
        _ => None,
    }
}

/// Answers one decoded request. A submission blocks until its job
/// has run (with a stop check); everything else is immediate.
fn respond(shared: &Shared, request: Request) -> Response {
    match request {
        // negotiation is handled at the connection layer; a second
        // Hello mid-connection is a protocol violation
        Request::Hello(_) => Response::Error("codec already negotiated".to_string()),
        Request::Submit(spec) => submit(shared, spec, false),
        // a direct submission is never redirected
        Request::SubmitDirect(spec) => submit(shared, spec, true),
        Request::Stats => Response::Stats(shared.stats()),
        Request::Replicate {
            key, bytes, trace, ..
        } => ingest_replica(shared, key, &bytes, trace),
        Request::TraceDump { trace } => Response::Spans(shared.span_dump(trace)),
        Request::Reconfigure { epoch, peers } => match apply_reconfigure(shared, epoch, peers) {
            Ok(epoch) => Response::Ack { epoch },
            Err(message) => Response::Error(message),
        },
        Request::Ping => {
            let (epoch, shard_id, peers) = shared.membership();
            Response::Pong {
                epoch,
                shard_id,
                peers,
            }
        }
    }
}

/// The opening exchange of every connection: the first frame must be
/// a `Hello` at this build's protocol version. It is answered with a
/// plain-frame `HelloAck` and the agreed codec is returned. Anything
/// else — another message, another version, garbage — is answered with
/// one plain-frame [`Response::Error`], and `None` tells the caller to
/// close.
fn accept_hello(shared: &Shared, stream: &mut TcpStream) -> Option<Codec> {
    let payload = read_frame(stream).ok()?;
    let refusal = match Request::decode(&payload) {
        Ok(Request::Hello(offer)) => {
            let agreed = CodecConfig::negotiate(offer);
            shared.codec.connections.fetch_add(1, Ordering::Relaxed);
            let ack = Response::HelloAck(agreed).encode();
            return write_frame(stream, &ack).ok().map(|()| Codec::new(agreed));
        }
        Ok(_) => "a connection must open with Hello".to_string(),
        Err(e) => e.to_string(),
    };
    let _ = write_frame(stream, &Response::Error(refusal).encode());
    None
}

/// Serves one connection until the peer closes, errors or idles out.
///
/// The connection opens with the `Hello` exchange ([`accept_hello`]);
/// every later message travels through the agreed codec chain.
///
/// A codec failure — CRC mismatch, reordered chunks, a lying length or
/// total — is answered with one typed [`Response::Error`] and the
/// connection is closed: after corruption the chunk stream can no
/// longer be trusted to be in sync, so resynchronising would risk
/// misparsing, and the client's retry path owns recovery.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Some(codec) = accept_hello(shared, &mut stream) else {
        return;
    };
    // per-connection codec totals, echoed inside every Done/Failed so
    // a client sees its own wire costs without a Stats round-trip
    let mut conn = ConnStats::default();
    loop {
        // frames of a rejected message were still received: account
        // them before looking at the outcome
        let mut rx = WireStats::default();
        let read = codec.read_message(&mut stream, &mut rx);
        shared.codec.add_rx(rx);
        let payload = match read {
            Ok(message) => message,
            Err(CodecError::Io(err)) => {
                // a lying frame-length field is detected corruption and
                // gets a typed answer; a vanished/idle peer just closes
                if err.kind() == io::ErrorKind::InvalidData {
                    let reply = Response::Error(format!("codec: {err}")).encode();
                    let _ = codec.write_message(&mut stream, &reply);
                }
                return;
            }
            Err(err) => {
                if err.is_integrity() {
                    shared.codec.crc_rejects.fetch_add(1, Ordering::Relaxed);
                }
                let reply = Response::Error(format!("codec: {err}")).encode();
                let _ = codec.write_message(&mut stream, &reply);
                return;
            }
        };
        conn.frames_received += rx.frames;
        conn.raw_rx_bytes += rx.raw_bytes;
        conn.wire_rx_bytes += rx.wire_bytes;
        // a stopping server takes no new request: closing unanswered
        // surfaces as a retryable disconnect, so a balancer fails over
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let decode_start = shared.clock.now_micros();
        let mut response = match Request::decode(&payload) {
            Ok(request) => {
                if let Some(ctx) = request_trace(&request) {
                    let now = shared.clock.now_micros();
                    shared.record_span(
                        ctx.trace,
                        ctx.parent,
                        SpanKind::RecvDecode,
                        decode_start,
                        now.saturating_sub(decode_start),
                        || format!("hop={}", ctx.hop),
                    );
                }
                respond(shared, request)
            }
            Err(e) => Response::Error(e.to_string()),
        };
        // the snapshot is taken at reply-build time: it covers every
        // frame up to and including this request, not the reply itself
        match response {
            Response::Done(ref mut report) => report.conn = conn,
            Response::Failed {
                conn: ref mut failed_conn,
                ..
            } => *failed_conn = conn,
            _ => {}
        }
        let reply_trace = match &response {
            Response::Done(report) => report.trace,
            _ => 0,
        };
        let tx_start = shared.clock.now_micros();
        match codec.write_message(&mut stream, &response.encode()) {
            Ok(tx) => {
                shared.codec.add_tx(tx);
                conn.frames_sent += tx.frames;
                conn.raw_tx_bytes += tx.raw_bytes;
                conn.wire_tx_bytes += tx.wire_bytes;
                shared.record_span(
                    reply_trace,
                    0,
                    SpanKind::CodecTx,
                    tx_start,
                    shared.clock.now_micros().saturating_sub(tx_start),
                    || format!("{} wire bytes", tx.wire_bytes),
                );
            }
            Err(_) => return,
        }
    }
}

/// A live slot in the accept gate: incremented on acquire, released
/// on drop — in every handler exit path, including panics, so a
/// crashing connection can never leak its slot.
struct ConnPermit {
    shared: Arc<Shared>,
}

impl ConnPermit {
    /// Claims a slot, or `None` when the gate is full. Lock-free: a
    /// compare-exchange loop on the active count.
    fn try_acquire(shared: &Arc<Shared>) -> Option<ConnPermit> {
        let mut active = shared.conn_active.load(Ordering::Relaxed);
        loop {
            if active >= shared.conn_max {
                return None;
            }
            match shared.conn_active.compare_exchange_weak(
                active,
                active + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(ConnPermit {
                        shared: Arc::clone(shared),
                    })
                }
                Err(now) => active = now,
            }
        }
    }
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.shared.conn_active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Dispatches one accepted connection: a handler thread inside the
/// gate, or a shed `Busy` reply on the accept thread when the gate is
/// full — the flood case costs one bounded write, never a thread.
fn dispatch_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    match ConnPermit::try_acquire(shared) {
        Some(permit) => {
            let shared = Arc::clone(shared);
            thread::spawn(move || {
                handle_connection(&shared, stream);
                drop(permit);
            });
        }
        None => {
            shared.conn_shed.fetch_add(1, Ordering::Relaxed);
            // a plain frame in place of the HelloAck: the codec never
            // opened. Bounded write so a dead peer can't stall the
            // accept loop.
            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
            let reply = Response::Busy {
                queued: shared.conn_max as u32,
                capacity: shared.conn_max as u32,
            }
            .encode();
            let _ = write_frame(&mut stream, &reply);
        }
    }
}

/// A bound (not yet serving) compression service.
///
/// [`Server::run`] serves on the calling thread forever (the CLI
/// path); [`Server::spawn`] serves on background threads and returns a
/// [`ServerHandle`] for orderly shutdown (the test/bench path).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen socket and sizes the worker pool, queue and
    /// cache from `options` (see [`ServeOptions`] for the defaults
    /// each `0` resolves to).
    ///
    /// # Errors
    ///
    /// I/O errors binding the address.
    pub fn bind(options: &ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let hw = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = if options.workers == 0 {
            hw
        } else {
            options.workers
        };
        let queue_capacity = if options.queue_depth == 0 {
            workers * 4
        } else {
            options.queue_depth
        };
        let job_threads = (hw / workers).max(1);
        let disk = match &options.store_dir {
            Some(dir) => Some(DiskTier::open(dir).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("store dir {}: {e}", dir.display()),
                )
            })?),
            None => None,
        };
        let max_connections = if options.max_connections == 0 {
            DEFAULT_MAX_CONNECTIONS
        } else {
            options.max_connections
        };
        let replicas = if options.replicas == 0 {
            DEFAULT_REPLICAS
        } else {
            options.replicas
        };
        let mut server = Server {
            listener,
            shared: Arc::new(Shared::new(
                workers,
                queue_capacity,
                options.cache_bytes,
                job_threads,
                disk,
                max_connections,
                replicas,
            )),
        };
        if let Some(spec) = &options.shard {
            server.set_shards(spec.clone()).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidInput, format!("shard config: {e}"))
            })?;
        }
        Ok(server)
    }

    /// Configures fleet membership on a bound-but-not-yet-serving
    /// server. This exists apart from [`ServeOptions::shard`] for
    /// tests that bind several servers on port 0 and only then know
    /// the fleet's real addresses.
    ///
    /// # Errors
    ///
    /// [`ShardError`] for a degenerate peer list or an out-of-range
    /// id.
    pub fn set_shards(&mut self, spec: ShardSpec) -> Result<(), ShardError> {
        let ring = spec.ring()?;
        let self_addr = spec.self_addr().to_string();
        let shared = Arc::get_mut(&mut self.shared)
            .expect("set_shards is called before any thread shares the server state");
        *shared.shards.get_mut().expect("shards mutex") = Some(ShardState {
            ring,
            id: Some(spec.id),
            self_addr,
        });
        Ok(())
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// I/O errors querying the socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Worker threads this server will run.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Bounded queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// Serves forever on the calling thread (workers on background
    /// threads). Only returns on an accept error.
    ///
    /// # Errors
    ///
    /// The first fatal `accept` error.
    pub fn run(self) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        for _ in 0..shared.workers {
            let shared = Arc::clone(&shared);
            thread::spawn(move || worker_loop(&shared));
        }
        if shared.shards.lock().expect("shards mutex").is_some() {
            let replicator = Arc::clone(&shared);
            thread::spawn(move || replicator_loop(&replicator));
            let prober = Arc::clone(&shared);
            thread::spawn(move || prober_loop(&prober));
        }
        loop {
            let (stream, _) = self.listener.accept()?;
            dispatch_connection(&shared, stream);
        }
    }

    /// Serves on background threads; the returned handle shuts the
    /// service down cleanly when asked (or when dropped).
    pub fn spawn(self) -> ServerHandle {
        let addr = self
            .listener
            .local_addr()
            .expect("bound listener has an address");
        let shared = Arc::clone(&self.shared);
        let workers: Vec<JoinHandle<()>> = (0..shared.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let mut aux: Vec<JoinHandle<()>> = Vec::new();
        if shared.shards.lock().expect("shards mutex").is_some() {
            let replicator = Arc::clone(&shared);
            aux.push(thread::spawn(move || replicator_loop(&replicator)));
            let prober = Arc::clone(&shared);
            aux.push(thread::spawn(move || prober_loop(&prober)));
        }
        let accept_shared = Arc::clone(&shared);
        let listener = self.listener;
        let accept = thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                if accept_shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                dispatch_connection(&accept_shared, stream);
            }
        });
        ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
            aux,
        }
    }
}

/// Handle to a [`Server::spawn`]ed service: its address, and orderly
/// shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The replicator and prober threads of a sharded server.
    aux: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Telemetry snapshot, without a round-trip.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Stops accepting, drains nothing (queued jobs are abandoned;
    /// running jobs finish), and joins the accept and worker threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // unblock accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        self.shared.queue_cv.notify_all();
        self.shared.repl_cv.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for aux in self.aux.drain(..) {
            let _ = aux.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Balancer;
    use ss_testdata::{generate_test_set, CubeProfile};

    fn mini_spec() -> JobSpec {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let engine = Engine::builder()
            .window(16)
            .segment(4)
            .speedup(4)
            .build()
            .unwrap();
        JobSpec::new(&set, engine.config())
    }

    /// Backpressure is deterministic at the queue level: with no
    /// workers draining, capacity+1 submissions yield exactly one
    /// `Busy` and nothing is buffered past the bound.
    #[test]
    fn bounded_queue_rejects_with_busy_never_buffers() {
        let shared = Shared::new(1, 2, 1 << 20, 1, None, 256, 1);
        let spec = mini_spec();
        for _ in 0..2 {
            assert!(matches!(
                shared.try_enqueue(spec.clone(), false),
                Ok(Enqueue::Queued(_))
            ));
        }
        match shared.try_enqueue(spec.clone(), false).unwrap() {
            Enqueue::Busy { queued, capacity } => {
                assert_eq!((queued, capacity), (2, 2));
            }
            other => panic!("queue overflowed its bound: {other:?}"),
        }
        assert_eq!(shared.queue.lock().unwrap().len(), 2);
        assert_eq!(shared.stats().busy_rejections, 1);
        // ids are distinct and monotone
        let ids: Vec<u64> = shared.queue.lock().unwrap().iter().map(|j| j.id).collect();
        assert_eq!(ids, [1, 2]);
    }

    /// A submission blocked on a job no worker runs answers "server
    /// shutting down" within a few ticks of the stop flag — and not
    /// before it.
    #[test]
    fn a_blocked_submit_answers_shutdown_within_a_few_ticks() {
        let shared = Arc::new(Shared::new(1, 4, 1 << 20, 1, None, 256, 1));
        let handler = Arc::clone(&shared);
        let blocked = thread::spawn(move || respond(&handler, Request::Submit(mini_spec())));
        while shared.queue.lock().unwrap().is_empty() {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(2 * WAIT_TICK);
        assert!(!blocked.is_finished(), "answered before its job ran");
        let stopped = Instant::now();
        shared.stop.store(true, Ordering::Relaxed);
        let response = blocked.join().unwrap();
        let waited = stopped.elapsed();
        assert!(waited < 3 * WAIT_TICK, "shutdown took {waited:?}");
        assert_eq!(response, Response::Error(SHUTTING_DOWN.to_string()));
    }

    /// A shard that stops while a balanced submission waits on it
    /// answers "server shutting down", which the client treats as
    /// retryable: the balancer fails over and the job completes on the
    /// next shard.
    #[test]
    fn a_balanced_submit_blocked_on_a_stopping_shard_fails_over() {
        let mut servers: Vec<Server> = (0..2)
            .map(|_| {
                Server::bind(&ServeOptions {
                    workers: 1,
                    replicas: 1,
                    ..ServeOptions::default()
                })
                .unwrap()
            })
            .collect();
        let peers: Vec<String> = servers
            .iter()
            .map(|s| s.local_addr().unwrap().to_string())
            .collect();
        for (id, server) in servers.iter_mut().enumerate() {
            let peers = peers.clone();
            server
                .set_shards(ShardSpec {
                    peers,
                    id,
                    epoch: 0,
                })
                .unwrap();
        }
        let spec = mini_spec();
        let owner = ShardRing::new(peers.clone())
            .unwrap()
            .owner(cache_key(&spec));
        // the owner runs no worker, so the job waits in its queue
        Arc::get_mut(&mut servers[owner].shared).unwrap().workers = 0;
        let mut handles: Vec<Option<ServerHandle>> =
            servers.into_iter().map(|s| Some(s.spawn())).collect();
        let balanced = {
            let (peers, spec) = (peers.clone(), spec.clone());
            thread::spawn(move || Balancer::new(peers).unwrap().run(&spec))
        };
        while handles[owner].as_ref().unwrap().stats().queued == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        handles[owner].take().unwrap().shutdown();
        let run = balanced.join().unwrap().expect("the balancer fails over");
        assert_ne!(run.shard, owner);
        assert!(run.failovers >= 1, "failovers: {}", run.failovers);
        assert_eq!(run.report.tier, CacheTier::Cold);
    }

    /// A connection has at most one job in flight: three submissions
    /// written back to back before any reply is read, against one
    /// worker and a one-job queue, are all served, in order, and none
    /// is turned away `Busy`.
    #[test]
    fn a_connection_has_at_most_one_job_in_flight() {
        let handle = Server::bind(&ServeOptions {
            workers: 1,
            queue_depth: 1,
            ..ServeOptions::default()
        })
        .unwrap()
        .spawn();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_frame(
            &mut stream,
            &Request::Hello(CodecConfig::preferred()).encode(),
        )
        .unwrap();
        let Ok(Response::HelloAck(agreed)) = Response::decode(&read_frame(&mut stream).unwrap())
        else {
            panic!("the Hello was refused");
        };
        let codec = Codec::new(agreed);
        let windows = [16, 20, 24];
        for window in windows {
            let spec = JobSpec {
                window,
                ..mini_spec()
            };
            let submit = Request::Submit(spec).encode();
            codec.write_message(&mut stream, &submit).unwrap();
        }
        let mut last_job = 0;
        for window in windows {
            let reply = codec
                .read_message(&mut stream, &mut WireStats::default())
                .unwrap();
            match Response::decode(&reply).unwrap() {
                Response::Done(report) => {
                    assert_eq!(report.window, window, "replies out of submission order");
                    assert!(report.job > last_job);
                    last_job = report.job;
                }
                other => panic!("submission at L={window} answered {other:?}"),
            }
        }
        let stats = handle.stats();
        assert_eq!((stats.jobs_done, stats.busy_rejections), (3, 0));
        handle.shutdown();
    }

    #[test]
    fn workers_abandon_the_backlog_on_stop() {
        let shared = Arc::new(Shared::new(1, 8, 1 << 20, 1, None, 256, 1));
        shared.try_enqueue(mini_spec(), false).unwrap();
        shared.stop.store(true, Ordering::Relaxed);
        let worker = Arc::clone(&shared);
        thread::spawn(move || worker_loop(&worker))
            .join()
            .expect("worker exits cleanly");
        assert_eq!(
            shared.queue.lock().unwrap().len(),
            1,
            "stop abandons queued jobs instead of draining them"
        );
        assert_eq!(shared.jobs_done.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn invalid_submissions_fail_at_the_door() {
        let shared = Shared::new(1, 4, 1 << 20, 1, None, 256, 1);
        let mut bad = mini_spec();
        bad.set_text = "no header".to_string();
        assert!(shared.try_enqueue(bad, false).is_err());
        let mut bad = mini_spec();
        bad.segment = 0;
        assert!(shared
            .try_enqueue(bad, false)
            .unwrap_err()
            .starts_with("config:"));
        let mut empty = mini_spec();
        empty.set_text = "chains 2 depth 3\n".to_string();
        assert!(shared.try_enqueue(empty, false).is_err());
        assert_eq!(shared.queue.lock().unwrap().len(), 0);
    }

    /// A worker executing a queued job twice hits the cache the second
    /// time and produces an identical report (modulo telemetry).
    #[test]
    fn execute_is_deterministic_and_cache_flags_are_honest() {
        let shared = Shared::new(1, 4, 64 << 20, 1, None, 256, 1);
        let spec = mini_spec();
        shared.try_enqueue(spec.clone(), false).unwrap();
        shared.try_enqueue(spec, false).unwrap();
        let mut queue = shared.queue.lock().unwrap();
        let first = queue.pop_front().unwrap();
        let second = queue.pop_front().unwrap();
        drop(queue);
        assert_eq!(first.key, second.key, "same workload, same key");
        let cold = execute(&shared, &first).unwrap();
        let warm = execute(&shared, &second).unwrap();
        assert_eq!(cold.tier, CacheTier::Cold);
        assert_eq!(warm.tier, CacheTier::Memory);
        assert_eq!(cold.digest, warm.digest);
        assert_eq!(
            (cold.seeds, cold.tdv, cold.tsl_proposed),
            (warm.seeds, warm.tdv, warm.tsl_proposed)
        );
        let stats = shared.cache.lock().unwrap().stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    /// With a store dir configured, the same two-execution sequence
    /// writes through on the cold run; a fresh `Shared` on the same
    /// directory (a simulated restart) serves the job from the disk
    /// tier with no synthesis and a bit-identical digest.
    #[test]
    fn disk_tier_survives_a_simulated_restart() {
        let dir = std::env::temp_dir().join(format!("ss-server-disk-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let shared = Shared::new(
            1,
            4,
            64 << 20,
            1,
            Some(DiskTier::open(&dir).unwrap()),
            256,
            1,
        );
        let spec = mini_spec();
        shared.try_enqueue(spec.clone(), false).unwrap();
        let job = shared.queue.lock().unwrap().pop_front().unwrap();
        let cold = execute(&shared, &job).unwrap();
        assert_eq!(cold.tier, CacheTier::Cold);
        assert_eq!(shared.stats().store_writes, 1);
        drop(shared);

        // restart: fresh memory cache, same directory
        let shared = Shared::new(
            1,
            4,
            64 << 20,
            1,
            Some(DiskTier::open(&dir).unwrap()),
            256,
            1,
        );
        assert_eq!(shared.stats().disk.entries, 1, "index warm-started");
        shared.try_enqueue(spec, false).unwrap();
        let job = shared.queue.lock().unwrap().pop_front().unwrap();
        let warm = execute(&shared, &job).unwrap();
        assert_eq!(warm.tier, CacheTier::Disk);
        assert_eq!(warm.digest, cold.digest);
        let stats = shared.stats();
        assert_eq!(stats.disk.hits, 1);
        assert_eq!(stats.synthesis.count, 0, "no synthesis after restart");
        assert_eq!(stats.disk_corruptions, 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    fn sharded(peers: &[&str], id: usize) -> Shared {
        sharded_with_replicas(peers, id, 1)
    }

    fn sharded_with_replicas(peers: &[&str], id: usize, replicas: usize) -> Shared {
        let shared = Shared::new(1, 4, 1 << 20, 1, None, 256, replicas);
        let spec = ShardSpec {
            peers: peers.iter().map(|s| (*s).to_string()).collect(),
            id,
            epoch: 0,
        };
        *shared.shards.lock().unwrap() = Some(ShardState {
            ring: spec.ring().unwrap(),
            id: Some(spec.id),
            self_addr: spec.self_addr().to_string(),
        });
        shared
    }

    /// A sharded server redirects a plain submission it does not own
    /// to the owner's address, serves the key it does own, and
    /// always serves direct submissions — on the canonical key, so a
    /// non-canonical text variant redirects to the same owner.
    #[test]
    fn non_owners_redirect_and_direct_submissions_stick() {
        let peers = ["10.0.0.1:7113", "10.0.0.2:7113", "10.0.0.3:7113"];
        let mut spec = mini_spec();
        let canonical_key = {
            let set = TestSet::from_text(&spec.set_text).unwrap();
            let mut c = spec.clone();
            c.set_text = set.to_text();
            cache_key(&c)
        };
        let ring = ShardRing::new(peers.iter().map(|s| (*s).to_string()).collect()).unwrap();
        let owner = ring.owner(canonical_key);
        let non_owner = (owner + 1) % peers.len();

        let shared = sharded(&peers, non_owner);
        match shared.try_enqueue(spec.clone(), false).unwrap() {
            Enqueue::Redirect(addr) => assert_eq!(addr, peers[owner]),
            other => panic!("expected a redirect, got {other:?}"),
        }
        assert_eq!(shared.stats().redirects, 1);
        assert_eq!(shared.queue.lock().unwrap().len(), 0, "nothing queued");
        // the request path agrees: a plain Submit always redirects
        match respond(&shared, Request::Submit(spec.clone())) {
            Response::Redirect { addr, .. } => assert_eq!(addr, peers[owner]),
            other => panic!("expected a redirect, got {other:?}"),
        }

        // same workload, non-canonical text: same owner
        spec.set_text = format!("# comment\n{}", spec.set_text);
        match shared.try_enqueue(spec.clone(), false).unwrap() {
            Enqueue::Redirect(addr) => assert_eq!(addr, peers[owner]),
            other => panic!("expected a redirect, got {other:?}"),
        }

        // direct lands locally even on the non-owner (failover path)
        assert!(matches!(
            shared.try_enqueue(spec.clone(), true).unwrap(),
            Enqueue::Queued(_)
        ));

        // the owner serves its own key
        let shared = sharded(&peers, owner);
        assert!(matches!(
            shared.try_enqueue(spec, false).unwrap(),
            Enqueue::Queued(_)
        ));
        let stats = shared.stats();
        assert_eq!(stats.redirects, 0);
        assert_eq!((stats.shard_id, stats.shard_count), (owner as u32, 3));
    }

    /// The accept gate: permits are bounded, shed connections get a
    /// parsable Busy reply without a handler thread, and dropping a
    /// permit frees its slot.
    #[test]
    fn accept_gate_bounds_connections_and_sheds_with_busy() {
        let shared = Arc::new(Shared::new(1, 4, 1 << 20, 1, None, 2, 1));
        let a = ConnPermit::try_acquire(&shared).expect("slot 1");
        let b = ConnPermit::try_acquire(&shared).expect("slot 2");
        assert!(
            ConnPermit::try_acquire(&shared).is_none(),
            "gate must be full at its bound"
        );
        assert_eq!(shared.conn_active.load(Ordering::Relaxed), 2);
        drop(a);
        let c = ConnPermit::try_acquire(&shared).expect("freed slot is reusable");
        drop(b);
        drop(c);
        assert_eq!(shared.conn_active.load(Ordering::Relaxed), 0);

        // end to end: a server bound at 1 connection sheds the second
        // with a typed Busy while the first is parked inside a handler
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let gate = Arc::new(Shared::new(1, 4, 1 << 20, 1, None, 1, 1));
        let accept_gate = Arc::clone(&gate);
        let accept = thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                dispatch_connection(&accept_gate, stream);
            }
        });
        let hold = TcpStream::connect(addr).unwrap();
        // wait until the first handler actually owns its permit
        while gate.conn_active.load(Ordering::Relaxed) == 0 {
            thread::yield_now();
        }
        let mut shed = TcpStream::connect(addr).unwrap();
        let payload = crate::protocol::read_frame(&mut shed).unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Busy { queued, capacity } => assert_eq!((queued, capacity), (1, 1)),
            other => panic!("shed reply was {other:?}"),
        }
        accept.join().unwrap();
        assert_eq!(gate.stats().connections_shed, 1);
        assert_eq!(gate.stats().connections_max, 1);
        assert_eq!(gate.stats().connections_active, 1);
        drop(hold);
    }

    /// `Reconfigure` swaps the ring live: the epoch advances exactly
    /// once per new view, stale epochs are idempotent, departed peers
    /// are pruned from the health table, and a server reconfigured out
    /// of its own ring owns nothing (it redirects every plain
    /// submission). Unsharded servers refuse outright.
    #[test]
    fn reconfigure_swaps_the_ring_live_and_is_idempotent() {
        let shared = sharded_with_replicas(&["a:1", "b:1", "c:1"], 0, 2);
        shared.note_peer("c:1", false);
        assert_eq!(shared.stats().peers_down, 1);

        let epoch = apply_reconfigure(&shared, 1, vec!["a:1".into(), "b:1".into()]).unwrap();
        assert_eq!(epoch, 1);
        let stats = shared.stats();
        assert_eq!(
            (stats.epoch, stats.shard_count, stats.reconfigures),
            (1, 2, 1)
        );
        assert_eq!(stats.peers_down, 0, "departed peer pruned from health");

        // a stale epoch answers the epoch in force, changes nothing
        assert_eq!(
            apply_reconfigure(&shared, 1, vec!["z:1".into()]).unwrap(),
            1
        );
        assert_eq!(shared.stats().reconfigures, 1);

        // removed from its own ring: still serving, owns nothing
        apply_reconfigure(&shared, 2, vec!["b:1".into(), "c:1".into()]).unwrap();
        assert_eq!(shared.membership().1, u32::MAX);
        assert!(matches!(
            shared.try_enqueue(mini_spec(), false).unwrap(),
            Enqueue::Redirect(_)
        ));

        let plain = Shared::new(1, 4, 1 << 20, 1, None, 256, 1);
        assert!(apply_reconfigure(&plain, 1, vec!["a:1".into()]).is_err());
    }

    /// The re-replication delta: targets are exactly the members of
    /// the new replica set that neither held the key before nor are
    /// this server.
    #[test]
    fn replica_targets_cover_exactly_the_new_holders() {
        use crate::cache::Fnv64;
        let old = ShardRing::new(vec!["a:1".into(), "b:1".into(), "c:1".into()]).unwrap();
        let new =
            ShardRing::new(vec!["a:1".into(), "b:1".into(), "c:1".into(), "d:1".into()]).unwrap();
        for seed in 0..500u64 {
            let mut h = Fnv64::new();
            h.write_u64(seed);
            let key = h.finish();
            let old_set: HashSet<String> = old.replicas(key, 2).into_iter().collect();
            match replica_targets(&old, &new, key, 2, "a:1") {
                Some(targets) => {
                    for t in &targets {
                        assert!(!old_set.contains(t), "already a holder");
                        assert_ne!(t, "a:1", "never pushes to itself");
                        assert!(new.replicas(key, 2).contains(t), "not a new holder");
                    }
                }
                None => {
                    for t in new.replicas(key, 2) {
                        assert!(old_set.contains(&t) || t == "a:1");
                    }
                }
            }
        }
    }

    #[test]
    fn replication_queue_is_bounded_and_drops_are_counted() {
        let shared = Shared::new(1, 4, 1 << 20, 1, None, 256, 2);
        for _ in 0..(REPLICATION_QUEUE_DEPTH + 5) {
            shared.push_replication(ReplicationTask {
                key: 1,
                entry: None,
                targets: vec!["x:1".into()],
                trace: 0,
            });
        }
        assert_eq!(
            shared.repl_queue.lock().unwrap().len(),
            REPLICATION_QUEUE_DEPTH
        );
        assert_eq!(shared.stats().replica_queue_drops, 5);
    }

    /// Replica ingestion verifies before serving: garbage and lying
    /// digests are refused, a genuine envelope lands in the memory
    /// tier and serves bit-identically — with zero synthesis recorded,
    /// because ingestion is not service traffic.
    #[test]
    fn replica_ingestion_verifies_before_serving() {
        let shared = Shared::new(1, 4, 64 << 20, 1, None, 256, 2);
        assert!(matches!(
            ingest_replica(&shared, 7, &[0u8; 16], 0),
            Response::Error(_)
        ));
        assert_eq!(shared.stats().replicas_received, 0);

        // produce a genuine envelope on a second, unrelated server
        let producer = Shared::new(1, 4, 64 << 20, 1, None, 256, 1);
        producer.try_enqueue(mini_spec(), false).unwrap();
        let job = producer.queue.lock().unwrap().pop_front().unwrap();
        let cold = execute(&producer, &job).unwrap();
        let (key, entry) = producer.cache.lock().unwrap().entries().pop().unwrap();
        let artifact = Artifact {
            ctx: entry.ctx.clone(),
            set: entry.set.clone(),
            dropped: entry.dropped as u64,
            encoding: entry.encoding.clone(),
            report_digest: entry.report_digest,
        };

        let bytes = artifact.to_bytes(key);
        assert!(matches!(
            ingest_replica(&shared, key, &bytes, 0),
            Response::Ack { .. }
        ));
        let stats = shared.stats();
        assert_eq!(stats.replicas_received, 1);
        assert_eq!(stats.synthesis.count, 0, "ingestion never synthesizes");

        // the replica actually serves, bit-identical, from memory
        shared.try_enqueue(mini_spec(), true).unwrap();
        let job = shared.queue.lock().unwrap().pop_front().unwrap();
        let warm = execute(&shared, &job).unwrap();
        assert_eq!(warm.tier, CacheTier::Memory);
        assert_eq!(warm.digest, cold.digest);

        // a digest the artifacts cannot reproduce is refused
        let mut lying = artifact;
        lying.report_digest ^= 1;
        assert!(matches!(
            ingest_replica(&shared, key, &lying.to_bytes(key), 0),
            Response::Error(_)
        ));
        assert_eq!(shared.stats().replicas_received, 1);
    }

    /// `Ping` answers the membership view — and on an unsharded server
    /// the "not a member" sentinel, so probes never confuse modes.
    #[test]
    fn ping_answers_the_membership_view() {
        let shared = sharded(&["a:1", "b:1"], 1);
        match respond(&shared, Request::Ping) {
            Response::Pong {
                epoch,
                shard_id,
                peers,
            } => {
                assert_eq!((epoch, shard_id), (0, 1));
                assert_eq!(peers, vec!["a:1".to_string(), "b:1".to_string()]);
            }
            other => panic!("expected Pong, got {other:?}"),
        }
        let plain = Shared::new(1, 4, 1 << 20, 1, None, 256, 1);
        match respond(&plain, Request::Ping) {
            Response::Pong {
                epoch,
                shard_id,
                peers,
            } => {
                assert_eq!((epoch, shard_id), (0, u32::MAX));
                assert!(peers.is_empty());
            }
            other => panic!("expected Pong, got {other:?}"),
        }
    }
}
