//! The `ss-server` wire protocol: length-prefixed, versioned binary
//! messages over any byte stream.
//!
//! # Frame grammar
//!
//! ```text
//! frame    := length payload
//! length   := u32 BE                  ; bytes in payload, <= 64 MiB
//! payload  := version tag body
//! version  := u8                      ; PROTOCOL_VERSION, exactly
//! tag      := u8                      ; message discriminant
//! body     := tag-specific fields
//! ```
//!
//! Scalar fields are big-endian fixed-width integers; strings are a
//! `u32` byte length followed by UTF-8 bytes. Every request receives
//! exactly one response on the same connection, so a connection is a
//! simple synchronous request/response channel that can be reused for
//! any number of requests. A [`Request::Submit`] is answered with the
//! job's report, so one job is one round trip and a connection has at
//! most one job in flight.
//!
//! Every connection — client or shard-to-shard — opens with one plain
//! frame carrying [`Request::Hello`], answered by one plain frame
//! carrying [`Response::HelloAck`] with the agreed codec parameters.
//! From then on both sides speak through the [`codec`](crate::codec)
//! chain: one message spans one or more CRC-guarded chunk frames, and
//! the chunk payloads reassemble into the `payload` above.
//!
//! The version byte leads every payload and must equal
//! [`PROTOCOL_VERSION`]; any other value decodes to
//! [`WireError::Version`] before a tag is interpreted. A server answers
//! an opening message that is not a `Hello` at this version with one
//! [`Response::Error`] and closes the connection.

use std::fmt;
use std::io::{Read, Write};

use ss_core::EngineConfig;
use ss_lfsr::LfsrKind;
use ss_testdata::TestSet;

pub use ss_telemetry::{Span, SpanDump, SpanKind, TraceContext};

use crate::codec::{CodecConfig, MAX_MESSAGE_BYTES};

/// Protocol version spoken by this build; a peer stamping any other
/// value is refused.
pub const PROTOCOL_VERSION: u8 = 8;

/// The [`Response::Error`] text a submission gets when its server
/// stops before the job's outcome is ready. The job itself was fine,
/// so a client treats it as retryable on another shard.
pub const SHUTTING_DOWN: &str = "server shutting down";

/// Hard ceiling on a single frame's payload, guarding both peers
/// against unbounded allocation from a hostile or corrupt stream.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Error decoding a frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// The peer speaks a different protocol version.
    Version(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Declared frame length exceeds [`MAX_FRAME_BYTES`].
    Oversize(usize),
    /// A field held a value outside its domain (enum discriminant out
    /// of range, trailing bytes, ...).
    BadField(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame payload is truncated"),
            WireError::Version(v) => write!(
                f,
                "peer speaks protocol version {v}, this build speaks {PROTOCOL_VERSION}"
            ),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Oversize(n) => write!(
                f,
                "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            ),
            WireError::BadField(name) => write!(f, "field {name} holds an invalid value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A compression job as it travels over the wire: the workload (cube
/// set in the workspace text format) plus every engine knob that
/// shapes the result.
///
/// The `threads` knob deliberately does **not** travel: results are
/// bit-identical at every thread count, so the server picks its own
/// per-job parallelism (total capacity divided among job slots) and the
/// cache key stays thread-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The cube set, serialised with `TestSet::to_text` (header +
    /// one `01X` cube per line).
    pub set_text: String,
    /// Window length `L`.
    pub window: u32,
    /// Segment size `S`.
    pub segment: u32,
    /// State Skip speedup factor `k`.
    pub speedup: u64,
    /// Explicit LFSR size, or 0 for the engine default (`smax + 4`).
    pub lfsr_size: u32,
    /// LFSR feedback structure.
    pub lfsr_kind: LfsrKind,
    /// Phase shifter taps per scan chain.
    pub ps_taps: u32,
    /// RNG seed for phase shifter synthesis.
    pub hw_seed: u64,
    /// RNG seed for the pseudorandom fill of free seed variables.
    pub fill_seed: u64,
    /// Distributed-tracing context (the zero context means untraced). Never shapes results and never enters
    /// the cache key — two submissions differing only here are the
    /// same job.
    pub trace: TraceContext,
}

impl JobSpec {
    /// Builds a spec from a test set and an engine configuration
    /// (the `threads` knob is intentionally dropped; see the type
    /// docs).
    pub fn new(set: &TestSet, config: &EngineConfig) -> Self {
        JobSpec {
            set_text: set.to_text(),
            window: config.window as u32,
            segment: config.segment as u32,
            speedup: config.speedup,
            lfsr_size: config.lfsr_size.unwrap_or(0) as u32,
            lfsr_kind: config.lfsr_kind,
            ps_taps: config.ps_taps as u32,
            hw_seed: config.hw_seed,
            fill_seed: config.fill_seed,
            trace: TraceContext::default(),
        }
    }

    /// The same spec carrying `trace` — how a client stamps a
    /// submission into a trace.
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }
}

/// Which cache tier served a job's synthesis + encode artifacts.
///
/// Ordered by cost: `Memory` skips everything but the cheap final
/// stages, `Disk` additionally rebuilds the expression table from the
/// stored parts, `Cold` pays the full synthesis + encode price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Nothing cached — full synthesis + encode ran.
    Cold,
    /// Served from the persistent artifact store (a restart survivor).
    Disk,
    /// Served from the in-memory LRU.
    Memory,
}

/// Per-connection wire totals as seen by the server at the moment a
/// job's `Done` or `Failed` reply is built: frame counts and
/// raw-vs-wire byte accounting for *this* connection only — the
/// connection-scoped slice of the server-global [`CodecCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnStats {
    /// Chunk frames the server wrote on this connection.
    pub frames_sent: u64,
    /// Chunk frames the server read on this connection.
    pub frames_received: u64,
    /// Message bytes handed to the codec for transmission.
    pub raw_tx_bytes: u64,
    /// Bytes actually put on the wire to carry them.
    pub wire_tx_bytes: u64,
    /// Message bytes reassembled from frames received.
    pub raw_rx_bytes: u64,
    /// Bytes read off the wire to carry them.
    pub wire_rx_bytes: u64,
}

/// Completed-job numbers the server returns — the serving-layer view
/// of a `PipelineReport`, plus cache and timing telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobReport {
    /// LFSR size `n` actually used (pinned before filtering).
    pub lfsr_size: u32,
    /// Window length `L`.
    pub window: u32,
    /// Segment size `S`.
    pub segment: u32,
    /// Speedup factor `k`.
    pub speedup: u64,
    /// Cubes in the submitted set (before unencodable filtering).
    pub cubes: u64,
    /// Intrinsically unencodable cubes dropped before encoding.
    pub dropped: u64,
    /// Seeds stored.
    pub seeds: u64,
    /// Test data volume in bits.
    pub tdv: u64,
    /// TSL of the plain window-based scheme.
    pub tsl_original: u64,
    /// TSL with truncation only (no State Skip).
    pub tsl_truncated: u64,
    /// TSL of the proposed State Skip scheme.
    pub tsl_proposed: u64,
    /// FNV digest over the full encoding (seed bits, placements) and
    /// TSL accounting — equal digests mean bit-identical results (see
    /// [`report_digest`](crate::report_digest)).
    pub digest: u64,
    /// Which cache tier served the synthesis + encode artifacts.
    pub tier: CacheTier,
    /// Server-side service time in microseconds (excludes the wait
    /// for a job slot).
    pub service_micros: u64,
    /// This connection's wire totals at reply time.
    pub conn: ConnStats,
    /// The trace this job was submitted under, echoed back (0 when
    /// untraced) — what a caller feeds `TraceDump` to reconstruct the
    /// timeline.
    pub trace: u64,
    /// The id the server gave this job (unique per server process,
    /// counting from 1).
    pub job: u64,
}

impl JobReport {
    /// Whether the synthesis + encode stages were served from *any*
    /// cache tier.
    pub fn cached(&self) -> bool {
        !matches!(self.tier, CacheTier::Cold)
    }
}

/// Number of log₂-microsecond buckets in a [`PhaseHistogram`]. The
/// last finite bucket ends at 2³² µs ≈ 71.6 min, past the slowest
/// full-scale encode; the open top bucket (≥ 2³² µs) absorbs anything
/// slower.
pub const HISTOGRAM_BUCKETS: usize = 33;

/// A latency histogram for one pipeline phase: sample count, summed
/// microseconds, and log₂-microsecond buckets (bucket `i` counts
/// samples with `2^i ≤ µs < 2^(i+1)`; bucket 0 also counts sub-µs
/// samples; the last bucket is open-ended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples in microseconds (for the mean).
    pub total_micros: u64,
    /// Log₂-microsecond buckets.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for PhaseHistogram {
    fn default() -> Self {
        PhaseHistogram {
            count: 0,
            total_micros: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl PhaseHistogram {
    /// Index of the bucket a sample of `micros` lands in.
    pub fn bucket_index(micros: u64) -> usize {
        if micros <= 1 {
            0
        } else {
            ((63 - micros.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, micros: u64) {
        self.count += 1;
        self.total_micros = self.total_micros.saturating_add(micros);
        self.buckets[Self::bucket_index(micros)] += 1;
    }

    /// Mean sample in microseconds, or 0 with no samples.
    pub fn mean_micros(&self) -> u64 {
        self.total_micros.checked_div(self.count).unwrap_or(0)
    }

    /// Folds another histogram into this one — the fleet-aggregate
    /// summary sums every shard's histograms bucket by bucket.
    pub fn merge(&mut self, other: &PhaseHistogram) {
        self.count += other.count;
        self.total_micros = self.total_micros.saturating_add(other.total_micros);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Approximate `p`-th percentile (`0.0 < p <= 1.0`) in
    /// microseconds: the inclusive upper bound of the first bucket the
    /// cumulative count reaches the rank in. Log₂ buckets bound the
    /// answer within 2× of the true sample; the open-ended top bucket
    /// answers `u64::MAX` ("slower than the histogram resolves"), and
    /// an empty histogram answers 0.
    pub fn percentile_micros(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return if i == HISTOGRAM_BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }
}

/// Hit/miss and occupancy counters for one cache tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Lookups served by this tier since startup.
    pub hits: u64,
    /// Lookups that fell through this tier since startup.
    pub misses: u64,
    /// Entries currently resident in the tier.
    pub entries: u64,
    /// (Approximate) bytes currently resident in the tier.
    pub bytes: u64,
    /// Tier capacity in bytes; 0 means unbounded (the disk tier).
    pub capacity_bytes: u64,
    /// Entries evicted since startup (LRU pressure for the memory
    /// tier; integrity-check removals for the disk tier).
    pub evictions: u64,
}

/// Wire-codec telemetry: connections opened, chunk traffic, integrity
/// rejections, and raw-vs-wire byte accounting for the compression
/// stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodecCounters {
    /// Connections that completed the `Hello` exchange.
    pub connections: u64,
    /// Chunk frames written by the server.
    pub frames_sent: u64,
    /// Chunk frames read by the server.
    pub frames_received: u64,
    /// Chunks rejected by the per-chunk CRC-32 check since startup.
    pub crc_rejects: u64,
    /// Message bytes handed to the codec for transmission.
    pub raw_tx_bytes: u64,
    /// Bytes actually put on the wire for those messages (compressed,
    /// plus chunk framing overhead).
    pub wire_tx_bytes: u64,
    /// Message bytes reassembled from received frames.
    pub raw_rx_bytes: u64,
    /// Bytes read off the wire to carry them.
    pub wire_rx_bytes: u64,
}

impl CodecCounters {
    /// Bytes the compression stage saved on transmit (0 when framing
    /// overhead ate the savings).
    pub fn tx_bytes_saved(&self) -> u64 {
        self.raw_tx_bytes.saturating_sub(self.wire_tx_bytes)
    }

    /// Transmit compression ratio `raw / wire` (1.0 when nothing has
    /// been sent).
    pub fn tx_ratio(&self) -> f64 {
        if self.wire_tx_bytes == 0 {
            1.0
        } else {
            self.raw_tx_bytes as f64 / self.wire_tx_bytes as f64
        }
    }
}

/// Aggregate server telemetry, answered to [`Request::Stats`]: job
/// gate state, per-tier cache counters, persistent-store counters, and
/// per-phase latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Job slots: how many jobs run at once.
    pub workers: u32,
    /// How many submissions may wait for a job slot.
    pub queue_capacity: u32,
    /// Submissions currently waiting for a job slot (not running).
    pub queued: u32,
    /// Jobs completed (successfully or not) since startup.
    pub jobs_done: u64,
    /// Submissions rejected with `Busy` since startup.
    pub busy_rejections: u64,
    /// Jobs that joined an identical in-flight cold computation
    /// instead of re-running it (request coalescing).
    pub coalesced: u64,
    /// The in-memory LRU tier.
    pub memory: TierStats,
    /// The persistent artifact-store tier (entries/bytes are 0 when no
    /// `--store-dir` is configured).
    pub disk: TierStats,
    /// Artifacts written through to the persistent store since
    /// startup.
    pub store_writes: u64,
    /// Artifact files rejected by an integrity check (envelope
    /// checksum or report-digest mismatch) since startup; each was
    /// evicted and recomputed cold.
    pub disk_corruptions: u64,
    /// Latency of the synthesis phase (LFSR + phase shifter +
    /// expression table), cold jobs only.
    pub synthesis: PhaseHistogram,
    /// Latency of the seed-encoding phase, cold jobs only.
    pub encode: PhaseHistogram,
    /// Latency of the embedding phase, counted only for runs that
    /// compute: cold jobs, and the verification of a disk load or a
    /// replica push. A memory hit answers from its cache slot and runs
    /// no phase.
    pub embed: PhaseHistogram,
    /// Latency of the segmentation + finish phase, counted for the
    /// same runs as [`embed`](Self::embed).
    pub segment: PhaseHistogram,
    /// Wire-codec telemetry.
    pub codec: CodecCounters,
    /// Connections currently inside the bounded accept gate.
    pub connections_active: u32,
    /// Concurrent-connection bound of the accept gate.
    pub connections_max: u32,
    /// Connections shed at the gate with a `Busy` reply because the
    /// bound was reached.
    pub connections_shed: u64,
    /// Misrouted submissions answered with [`Response::Redirect`] to
    /// the owning shard.
    pub redirects: u64,
    /// This server's index into the fleet peer list (0 when unsharded
    /// — check `shard_count` first). [`SHARD_REMOVED`] (`u32::MAX`)
    /// when a `Reconfigure` dropped this server from its own ring.
    pub shard_id: u32,
    /// Shards in the fleet this server belongs to (0 means the server
    /// is not sharded).
    pub shard_count: u32,
    /// Ring epoch this server is currently serving under (0 until the
    /// first `Reconfigure`, and always 0 when unsharded).
    pub epoch: u64,
    /// Artifact envelopes this shard pushed to ring peers and saw
    /// acknowledged.
    pub replicas_sent: u64,
    /// Artifact envelopes this shard accepted from ring peers after
    /// integrity verification.
    pub replicas_received: u64,
    /// Replication work items dropped because the bounded write-behind
    /// queue was full or the envelope exceeded the message cap.
    pub replica_queue_drops: u64,
    /// `Reconfigure` messages that actually advanced the ring epoch
    /// (stale or repeated epochs are acked but not counted).
    pub reconfigures: u64,
    /// Ring peers the health prober currently considers unreachable.
    pub peers_down: u32,
    /// Spans ever recorded into this server's trace ring.
    pub spans_recorded: u64,
    /// Spans overwritten in the trace ring under capacity pressure.
    pub spans_evicted: u64,
}

/// [`ServerStats::shard_id`] of a server that a `Reconfigure` removed
/// from its own ring: it still serves, but owns no slot.
pub const SHARD_REMOVED: u32 = u32::MAX;

/// How a fleet combines one [`ServerStats`] field across its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// A counter or gauge: the fleet value is the sum over shards.
    Sum,
    /// Where the server sits in its fleet (shard id, shard count, ring
    /// epoch): a fleet has no single value, so it is never summed.
    Label,
    /// A latency histogram, merged bucket-wise with
    /// [`PhaseHistogram::merge`].
    Histogram,
}

/// One [`ServerStats`] field's value; the variant is its width on the
/// wire.
// A `StatValue` lives for one walk over a Stats snapshot, so the
// histogram stays inline rather than boxed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatValue {
    /// A 32-bit counter, gauge or label.
    U32(u32),
    /// A 64-bit counter, gauge or label.
    U64(u64),
    /// A phase-latency histogram.
    Histogram(PhaseHistogram),
}

/// One entry of [`ServerStats::fields`]: the field's dotted name (its
/// path, like `memory.hits`, or `phase.<name>` for a histogram; the
/// `stats --json` key), its kind and its value.
pub type StatField = (&'static str, StatKind, StatValue);

/// A mutable borrow of one [`ServerStats`] field.
enum Slot<'a> {
    U32(&'a mut u32),
    U64(&'a mut u64),
    Histogram(&'a mut PhaseHistogram),
}

impl ServerStats {
    /// The one list of fields, in wire order: each field's dotted
    /// name, kind and a borrow of it. The wire codec, [`Self::fields`]
    /// and [`Self::merge`] all walk it, so a new metric is one line
    /// here (plus the struct field and the server's bump of it).
    #[rustfmt::skip] // one line per field, however long
    fn slots(&mut self) -> Vec<(&'static str, StatKind, Slot<'_>)> {
        use Slot::{Histogram as H, U32, U64};
        use StatKind::{Histogram, Label, Sum};
        let (m, d, c) = (&mut self.memory, &mut self.disk, &mut self.codec);
        vec![
            ("workers", Sum, U32(&mut self.workers)),
            ("queue_capacity", Sum, U32(&mut self.queue_capacity)),
            ("queued", Sum, U32(&mut self.queued)),
            ("jobs_done", Sum, U64(&mut self.jobs_done)),
            ("busy_rejections", Sum, U64(&mut self.busy_rejections)),
            ("coalesced", Sum, U64(&mut self.coalesced)),
            ("memory.hits", Sum, U64(&mut m.hits)),
            ("memory.misses", Sum, U64(&mut m.misses)),
            ("memory.entries", Sum, U64(&mut m.entries)),
            ("memory.bytes", Sum, U64(&mut m.bytes)),
            ("memory.capacity_bytes", Sum, U64(&mut m.capacity_bytes)),
            ("memory.evictions", Sum, U64(&mut m.evictions)),
            ("disk.hits", Sum, U64(&mut d.hits)),
            ("disk.misses", Sum, U64(&mut d.misses)),
            ("disk.entries", Sum, U64(&mut d.entries)),
            ("disk.bytes", Sum, U64(&mut d.bytes)),
            ("disk.capacity_bytes", Sum, U64(&mut d.capacity_bytes)),
            ("disk.evictions", Sum, U64(&mut d.evictions)),
            ("store_writes", Sum, U64(&mut self.store_writes)),
            ("disk_corruptions", Sum, U64(&mut self.disk_corruptions)),
            ("phase.synthesis", Histogram, H(&mut self.synthesis)),
            ("phase.encode", Histogram, H(&mut self.encode)),
            // embed and segment count cold runs and disk/replica verification, never memory hits
            ("phase.embed", Histogram, H(&mut self.embed)),
            ("phase.segment", Histogram, H(&mut self.segment)),
            ("codec.connections", Sum, U64(&mut c.connections)),
            ("codec.frames_sent", Sum, U64(&mut c.frames_sent)),
            ("codec.frames_received", Sum, U64(&mut c.frames_received)),
            ("codec.crc_rejects", Sum, U64(&mut c.crc_rejects)),
            ("codec.raw_tx_bytes", Sum, U64(&mut c.raw_tx_bytes)),
            ("codec.wire_tx_bytes", Sum, U64(&mut c.wire_tx_bytes)),
            ("codec.raw_rx_bytes", Sum, U64(&mut c.raw_rx_bytes)),
            ("codec.wire_rx_bytes", Sum, U64(&mut c.wire_rx_bytes)),
            ("connections_active", Sum, U32(&mut self.connections_active)),
            ("connections_max", Sum, U32(&mut self.connections_max)),
            ("connections_shed", Sum, U64(&mut self.connections_shed)),
            ("redirects", Sum, U64(&mut self.redirects)),
            ("shard_id", Label, U32(&mut self.shard_id)),
            ("shard_count", Label, U32(&mut self.shard_count)),
            ("epoch", Label, U64(&mut self.epoch)),
            ("replicas_sent", Sum, U64(&mut self.replicas_sent)),
            ("replicas_received", Sum, U64(&mut self.replicas_received)),
            ("replica_queue_drops", Sum, U64(&mut self.replica_queue_drops)),
            ("reconfigures", Sum, U64(&mut self.reconfigures)),
            ("peers_down", Sum, U32(&mut self.peers_down)),
            ("spans_recorded", Sum, U64(&mut self.spans_recorded)),
            ("spans_evicted", Sum, U64(&mut self.spans_evicted)),
        ]
    }

    /// Every field in wire order.
    pub fn fields(&self) -> Vec<StatField> {
        let mut copy = *self;
        let slots = copy.slots().into_iter();
        slots
            .map(|(name, kind, slot)| match slot {
                Slot::U32(v) => (name, kind, StatValue::U32(*v)),
                Slot::U64(v) => (name, kind, StatValue::U64(*v)),
                Slot::Histogram(h) => (name, kind, StatValue::Histogram(*h)),
            })
            .collect()
    }

    /// Folds another shard's snapshot into this fleet aggregate:
    /// counters and gauges add (saturating), histograms merge bucket by
    /// bucket, and labels keep this side's value.
    pub fn merge(&mut self, other: &ServerStats) {
        for ((_, kind, mine), theirs) in self.slots().into_iter().zip(other.fields()) {
            match (kind, mine, theirs.2) {
                (StatKind::Label, ..) => {}
                (_, Slot::U32(a), StatValue::U32(b)) => *a = a.saturating_add(b),
                (_, Slot::U64(a), StatValue::U64(b)) => *a = a.saturating_add(b),
                (_, Slot::Histogram(a), StatValue::Histogram(b)) => a.merge(&b),
                _ => unreachable!("both sides walk the same field list"),
            }
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Offer a codec configuration — the opening message of every
    /// connection; answered with `HelloAck` carrying the agreed
    /// configuration. Travels as a plain frame — the codec starts with
    /// the *next* message.
    Hello(CodecConfig),
    /// Run a job. Answered once the server has run it, with `Done` or
    /// `Failed`; or straight away with `Busy` (the wait for a job slot
    /// is full), `Error`
    /// (rejected at the door, or shutdown) or — on a sharded server
    /// that does not own the job's content key — `Redirect`.
    Submit(JobSpec),
    /// Run a job on *this* shard regardless of key ownership: the
    /// balancer's failover path when the owning shard is down, and the
    /// reason a redirect chain can never loop.
    /// Answered as `Submit`, but never with `Redirect`.
    SubmitDirect(JobSpec),
    /// Fetch aggregate telemetry; answered with `Stats`.
    Stats,
    /// A ring peer pushing a finished artifact envelope for a key this
    /// server is a replica of (shard-to-shard). The bytes are
    /// an `ss-store` artifact envelope for `key`; the receiver verifies
    /// it end to end before admitting it to its cache tiers. Answered
    /// with `Ack` (or `Error` if the envelope fails verification).
    Replicate {
        /// Ring epoch the sender was serving under.
        epoch: u64,
        /// Content key of the replicated artifact.
        key: u64,
        /// Serialised artifact envelope (`Artifact::to_bytes`).
        bytes: Vec<u8>,
        /// The trace that last produced or served the artifact, so the
        /// receiver's ingest span lands in the causing trace (0 when
        /// untraced).
        trace: u64,
    },
    /// Administratively swap the fleet's peer list. An epoch
    /// above the server's current one atomically installs the new ring
    /// and triggers re-replication of keys whose ranked set changed; a
    /// stale or equal epoch is acked idempotently without any change.
    /// Answered with `Ack` carrying the epoch actually in force.
    Reconfigure {
        /// Monotonic ring epoch the new peer list is stamped with.
        epoch: u64,
        /// The full new fleet address list, in ring order.
        peers: Vec<String>,
    },
    /// Lightweight liveness + membership probe; answered
    /// with `Pong` carrying the server's epoch, shard id, and peer
    /// list — the gossip channel epochs converge through.
    Ping,
    /// Drain the server's span ring for one trace (admin);
    /// `trace` 0 asks for every resident span. Answered with `Spans`.
    TraceDump {
        /// The trace to dump, or 0 for everything.
        trace: u64,
    },
}

/// Server → client messages.
// `Stats` dwarfs the other variants (four phase histograms), but a
// `Response` is built once per request and dropped after one write —
// boxing would complicate every construction site to shrink a
// short-lived stack value nothing stores in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The wait for a job slot is full — backpressure, retry later.
    /// A connection shed at the accept gate gets one too, with both
    /// counts set to the connection bound.
    Busy {
        /// Submissions currently waiting for a job slot.
        queued: u32,
        /// How many submissions may wait.
        capacity: u32,
    },
    /// The job finished.
    Done(JobReport),
    /// The job ran and failed (bad workload, engine error, ...).
    Failed {
        /// What went wrong.
        message: String,
        /// This connection's wire totals at reply time, exactly as a
        /// `Done` carries them — a failed submission still reports its
        /// frame/byte costs.
        conn: ConnStats,
    },
    /// Aggregate telemetry.
    Stats(ServerStats),
    /// Protocol-level error (malformed frame, version mismatch,
    /// missing `Hello`, a submission rejected at the door, shutdown).
    Error(String),
    /// The agreed codec configuration (answer to [`Request::Hello`]).
    /// Travels as a plain frame — the codec starts with the *next*
    /// message.
    HelloAck(CodecConfig),
    /// This shard does not own the submitted key: the
    /// payload is the owning shard's advertised address. Only ever
    /// answers [`Request::Submit`] — a `SubmitDirect` is always served
    /// locally, so following one redirect always terminates.
    Redirect {
        /// The owning shard's advertised address.
        addr: String,
        /// The declined submission's trace, echoed back so the hop
        /// stays attributable (0 when untraced).
        trace: u64,
    },
    /// Liveness + membership answer to [`Request::Ping`]:
    /// the ring epoch this server serves under, its shard id
    /// (`u32::MAX` when the server is not a member of its own ring or
    /// is unsharded), and its current peer list.
    Pong {
        /// Ring epoch in force on the answering server.
        epoch: u64,
        /// The answering server's index into `peers`, or `u32::MAX`.
        shard_id: u32,
        /// The answering server's current fleet address list.
        peers: Vec<String>,
    },
    /// Acknowledgement for [`Request::Replicate`] and
    /// [`Request::Reconfigure`], carrying the ring epoch in
    /// force after the request was applied.
    Ack {
        /// Ring epoch in force on the answering server.
        epoch: u64,
    },
    /// The span-ring contents for one trace (answers
    /// [`Request::TraceDump`]): the matching spans plus the clock pair
    /// that lets a stitcher place them on the wall clock.
    Spans(SpanDump),
}

// ---------------------------------------------------------------- tags

// Tags 2, 3, 101 and 103 were retired in version 8 and are never
// reused, so a tag names one message in a capture of any version.

const TAG_SUBMIT: u8 = 1;
const TAG_STATS: u8 = 4;
const TAG_HELLO: u8 = 5;
const TAG_SUBMIT_DIRECT: u8 = 6;
const TAG_REPLICATE: u8 = 7;
const TAG_RECONFIGURE: u8 = 8;
const TAG_PING: u8 = 9;
const TAG_TRACE_DUMP: u8 = 10;

const TAG_BUSY: u8 = 102;
const TAG_DONE: u8 = 104;
const TAG_FAILED: u8 = 105;
const TAG_STATS_REPLY: u8 = 106;
const TAG_ERROR: u8 = 107;
const TAG_HELLO_ACK: u8 = 108;
const TAG_REDIRECT: u8 = 109;
const TAG_PONG: u8 = 110;
const TAG_ACK: u8 = 111;
const TAG_SPANS: u8 = 112;

// ------------------------------------------------------------- writer

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_peers(buf: &mut Vec<u8>, peers: &[String]) {
    put_u32(buf, peers.len() as u32);
    for peer in peers {
        put_str(buf, peer);
    }
}

// ------------------------------------------------------------- reader

/// Forward-only cursor over a frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        // chunked messages may legitimately exceed one frame, so
        // the string cap is the message ceiling, not the frame cap
        if len as u64 > MAX_MESSAGE_BYTES {
            return Err(WireError::Oversize(len));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        if len as u64 > MAX_MESSAGE_BYTES {
            return Err(WireError::Oversize(len));
        }
        Ok(self.take(len)?.to_vec())
    }

    fn peers(&mut self) -> Result<Vec<String>, WireError> {
        let count = self.u32()? as usize;
        // a fleet list is short; push per element rather than trusting
        // a wire-declared capacity
        let mut peers = Vec::new();
        for _ in 0..count {
            peers.push(self.string()?);
        }
        Ok(peers)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::BadField("trailing bytes"))
        }
    }
}

fn kind_to_u8(kind: LfsrKind) -> u8 {
    match kind {
        LfsrKind::Fibonacci => 0,
        LfsrKind::Galois => 1,
    }
}

fn kind_from_u8(v: u8) -> Result<LfsrKind, WireError> {
    match v {
        0 => Ok(LfsrKind::Fibonacci),
        1 => Ok(LfsrKind::Galois),
        _ => Err(WireError::BadField("lfsr_kind")),
    }
}

fn put_spec(buf: &mut Vec<u8>, spec: &JobSpec) {
    put_u32(buf, spec.window);
    put_u32(buf, spec.segment);
    put_u64(buf, spec.speedup);
    put_u32(buf, spec.lfsr_size);
    put_u8(buf, kind_to_u8(spec.lfsr_kind));
    put_u32(buf, spec.ps_taps);
    put_u64(buf, spec.hw_seed);
    put_u64(buf, spec.fill_seed);
    put_str(buf, &spec.set_text);
    put_u64(buf, spec.trace.trace);
    put_u64(buf, spec.trace.parent);
    put_u32(buf, spec.trace.hop);
}

fn read_spec(r: &mut Reader<'_>) -> Result<JobSpec, WireError> {
    Ok(JobSpec {
        window: r.u32()?,
        segment: r.u32()?,
        speedup: r.u64()?,
        lfsr_size: r.u32()?,
        lfsr_kind: kind_from_u8(r.u8()?)?,
        ps_taps: r.u32()?,
        hw_seed: r.u64()?,
        fill_seed: r.u64()?,
        set_text: r.string()?,
        trace: TraceContext {
            trace: r.u64()?,
            parent: r.u64()?,
            hop: r.u32()?,
        },
    })
}

fn put_span(buf: &mut Vec<u8>, span: &Span) {
    put_u64(buf, span.trace);
    put_u64(buf, span.id);
    put_u64(buf, span.parent);
    put_u8(buf, span.kind as u8);
    put_u64(buf, span.start_micros);
    put_u64(buf, span.duration_micros);
    put_str(buf, &span.note);
}

fn read_span(r: &mut Reader<'_>) -> Result<Span, WireError> {
    Ok(Span {
        trace: r.u64()?,
        id: r.u64()?,
        parent: r.u64()?,
        kind: SpanKind::from_u8(r.u8()?).ok_or(WireError::BadField("span kind"))?,
        start_micros: r.u64()?,
        duration_micros: r.u64()?,
        note: r.string()?,
    })
}

fn put_span_dump(buf: &mut Vec<u8>, dump: &SpanDump) {
    put_u64(buf, dump.wall_micros);
    put_u64(buf, dump.mono_micros);
    put_u64(buf, dump.recorded);
    put_u64(buf, dump.evicted);
    put_u32(buf, dump.spans.len() as u32);
    for span in &dump.spans {
        put_span(buf, span);
    }
}

fn read_span_dump(r: &mut Reader<'_>) -> Result<SpanDump, WireError> {
    let wall_micros = r.u64()?;
    let mono_micros = r.u64()?;
    let recorded = r.u64()?;
    let evicted = r.u64()?;
    let count = r.u32()? as usize;
    // a span ring is small; push per element rather than trusting a
    // wire-declared capacity
    let mut spans = Vec::new();
    for _ in 0..count {
        spans.push(read_span(r)?);
    }
    Ok(SpanDump {
        wall_micros,
        mono_micros,
        recorded,
        evicted,
        spans,
    })
}

fn put_conn_stats(buf: &mut Vec<u8>, c: &ConnStats) {
    put_u64(buf, c.frames_sent);
    put_u64(buf, c.frames_received);
    put_u64(buf, c.raw_tx_bytes);
    put_u64(buf, c.wire_tx_bytes);
    put_u64(buf, c.raw_rx_bytes);
    put_u64(buf, c.wire_rx_bytes);
}

fn read_conn_stats(r: &mut Reader<'_>) -> Result<ConnStats, WireError> {
    Ok(ConnStats {
        frames_sent: r.u64()?,
        frames_received: r.u64()?,
        raw_tx_bytes: r.u64()?,
        wire_tx_bytes: r.u64()?,
        raw_rx_bytes: r.u64()?,
        wire_rx_bytes: r.u64()?,
    })
}

fn put_report(buf: &mut Vec<u8>, report: &JobReport) {
    put_u32(buf, report.lfsr_size);
    put_u32(buf, report.window);
    put_u32(buf, report.segment);
    put_u64(buf, report.speedup);
    put_u64(buf, report.cubes);
    put_u64(buf, report.dropped);
    put_u64(buf, report.seeds);
    put_u64(buf, report.tdv);
    put_u64(buf, report.tsl_original);
    put_u64(buf, report.tsl_truncated);
    put_u64(buf, report.tsl_proposed);
    put_u64(buf, report.digest);
    put_u8(
        buf,
        match report.tier {
            CacheTier::Cold => 0,
            CacheTier::Disk => 1,
            CacheTier::Memory => 2,
        },
    );
    put_u64(buf, report.service_micros);
    put_conn_stats(buf, &report.conn);
    put_u64(buf, report.trace);
    put_u64(buf, report.job);
}

fn read_report(r: &mut Reader<'_>) -> Result<JobReport, WireError> {
    Ok(JobReport {
        lfsr_size: r.u32()?,
        window: r.u32()?,
        segment: r.u32()?,
        speedup: r.u64()?,
        cubes: r.u64()?,
        dropped: r.u64()?,
        seeds: r.u64()?,
        tdv: r.u64()?,
        tsl_original: r.u64()?,
        tsl_truncated: r.u64()?,
        tsl_proposed: r.u64()?,
        digest: r.u64()?,
        tier: match r.u8()? {
            0 => CacheTier::Cold,
            1 => CacheTier::Disk,
            2 => CacheTier::Memory,
            _ => return Err(WireError::BadField("tier")),
        },
        service_micros: r.u64()?,
        conn: read_conn_stats(r)?,
        trace: r.u64()?,
        job: r.u64()?,
    })
}

fn put_histogram(buf: &mut Vec<u8>, h: &PhaseHistogram) {
    put_u64(buf, h.count);
    put_u64(buf, h.total_micros);
    for &b in &h.buckets {
        put_u64(buf, b);
    }
}

fn read_histogram(r: &mut Reader<'_>) -> Result<PhaseHistogram, WireError> {
    let count = r.u64()?;
    let total_micros = r.u64()?;
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for b in &mut buckets {
        *b = r.u64()?;
    }
    Ok(PhaseHistogram {
        count,
        total_micros,
        buckets,
    })
}

fn put_codec_config(buf: &mut Vec<u8>, c: &CodecConfig) {
    put_u8(buf, c.compress as u8);
    put_u32(buf, c.chunk_bytes);
}

fn read_codec_config(r: &mut Reader<'_>) -> Result<CodecConfig, WireError> {
    let compress = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::BadField("compress")),
    };
    Ok(CodecConfig {
        compress,
        chunk_bytes: r.u32()?,
    })
}

fn put_stats(buf: &mut Vec<u8>, stats: &ServerStats) {
    for (_, _, value) in stats.fields() {
        match value {
            StatValue::U32(v) => put_u32(buf, v),
            StatValue::U64(v) => put_u64(buf, v),
            StatValue::Histogram(h) => put_histogram(buf, &h),
        }
    }
}

fn read_stats(r: &mut Reader<'_>) -> Result<ServerStats, WireError> {
    let mut stats = ServerStats::default();
    for (_, _, slot) in stats.slots() {
        match slot {
            Slot::U32(v) => *v = r.u32()?,
            Slot::U64(v) => *v = r.u64()?,
            Slot::Histogram(h) => *h = read_histogram(r)?,
        }
    }
    Ok(stats)
}

/// Reads a payload's leading version byte, refusing any version but
/// this build's.
fn read_version(r: &mut Reader<'_>) -> Result<(), WireError> {
    match r.u8()? {
        PROTOCOL_VERSION => Ok(()),
        other => Err(WireError::Version(other)),
    }
}

impl Request {
    /// Serialises into a message payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![PROTOCOL_VERSION];
        match self {
            Request::Hello(config) => {
                put_u8(&mut buf, TAG_HELLO);
                put_codec_config(&mut buf, config);
            }
            Request::Submit(spec) => {
                put_u8(&mut buf, TAG_SUBMIT);
                put_spec(&mut buf, spec);
            }
            Request::SubmitDirect(spec) => {
                put_u8(&mut buf, TAG_SUBMIT_DIRECT);
                put_spec(&mut buf, spec);
            }
            Request::Stats => put_u8(&mut buf, TAG_STATS),
            Request::Replicate {
                epoch,
                key,
                bytes,
                trace,
            } => {
                put_u8(&mut buf, TAG_REPLICATE);
                put_u64(&mut buf, *epoch);
                put_u64(&mut buf, *key);
                put_bytes(&mut buf, bytes);
                put_u64(&mut buf, *trace);
            }
            Request::Reconfigure { epoch, peers } => {
                put_u8(&mut buf, TAG_RECONFIGURE);
                put_u64(&mut buf, *epoch);
                put_peers(&mut buf, peers);
            }
            Request::Ping => put_u8(&mut buf, TAG_PING),
            Request::TraceDump { trace } => {
                put_u8(&mut buf, TAG_TRACE_DUMP);
                put_u64(&mut buf, *trace);
            }
        }
        buf
    }

    /// Parses a message payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] for a version other than [`PROTOCOL_VERSION`], an
    /// unknown tag, truncated or trailing bytes, or an out-of-domain
    /// field.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        read_version(&mut r)?;
        let request = match r.u8()? {
            TAG_HELLO => Request::Hello(read_codec_config(&mut r)?),
            TAG_SUBMIT => Request::Submit(read_spec(&mut r)?),
            TAG_SUBMIT_DIRECT => Request::SubmitDirect(read_spec(&mut r)?),
            TAG_STATS => Request::Stats,
            TAG_REPLICATE => Request::Replicate {
                epoch: r.u64()?,
                key: r.u64()?,
                bytes: r.bytes()?,
                trace: r.u64()?,
            },
            TAG_RECONFIGURE => Request::Reconfigure {
                epoch: r.u64()?,
                peers: r.peers()?,
            },
            TAG_PING => Request::Ping,
            TAG_TRACE_DUMP => Request::TraceDump { trace: r.u64()? },
            tag => return Err(WireError::BadTag(tag)),
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Serialises into a message payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![PROTOCOL_VERSION];
        match self {
            Response::Busy { queued, capacity } => {
                put_u8(&mut buf, TAG_BUSY);
                put_u32(&mut buf, *queued);
                put_u32(&mut buf, *capacity);
            }
            Response::Done(report) => {
                put_u8(&mut buf, TAG_DONE);
                put_report(&mut buf, report);
            }
            Response::Failed { message, conn } => {
                put_u8(&mut buf, TAG_FAILED);
                put_str(&mut buf, message);
                put_conn_stats(&mut buf, conn);
            }
            Response::Stats(stats) => {
                put_u8(&mut buf, TAG_STATS_REPLY);
                put_stats(&mut buf, stats);
            }
            Response::Error(message) => {
                put_u8(&mut buf, TAG_ERROR);
                put_str(&mut buf, message);
            }
            Response::HelloAck(config) => {
                put_u8(&mut buf, TAG_HELLO_ACK);
                put_codec_config(&mut buf, config);
            }
            Response::Redirect { addr, trace } => {
                put_u8(&mut buf, TAG_REDIRECT);
                put_str(&mut buf, addr);
                put_u64(&mut buf, *trace);
            }
            Response::Pong {
                epoch,
                shard_id,
                peers,
            } => {
                put_u8(&mut buf, TAG_PONG);
                put_u64(&mut buf, *epoch);
                put_u32(&mut buf, *shard_id);
                put_peers(&mut buf, peers);
            }
            Response::Ack { epoch } => {
                put_u8(&mut buf, TAG_ACK);
                put_u64(&mut buf, *epoch);
            }
            Response::Spans(dump) => {
                put_u8(&mut buf, TAG_SPANS);
                put_span_dump(&mut buf, dump);
            }
        }
        buf
    }

    /// Parses a message payload.
    ///
    /// # Errors
    ///
    /// [`WireError`], as for [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        read_version(&mut r)?;
        let response = match r.u8()? {
            TAG_BUSY => Response::Busy {
                queued: r.u32()?,
                capacity: r.u32()?,
            },
            TAG_DONE => Response::Done(read_report(&mut r)?),
            TAG_FAILED => Response::Failed {
                message: r.string()?,
                conn: read_conn_stats(&mut r)?,
            },
            TAG_STATS_REPLY => Response::Stats(read_stats(&mut r)?),
            TAG_ERROR => Response::Error(r.string()?),
            TAG_HELLO_ACK => Response::HelloAck(read_codec_config(&mut r)?),
            TAG_REDIRECT => Response::Redirect {
                addr: r.string()?,
                trace: r.u64()?,
            },
            TAG_PONG => Response::Pong {
                epoch: r.u64()?,
                shard_id: r.u32()?,
                peers: r.peers()?,
            },
            TAG_ACK => Response::Ack { epoch: r.u64()? },
            TAG_SPANS => Response::Spans(read_span_dump(&mut r)?),
            tag => return Err(WireError::BadTag(tag)),
        };
        r.finish()?;
        Ok(response)
    }
}

// -------------------------------------------------------------- frame

/// Writes one length-prefixed frame, prefix and payload in one write.
///
/// # Errors
///
/// I/O errors from the stream; `InvalidData` if the payload exceeds
/// [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(stream: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(4 + payload.len());
    push_frame(&mut wire, payload)?;
    stream.write_all(&wire)?;
    stream.flush()
}

/// Appends one length-prefixed frame to `wire` — the framing
/// [`write_frame`] sends, for callers that batch several frames into
/// one write.
///
/// # Errors
///
/// `InvalidData` if the payload exceeds [`MAX_FRAME_BYTES`].
pub(crate) fn push_frame(wire: &mut Vec<u8>, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversize(payload.len()).to_string(),
        ));
    }
    wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    wire.extend_from_slice(payload);
    Ok(())
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// I/O errors from the stream; `InvalidData` for a declared length
/// above [`MAX_FRAME_BYTES`]; `UnexpectedEof` when the peer closed
/// mid-frame.
pub fn read_frame<R: Read>(stream: &mut R) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversize(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            set_text: "chains 2 depth 3\n1X0X10\nXX1XXX\n".to_string(),
            window: 24,
            segment: 4,
            speedup: 6,
            lfsr_size: 0,
            lfsr_kind: LfsrKind::Fibonacci,
            ps_taps: 3,
            hw_seed: 0x14A2_4108_A00E_3508,
            fill_seed: 1,
            trace: TraceContext::default(),
        }
    }

    fn traced_spec() -> JobSpec {
        JobSpec {
            trace: TraceContext {
                trace: 0x1111_2222_3333_4444,
                parent: 0x5555_6666_7777_8888,
                hop: 2,
            },
            ..spec()
        }
    }

    fn span() -> Span {
        Span {
            trace: 0x1111_2222_3333_4444,
            id: 0x9999_AAAA_BBBB_CCCC,
            parent: 0x5555_6666_7777_8888,
            kind: SpanKind::CacheMemory,
            start_micros: 1_234_567,
            duration_micros: 89,
            note: "hop=2".to_string(),
        }
    }

    fn report() -> JobReport {
        JobReport {
            lfsr_size: 38,
            window: 24,
            segment: 4,
            speedup: 6,
            cubes: 40,
            dropped: 0,
            seeds: 25,
            tdv: 950,
            tsl_original: 600,
            tsl_truncated: 400,
            tsl_proposed: 135,
            digest: 0xDEAD_BEEF_CAFE_F00D,
            tier: CacheTier::Disk,
            service_micros: 12_345,
            conn: ConnStats {
                frames_sent: 12,
                frames_received: 11,
                raw_tx_bytes: 9000,
                wire_tx_bytes: 4200,
                raw_rx_bytes: 800,
                wire_rx_bytes: 850,
            },
            trace: 0x1111_2222_3333_4444,
            job: 0x0123_4567_89AB_CDEF,
        }
    }

    #[test]
    fn every_message_round_trips() {
        let requests = [
            Request::Submit(spec()),
            Request::Submit(traced_spec()),
            Request::SubmitDirect(traced_spec()),
            Request::Stats,
            Request::Replicate {
                epoch: 3,
                key: 0x9E37_79B9_7F4A_7C15,
                bytes: vec![0xAB; 100],
                trace: 0x1111_2222_3333_4444,
            },
            Request::Reconfigure {
                epoch: 4,
                peers: vec!["127.0.0.1:7211".to_string(), "127.0.0.1:7212".to_string()],
            },
            Request::Ping,
            Request::TraceDump {
                trace: 0x1111_2222_3333_4444,
            },
            Request::TraceDump { trace: 0 },
        ];
        for request in requests {
            assert_eq!(Request::decode(&request.encode()), Ok(request));
        }
        let responses = [
            Response::Busy {
                queued: 8,
                capacity: 8,
            },
            Response::Done(report()),
            Response::Failed {
                message: "cube file: missing header line".to_string(),
                conn: ConnStats {
                    frames_sent: 2,
                    frames_received: 2,
                    raw_tx_bytes: 64,
                    wire_tx_bytes: 70,
                    raw_rx_bytes: 512,
                    wire_rx_bytes: 300,
                },
            },
            Response::Stats(ServerStats {
                workers: 4,
                queue_capacity: 16,
                queued: 3,
                jobs_done: 100,
                busy_rejections: 2,
                coalesced: 7,
                memory: TierStats {
                    hits: 60,
                    misses: 40,
                    entries: 9,
                    bytes: 1 << 20,
                    capacity_bytes: 256 << 20,
                    evictions: 5,
                },
                disk: TierStats {
                    hits: 11,
                    misses: 29,
                    entries: 40,
                    bytes: 3 << 20,
                    capacity_bytes: 0,
                    evictions: 1,
                },
                store_writes: 40,
                disk_corruptions: 1,
                synthesis: {
                    let mut h = PhaseHistogram::default();
                    h.record(0);
                    h.record(1500);
                    h.record(1 << 40); // top bucket is open-ended
                    h
                },
                encode: PhaseHistogram::default(),
                embed: {
                    let mut h = PhaseHistogram::default();
                    h.record(37);
                    h
                },
                segment: PhaseHistogram::default(),
                codec: CodecCounters {
                    connections: 6,
                    frames_sent: 900,
                    frames_received: 850,
                    crc_rejects: 3,
                    raw_tx_bytes: 1 << 22,
                    wire_tx_bytes: 1 << 20,
                    raw_rx_bytes: 1 << 21,
                    wire_rx_bytes: 1 << 19,
                },
                connections_active: 3,
                connections_max: 256,
                connections_shed: 12,
                redirects: 4,
                shard_id: 1,
                shard_count: 3,
                epoch: 2,
                replicas_sent: 15,
                replicas_received: 14,
                replica_queue_drops: 1,
                reconfigures: 2,
                peers_down: 1,
                spans_recorded: 300,
                spans_evicted: 44,
            }),
            Response::Error("server shutting down".to_string()),
            Response::HelloAck(CodecConfig {
                compress: true,
                chunk_bytes: 4096,
            }),
            Response::Redirect {
                addr: "127.0.0.1:7212".to_string(),
                trace: 0x1111_2222_3333_4444,
            },
            Response::Pong {
                epoch: 2,
                shard_id: u32::MAX,
                peers: vec!["127.0.0.1:7211".to_string()],
            },
            Response::Ack { epoch: 2 },
            Response::Spans(SpanDump {
                wall_micros: 1_700_000_000_000_000,
                mono_micros: 2_345_678,
                recorded: 10,
                evicted: 3,
                spans: vec![
                    span(),
                    Span {
                        kind: SpanKind::FailoverHop,
                        note: String::new(),
                        ..span()
                    },
                ],
            }),
            Response::Spans(SpanDump::default()),
        ];
        for response in responses {
            assert_eq!(Response::decode(&response.encode()), Ok(response));
        }
    }

    /// A snapshot in which every field holds a distinct value, and
    /// every u64 one a value wider than 32 bits, so a swapped, dropped
    /// or narrowed field changes the encoded bytes.
    fn pinned_stats() -> ServerStats {
        let histogram = |samples: &[u64]| {
            let mut h = PhaseHistogram::default();
            for &micros in samples {
                h.record(micros);
            }
            h
        };
        let wide = |n: u64| (n << 40) | n;
        ServerStats {
            workers: 1,
            queue_capacity: 2,
            queued: 3,
            jobs_done: wide(4),
            busy_rejections: wide(5),
            coalesced: wide(6),
            memory: TierStats {
                hits: wide(7),
                misses: wide(8),
                entries: wide(9),
                bytes: wide(10),
                capacity_bytes: wide(11),
                evictions: wide(12),
            },
            disk: TierStats {
                hits: wide(13),
                misses: wide(14),
                entries: wide(15),
                bytes: wide(16),
                capacity_bytes: wide(17),
                evictions: wide(18),
            },
            store_writes: wide(19),
            disk_corruptions: wide(20),
            synthesis: histogram(&[0, 3, 1 << 40]),
            encode: histogram(&[5, 70, 900]),
            embed: histogram(&[11_000]),
            segment: histogram(&[130_000, 130_001]),
            codec: CodecCounters {
                connections: wide(21),
                frames_sent: wide(22),
                frames_received: wide(23),
                crc_rejects: wide(24),
                raw_tx_bytes: wide(25),
                wire_tx_bytes: wide(26),
                raw_rx_bytes: wide(27),
                wire_rx_bytes: wide(28),
            },
            connections_active: 29,
            connections_max: 30,
            connections_shed: wide(31),
            redirects: wide(32),
            shard_id: 33,
            shard_count: 34,
            epoch: wide(35),
            replicas_sent: wide(36),
            replicas_received: wide(37),
            replica_queue_drops: wide(38),
            reconfigures: wide(39),
            peers_down: 40,
            spans_recorded: wide(41),
            spans_evicted: wide(42),
        }
    }

    /// The Stats reply's exact bytes: length plus an FNV-1a digest.
    /// Protocol version 8 changed only the leading version byte: set
    /// back to 7, the reply hashes to the version-7 pin (captured
    /// before the codec was generated from the field list), so the
    /// Stats body is byte-identical.
    #[test]
    fn stats_reply_bytes_are_pinned() {
        let fnv = |bytes: &[u8]| {
            let mut digest = ss_store::Fnv64::new();
            digest.write(bytes);
            digest.finish()
        };
        let mut bytes = Response::Stats(pinned_stats()).encode();
        assert_eq!((bytes.len(), fnv(&bytes)), (1426, 0x3C87_1AF4_2A5B_05E4));
        assert_eq!(
            Response::decode(&bytes),
            Ok(Response::Stats(pinned_stats()))
        );
        bytes[0] = 7;
        assert_eq!((bytes.len(), fnv(&bytes)), (1426, 0x62DC_DE9D_0EF4_FBF7));
    }

    #[test]
    fn field_names_are_unique_and_merge_follows_each_kind() {
        let a = pinned_stats();
        let names: std::collections::HashSet<_> = a.fields().iter().map(|f| f.0).collect();
        assert_eq!(names.len(), a.fields().len());

        // merging a snapshot into itself doubles every counter and
        // histogram; a label keeps this side's value
        let mut b = a;
        b.shard_id = 7;
        b.epoch = 9;
        let mut merged = a;
        merged.merge(&b);
        let mut twice = a.synthesis;
        twice.merge(&a.synthesis);
        assert_eq!(merged.synthesis, twice);
        for ((name, kind, got), (_, _, one)) in merged.fields().into_iter().zip(a.fields()) {
            match (kind, got, one) {
                (StatKind::Label, got, one) => assert_eq!(got, one, "{name}"),
                (StatKind::Sum, StatValue::U32(got), StatValue::U32(one)) => {
                    assert_eq!(got, 2 * one, "{name}")
                }
                (StatKind::Sum, StatValue::U64(got), StatValue::U64(one)) => {
                    assert_eq!(got, 2 * one, "{name}")
                }
                (StatKind::Histogram, StatValue::Histogram(got), StatValue::Histogram(one)) => {
                    assert_eq!(got.count, 2 * one.count, "{name}")
                }
                other => panic!("{name}: kind and width disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn codec_counter_ratios() {
        let mut c = CodecCounters::default();
        assert_eq!(c.tx_ratio(), 1.0);
        assert_eq!(c.tx_bytes_saved(), 0);
        c.raw_tx_bytes = 4000;
        c.wire_tx_bytes = 1000;
        assert_eq!(c.tx_ratio(), 4.0);
        assert_eq!(c.tx_bytes_saved(), 3000);
        c.wire_tx_bytes = 5000; // overhead ate the savings
        assert_eq!(c.tx_bytes_saved(), 0);
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        // version mismatch
        let mut bad = Request::Stats.encode();
        bad[0] = 9;
        assert_eq!(Request::decode(&bad), Err(WireError::Version(9)));
        // unknown tag
        assert_eq!(
            Request::decode(&[PROTOCOL_VERSION, 200]),
            Err(WireError::BadTag(200))
        );
        // truncation at every prefix of a valid frame
        let full = Request::Submit(spec()).encode();
        for cut in 0..full.len() {
            assert!(
                Request::decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // trailing garbage
        let mut long = Request::Stats.encode();
        long.push(0);
        assert_eq!(
            Request::decode(&long),
            Err(WireError::BadField("trailing bytes"))
        );
        // bad enum discriminants: the compress flag follows the
        // version and tag bytes
        let mut ack = Response::HelloAck(CodecConfig::preferred()).encode();
        ack[2] = 7;
        assert_eq!(Response::decode(&ack), Err(WireError::BadField("compress")));
        // tier byte sits just before the trailing 8-byte service time,
        // the 48-byte connection block, the 8-byte trace echo and the
        // 8-byte job id
        let mut done = Response::Done(report()).encode();
        let at = done.len() - 73;
        done[at] = 9;
        assert_eq!(Response::decode(&done), Err(WireError::BadField("tier")));
        // span kind byte is validated too
        let mut spans = Response::Spans(SpanDump {
            spans: vec![span()],
            ..SpanDump::default()
        })
        .encode();
        // kind byte sits 24 bytes into the span record: after the
        // dump header (4 * 8 + 4 bytes), trace, id and parent
        let at = 2 + 36 + 24;
        spans[at] = 200;
        assert_eq!(
            Response::decode(&spans),
            Err(WireError::BadField("span kind"))
        );
    }

    #[test]
    fn histogram_buckets_are_log2_micros() {
        assert_eq!(PhaseHistogram::bucket_index(0), 0);
        assert_eq!(PhaseHistogram::bucket_index(1), 0);
        assert_eq!(PhaseHistogram::bucket_index(2), 1);
        assert_eq!(PhaseHistogram::bucket_index(3), 1);
        assert_eq!(PhaseHistogram::bucket_index(1024), 10);
        // the slowest full-scale cold encode (395 s) lands in a finite
        // bucket; only samples from 2^32 us (~71.6 min) up are open-ended
        assert_eq!(PhaseHistogram::bucket_index(395_000_000), 28);
        assert_eq!(
            PhaseHistogram::bucket_index((1 << 32) - 1),
            HISTOGRAM_BUCKETS - 2
        );
        assert_eq!(PhaseHistogram::bucket_index(1 << 32), HISTOGRAM_BUCKETS - 1);
        assert_eq!(
            PhaseHistogram::bucket_index(u64::MAX),
            HISTOGRAM_BUCKETS - 1
        );
        let mut h = PhaseHistogram::default();
        h.record(100);
        h.record(200);
        assert_eq!(h.count, 2);
        assert_eq!(h.mean_micros(), 150);
        assert_eq!(h.buckets[6], 1, "100us in [64,128)");
        assert_eq!(h.buckets[7], 1, "200us in [128,256)");
    }

    #[test]
    fn histogram_zero_duration_samples_land_in_the_first_bucket() {
        let mut h = PhaseHistogram::default();
        h.record(0);
        h.record(0);
        h.record(1);
        assert_eq!(h.count, 3);
        assert_eq!(h.total_micros, 1);
        assert_eq!(h.buckets[0], 3);
        assert_eq!(h.mean_micros(), 0);
        // the first bucket's upper bound is 1us — a zero-duration
        // sample still reports a nonzero percentile ceiling
        assert_eq!(h.percentile_micros(0.5), 1);
        assert_eq!(h.percentile_micros(0.99), 1);
    }

    #[test]
    fn histogram_overflow_bucket_is_open_ended() {
        let mut h = PhaseHistogram::default();
        h.record(u64::MAX);
        h.record(1 << 60);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 2);
        // the top bucket has no finite upper bound
        assert_eq!(h.percentile_micros(0.5), u64::MAX);
        assert_eq!(h.percentile_micros(1.0), u64::MAX);
        // total saturates rather than wrapping
        assert_eq!(h.total_micros, u64::MAX);
    }

    #[test]
    fn histogram_merge_sums_counts_and_buckets() {
        let mut a = PhaseHistogram::default();
        a.record(100);
        a.record(1500);
        let mut b = PhaseHistogram::default();
        b.record(200);
        b.record(u64::MAX);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count, 4);
        assert_eq!(merged.buckets[6], 1, "100us survives the merge");
        assert_eq!(merged.buckets[7], 1, "200us survives the merge");
        assert_eq!(merged.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(merged.total_micros, u64::MAX, "merge saturates too");
        // merging an empty histogram is the identity
        let before = merged;
        merged.merge(&PhaseHistogram::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn histogram_percentiles_walk_the_buckets() {
        let empty = PhaseHistogram::default();
        assert_eq!(empty.percentile_micros(0.5), 0, "empty histogram");

        let mut h = PhaseHistogram::default();
        for _ in 0..90 {
            h.record(100); // bucket 6, bound 127
        }
        for _ in 0..9 {
            h.record(1000); // bucket 9, bound 1023
        }
        h.record(100_000); // bucket 16, bound 131071
        assert_eq!(h.percentile_micros(0.5), 127);
        assert_eq!(h.percentile_micros(0.9), 127);
        assert_eq!(h.percentile_micros(0.95), 1023);
        assert_eq!(h.percentile_micros(0.99), 1023);
        assert_eq!(h.percentile_micros(1.0), 131_071);
        // out-of-range fractions clamp to the extremes
        assert_eq!(h.percentile_micros(0.0), 127);
        assert_eq!(h.percentile_micros(2.0), 131_071);
        // a 395 s cold encode reports a finite bound, not the open top
        h.record(395_000_000);
        assert_eq!(h.percentile_micros(1.0), (1 << 29) - 1);
    }

    #[test]
    fn tier_implies_cached() {
        let mut r = report();
        for (tier, cached) in [
            (CacheTier::Cold, false),
            (CacheTier::Disk, true),
            (CacheTier::Memory, true),
        ] {
            r.tier = tier;
            assert_eq!(r.cached(), cached);
        }
    }

    #[test]
    fn frames_round_trip_and_cap_length() {
        let payload = Request::Submit(spec()).encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);

        // a forged oversize header is refused before allocation
        let forged = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let mut cursor = &forged[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn job_spec_new_mirrors_engine_config() {
        let engine = ss_core::Engine::builder()
            .window(24)
            .segment(4)
            .speedup(6)
            .lfsr_size(44)
            .threads(8)
            .build()
            .unwrap();
        let set = TestSet::from_text("chains 2 depth 3\n1X0X10\n").unwrap();
        let spec = JobSpec::new(&set, engine.config());
        assert_eq!(spec.window, 24);
        assert_eq!(spec.lfsr_size, 44);
        assert_eq!(spec.set_text, set.to_text());
        assert_eq!(spec.hw_seed, engine.config().hw_seed);
    }
}
