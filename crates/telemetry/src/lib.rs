//! Distributed tracing primitives for the State Skip fleet.
//!
//! A *trace* is the story of one submission: a 64-bit [`TraceId`]
//! minted by the client (or balancer) at submit time and propagated
//! through every wire message the submission causes — the
//! submit itself, any redirect, the write-behind replication pushes it
//! triggers. Every process that touches the trace records [`Span`]s
//! into its own bounded [`SpanRing`]; nothing is pushed anywhere at
//! record time, so the hot path stays one mutex'd ring append. A
//! `TraceDump` admin request drains a server's ring for one trace, and
//! [`stitch`] merges the dumps of every shard into one causally
//! ordered cross-process timeline.
//!
//! # Clock model
//!
//! Span timestamps are *process-monotonic* microseconds (elapsed since
//! that process's [`TraceClock`] origin) — monotonic clocks never go
//! backwards and cost nothing to read, but they are meaningless across
//! processes. Each dump therefore carries a `(wall_micros,
//! mono_micros)` pair sampled together at dump time; [`stitch`] uses
//! it to shift every span onto the wall clock
//! (`abs = wall_micros - mono_micros + span.start_micros`), which is
//! exact up to the NTP skew between hosts and exact on a single host.
//!
//! The [`json`] module is the workspace's one JSON writer, shared by
//! `state-skip stats --json` and the benches' `BENCH_*.json` files.
//!
//! Everything here is `std`-only, like the rest of the workspace.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A trace identifier: one per submission, minted client-side. The
/// zero id means "untraced" — every recording site treats it as a
/// no-op, which is how tracing is disabled per-request.
pub type TraceId = u64;

/// A span identifier, unique within its trace (a [`mix64`] of the
/// trace id and a per-process sequence number, so two processes
/// recording into the same trace cannot collide in practice).
pub type SpanId = u64;

/// The trace context that travels on the wire with a submission:
/// which trace the work belongs to, the span that caused it, and how
/// many failover hops the submission has already taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// The trace this work belongs to; 0 means untraced.
    pub trace: TraceId,
    /// The causing span on the sender's side (0 for a root).
    pub parent: SpanId,
    /// Failover hops already taken (0 = first-choice shard).
    pub hop: u32,
}

impl TraceContext {
    /// A fresh root context for `trace`.
    pub fn root(trace: TraceId) -> TraceContext {
        TraceContext {
            trace,
            parent: 0,
            hop: 0,
        }
    }

    /// Whether this context carries a live trace.
    pub fn is_active(&self) -> bool {
        self.trace != 0
    }
}

/// What a span measured. The discriminants are the wire encoding —
/// append-only, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// Server side: reading and decoding a trace-carrying request.
    RecvDecode = 0,
    /// Server side: time a job waited for one of the server's job
    /// slots (at most `queue_depth` jobs wait at once).
    QueueWait = 1,
    /// Server side: memory-tier cache lookup (hit or miss — the note
    /// says which).
    CacheMemory = 2,
    /// Server side: disk-tier lookup (hit, miss or corruption).
    CacheDisk = 3,
    /// Engine stage: LFSR + phase shifter + expression-table synthesis.
    Synthesis = 4,
    /// Engine stage: seed encoding.
    Encode = 5,
    /// Engine stage: seed embedding.
    Embed = 6,
    /// Engine stage: segmentation + finish.
    Segment = 7,
    /// Server side: encoding and writing the reply through the codec.
    CodecTx = 8,
    /// Server side: one write-behind replication push to a ring peer.
    ReplicatePush = 9,
    /// Server side: verifying and admitting a pushed replica.
    ReplicaIngest = 10,
    /// Client side: one failover hop past a down/saturated shard.
    FailoverHop = 11,
    /// Server side: a submission declined with a redirect to the
    /// owning shard.
    Redirect = 12,
    /// Client side: the whole submit-to-report exchange.
    ClientSubmit = 13,
}

impl SpanKind {
    /// Every kind, in wire order — handy for exhaustive tests.
    pub const ALL: [SpanKind; 14] = [
        SpanKind::RecvDecode,
        SpanKind::QueueWait,
        SpanKind::CacheMemory,
        SpanKind::CacheDisk,
        SpanKind::Synthesis,
        SpanKind::Encode,
        SpanKind::Embed,
        SpanKind::Segment,
        SpanKind::CodecTx,
        SpanKind::ReplicatePush,
        SpanKind::ReplicaIngest,
        SpanKind::FailoverHop,
        SpanKind::Redirect,
        SpanKind::ClientSubmit,
    ];

    /// The stable human name rendered in timelines and smoke greps.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::RecvDecode => "recv",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::CacheMemory => "cache-memory",
            SpanKind::CacheDisk => "cache-disk",
            SpanKind::Synthesis => "synthesis",
            SpanKind::Encode => "encode",
            SpanKind::Embed => "embed",
            SpanKind::Segment => "segment",
            SpanKind::CodecTx => "codec-tx",
            SpanKind::ReplicatePush => "replicate-push",
            SpanKind::ReplicaIngest => "replica-ingest",
            SpanKind::FailoverHop => "failover-hop",
            SpanKind::Redirect => "redirect",
            SpanKind::ClientSubmit => "client-submit",
        }
    }

    /// Decodes a wire discriminant.
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(v as usize).copied()
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded measurement inside a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to (never 0 in a ring).
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// The causing span (0 for a root, or when the cause was remote
    /// and did not travel).
    pub parent: SpanId,
    /// What was measured.
    pub kind: SpanKind,
    /// Start, in process-monotonic microseconds (see the module docs
    /// for how these become comparable across processes).
    pub start_micros: u64,
    /// Duration in microseconds.
    pub duration_micros: u64,
    /// Free-form annotation: `"hit"`, `"miss"`, `"hop=2"`, a peer
    /// address... Kept short; it travels verbatim.
    pub note: String,
}

/// A server's answer to `TraceDump`: the ring contents for one trace
/// plus the clock pair that makes them comparable across processes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanDump {
    /// Wall clock at dump time, microseconds since the Unix epoch.
    pub wall_micros: u64,
    /// The dumping process's monotonic clock at the same instant.
    pub mono_micros: u64,
    /// Spans ever recorded into the ring (all traces).
    pub recorded: u64,
    /// Spans evicted under capacity pressure (all traces).
    pub evicted: u64,
    /// The matching spans, in ring (i.e. arbitrary) order.
    pub spans: Vec<Span>,
}

/// SplitMix64 — the workspace's standard cheap mixer; used for span
/// ids and the ring's seeded eviction sequence.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mints a span id for `trace` from a per-process sequence number.
pub fn span_id(trace: TraceId, seq: u64) -> SpanId {
    // never 0: 0 is the "no parent" sentinel
    mix64(trace ^ mix64(seq)).max(1)
}

/// Mints a fresh trace id from process entropy (wall clock, pid, and
/// a process-local counter). Never 0.
pub fn fresh_trace_id() -> TraceId {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    mix64(nanos ^ (u64::from(std::process::id()) << 32) ^ mix64(n)).max(1)
}

/// A process's span clock: monotonic microseconds since construction.
///
/// One per process (the server builds it in `Shared::new`); every
/// span start/duration is measured against it, and `TraceDump`
/// answers pair its reading with the wall clock so dumps from
/// different processes can be aligned.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock {
    origin: Instant,
}

impl TraceClock {
    /// A clock whose zero is now.
    pub fn new() -> TraceClock {
        TraceClock {
            origin: Instant::now(),
        }
    }

    /// Microseconds elapsed since the clock's origin.
    pub fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

impl Default for TraceClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Wall clock in microseconds since the Unix epoch.
pub fn wall_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Default capacity of a server's span ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A bounded span buffer with seeded random replacement.
///
/// Appends are O(1). Once the ring is full, each new span overwrites
/// a slot chosen by a seeded SplitMix64 sequence — so under overflow
/// the retained set is a uniform-ish sample of the history rather
/// than just the newest window (a hot fleet would otherwise evict
/// every cold-path span minutes before anyone asks for it), and two
/// runs with the same seed and the same record sequence retain
/// *exactly* the same spans, which keeps the chaos harness
/// deterministic.
#[derive(Debug)]
pub struct SpanRing {
    slots: Vec<Span>,
    capacity: usize,
    rng: u64,
    recorded: u64,
    evicted: u64,
}

impl SpanRing {
    /// A ring holding at most `capacity` spans, evicting on the
    /// sequence seeded by `seed`.
    pub fn new(capacity: usize, seed: u64) -> SpanRing {
        SpanRing {
            slots: Vec::new(),
            capacity: capacity.max(1),
            rng: seed,
            recorded: 0,
            evicted: 0,
        }
    }

    /// Records one span (spans with a zero trace are the caller's bug;
    /// they are dropped silently rather than polluting dumps).
    pub fn record(&mut self, span: Span) {
        if span.trace == 0 {
            return;
        }
        self.recorded += 1;
        if self.slots.len() < self.capacity {
            self.slots.push(span);
        } else {
            self.rng = mix64(self.rng);
            let at = (self.rng % self.capacity as u64) as usize;
            self.slots[at] = span;
            self.evicted += 1;
        }
    }

    /// Spans currently resident.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Spans ever recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Spans overwritten under capacity pressure.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The resident spans of `trace` (all resident spans when `trace`
    /// is 0), cloned in ring order. Non-destructive: the ring's own
    /// eviction is its only forgetting.
    pub fn snapshot(&self, trace: TraceId) -> Vec<Span> {
        self.slots
            .iter()
            .filter(|s| trace == 0 || s.trace == trace)
            .cloned()
            .collect()
    }
}

/// One shard's dump, labelled with the address it came from — the
/// unit [`stitch`] merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDump {
    /// The shard's advertised address (or `"client"` for spans the
    /// balancer recorded locally).
    pub addr: String,
    /// Its `TraceDump` answer.
    pub dump: SpanDump,
}

/// One span placed on the stitched cross-shard timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Which process recorded it.
    pub addr: String,
    /// Absolute start, microseconds since the Unix epoch (the span's
    /// monotonic start shifted by its process's clock pair).
    pub abs_start_micros: i128,
    /// The span itself.
    pub span: Span,
}

/// Merges per-process dumps into one causally ordered timeline:
/// every span's monotonic start is shifted onto the wall clock via
/// its dump's `(wall, mono)` pair, then the union is sorted by
/// absolute start (ties broken by address and kind, so the order is
/// deterministic).
pub fn stitch(shards: &[ShardDump]) -> Vec<TimelineEntry> {
    let mut entries: Vec<TimelineEntry> = Vec::new();
    for shard in shards {
        let offset = shard.dump.wall_micros as i128 - shard.dump.mono_micros as i128;
        for span in &shard.dump.spans {
            entries.push(TimelineEntry {
                addr: shard.addr.clone(),
                abs_start_micros: offset + span.start_micros as i128,
                span: span.clone(),
            });
        }
    }
    entries.sort_by(|a, b| {
        a.abs_start_micros
            .cmp(&b.abs_start_micros)
            .then_with(|| a.addr.cmp(&b.addr))
            .then_with(|| (a.span.kind as u8).cmp(&(b.span.kind as u8)))
            .then_with(|| a.span.id.cmp(&b.span.id))
    });
    entries
}

/// Renders a stitched timeline as text: one line per span, offsets
/// relative to the earliest span, with the recording process, kind,
/// duration and note.
pub fn render_timeline(trace: TraceId, entries: &[TimelineEntry]) -> String {
    let mut out = String::new();
    out.push_str(&format!("trace {trace:#018x}\n"));
    if entries.is_empty() {
        out.push_str("  (no spans)\n");
        return out;
    }
    let t0 = entries.iter().map(|e| e.abs_start_micros).min().unwrap();
    let addr_w = entries
        .iter()
        .map(|e| e.addr.len())
        .max()
        .unwrap_or(0)
        .max(5);
    for e in entries {
        let offset = e.abs_start_micros - t0;
        let mut line = format!(
            "  +{:>9} us  {:<addr_w$}  {:<14} {:>9} us",
            offset,
            e.addr,
            e.span.kind.name(),
            e.span.duration_micros,
        );
        if !e.span.note.is_empty() {
            line.push_str("  ");
            line.push_str(&e.span.note);
        }
        line.push('\n');
        out.push_str(&line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, seq: u64, kind: SpanKind, start: u64) -> Span {
        Span {
            trace,
            id: span_id(trace, seq),
            parent: 0,
            kind,
            start_micros: start,
            duration_micros: 10,
            note: String::new(),
        }
    }

    #[test]
    fn kinds_round_trip_their_wire_discriminant() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(SpanKind::from_u8(SpanKind::ALL.len() as u8), None);
        // names are unique (they are grep targets in CI)
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SpanKind::ALL.len());
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        assert_ne!(fresh_trace_id(), 0);
        let a = span_id(7, 0);
        let b = span_id(7, 1);
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_ne!(span_id(8, 0), a, "trace participates in the id");
    }

    #[test]
    fn ring_is_bounded_and_seeded_eviction_is_deterministic() {
        let mut a = SpanRing::new(8, 42);
        let mut b = SpanRing::new(8, 42);
        let mut c = SpanRing::new(8, 43);
        for seq in 0..100 {
            a.record(span(1, seq, SpanKind::Embed, seq));
            b.record(span(1, seq, SpanKind::Embed, seq));
            c.record(span(1, seq, SpanKind::Embed, seq));
        }
        assert_eq!(a.len(), 8);
        assert_eq!(a.recorded(), 100);
        assert_eq!(a.evicted(), 92);
        assert_eq!(a.snapshot(0), b.snapshot(0), "same seed, same survivors");
        assert_ne!(a.snapshot(0), c.snapshot(0), "different seed diverges");
        // zero-trace spans never enter
        a.record(span(0, 1, SpanKind::Embed, 0));
        assert_eq!(a.recorded(), 100);
    }

    #[test]
    fn snapshot_filters_by_trace() {
        let mut ring = SpanRing::new(16, 1);
        ring.record(span(1, 0, SpanKind::Synthesis, 0));
        ring.record(span(2, 1, SpanKind::Encode, 5));
        ring.record(span(1, 2, SpanKind::Embed, 9));
        assert_eq!(ring.snapshot(1).len(), 2);
        assert_eq!(ring.snapshot(2).len(), 1);
        assert_eq!(ring.snapshot(3).len(), 0);
        assert_eq!(ring.snapshot(0).len(), 3);
    }

    /// Two processes whose monotonic clocks started at wildly
    /// different times still stitch into the true causal order once
    /// the wall/mono pairs are applied.
    #[test]
    fn stitch_normalizes_per_process_clocks() {
        // process A: mono origin = wall 1_000_000; span at mono 50
        // process B: mono origin = wall 1_000_030; span at mono 5
        let a = ShardDump {
            addr: "a:1".into(),
            dump: SpanDump {
                wall_micros: 1_000_100,
                mono_micros: 100,
                recorded: 1,
                evicted: 0,
                spans: vec![span(9, 0, SpanKind::Synthesis, 50)],
            },
        };
        let b = ShardDump {
            addr: "b:1".into(),
            dump: SpanDump {
                wall_micros: 1_000_100,
                mono_micros: 70,
                recorded: 1,
                evicted: 0,
                spans: vec![span(9, 1, SpanKind::ReplicaIngest, 5)],
            },
        };
        let timeline = stitch(&[a, b]);
        // A's span is at wall 1_000_050; B's at wall 1_000_035
        assert_eq!(timeline[0].addr, "b:1");
        assert_eq!(timeline[0].abs_start_micros, 1_000_035);
        assert_eq!(timeline[1].addr, "a:1");
        assert_eq!(timeline[1].abs_start_micros, 1_000_050);

        let text = render_timeline(9, &timeline);
        assert!(text.contains("replica-ingest"));
        assert!(text.contains("synthesis"));
        let ingest_at = text.find("replica-ingest").unwrap();
        let synth_at = text.find("synthesis").unwrap();
        assert!(ingest_at < synth_at, "causal order must survive rendering");
    }

    #[test]
    fn render_is_stable_for_empty_traces() {
        assert!(render_timeline(5, &[]).contains("no spans"));
    }
}
