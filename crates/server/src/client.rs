//! Client side of the compression service: one TCP connection, typed
//! request/response calls, and a backpressure-aware submit loop.
//!
//! # Opening a connection
//!
//! [`Client::connect`] opens the connection by offering the preferred
//! codec configuration in a plain-frame [`Request::Hello`]; the server
//! answers [`Response::HelloAck`] with the agreed parameters and every
//! subsequent message travels through the agreed chunk codec. The
//! exchange runs under the fixed [`HELLO_TIMEOUT`], so a peer that
//! accepts and never answers cannot hang the caller. A server of
//! another protocol version refuses the `Hello` with an error stamped
//! in its own version, and any reply stamped with another version
//! surfaces as [`ClientError::Wire`]`(`[`WireError::Version`]`)`.
//! Shard-to-shard traffic opens through the same exchange.
//!
//! # Fleet routing
//!
//! Against a sharded fleet, [`Balancer`] replaces a bare [`Client`]:
//! it hashes each submission's content key on the shared
//! [`ShardRing`] and submits to the owning
//! shard, and fails over along the ring's rendezvous order when a
//! shard is down, saturated, or dies mid-call. Backpressure from
//! `Busy` replies is paced by [`RetryPolicy`] — decorrelated jitter
//! with an optional overall deadline — instead of the synchronized
//! exponential ladder that made saturated fleets retry in lockstep.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cache::cache_key;
use crate::codec::{Codec, CodecConfig, CodecError, WireStats};
use crate::protocol::{
    read_frame, write_frame, JobReport, JobSpec, Request, Response, ServerStats, Span, SpanDump,
    SpanKind, TraceContext, WireError, SHUTTING_DOWN,
};
use crate::shard::{ShardError, ShardRing};
use ss_telemetry::{fresh_trace_id, span_id, wall_micros, TraceClock};

/// Deadline on each read and write of the opening `Hello`/`HelloAck`
/// exchange in [`Client::connect`]. It is cleared once the codec is
/// agreed: a `Submit` on a full-scale cold encode legitimately blocks
/// for minutes.
pub const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Error talking to the service.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// I/O failure on the socket.
    Io(io::Error),
    /// The connection dropped mid-exchange (unexpected EOF, reset,
    /// broken pipe). Retryable: reconnect and resubmit — submissions
    /// are idempotent under the content-addressed cache, so a retry
    /// costs at most a cache hit.
    Disconnected(io::Error),
    /// The codec rejected received frames (CRC mismatch,
    /// reordered or truncated chunks, malformed compression).
    Codec(CodecError),
    /// The peer sent a frame this build cannot decode.
    Wire(WireError),
    /// The server answered a protocol-level error (malformed request,
    /// a submission rejected at the door).
    Server(String),
    /// The job itself ran and failed (bad workload, engine error).
    Job(String),
    /// The server shed this connection at the accept gate — its
    /// concurrent-connection bound is full. Retryable: the gate drains
    /// as fast as connections close.
    Overloaded {
        /// Connections active when this one was shed.
        queued: u32,
        /// The server's concurrent-connection bound.
        capacity: u32,
    },
    /// A [`RetryPolicy`] deadline expired while the server kept
    /// answering `Busy`. Retryable by construction — every individual
    /// rejection was — but the caller's time budget ran out first.
    DeadlineExceeded {
        /// Total time spent backing off before giving up.
        waited: Duration,
        /// How many `Busy` rejections were absorbed.
        attempts: u32,
    },
    /// The server stopped while the submission waited for its job.
    /// Retryable: the request was fine, so [`Balancer`] fails over to
    /// the next shard.
    ShuttingDown,
    /// A sharded server declined the submission because another shard
    /// owns its content key; the payload is the owner's address.
    /// [`Balancer`] follows this transparently — it surfaces only when
    /// a bare [`Client`] submits to a non-owner.
    Redirected(String),
    /// The server answered with a message that makes no sense for the
    /// request (a peer bug).
    Unexpected(&'static str),
}

impl ClientError {
    /// Whether reconnecting and retrying the call can reasonably
    /// succeed (the failure was the connection or its timing, not the
    /// request itself).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Disconnected(_)
                | ClientError::Overloaded { .. }
                | ClientError::DeadlineExceeded { .. }
                | ClientError::ShuttingDown
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Disconnected(e) => write!(f, "connection dropped mid-exchange: {e}"),
            ClientError::Codec(e) => write!(f, "codec: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server(m) => write!(f, "server: {m}"),
            ClientError::Job(m) => write!(f, "job failed: {m}"),
            ClientError::Overloaded { queued, capacity } => {
                write!(f, "server shed the connection ({queued}/{capacity} active)")
            }
            ClientError::DeadlineExceeded { waited, attempts } => write!(
                f,
                "deadline exceeded after {attempts} busy rejections ({waited:?} waited)"
            ),
            ClientError::ShuttingDown => write!(f, "server: {SHUTTING_DOWN}"),
            ClientError::Redirected(addr) => {
                write!(f, "key owned by shard {addr}; resubmit there")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) | ClientError::Disconnected(e) => Some(e),
            ClientError::Codec(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

/// Whether an I/O failure means the peer vanished (as opposed to a
/// local or protocol problem).
fn is_disconnect(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        if is_disconnect(&e) {
            ClientError::Disconnected(e)
        } else {
            ClientError::Io(e)
        }
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(err) => err.into(),
            other => ClientError::Codec(other),
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Backoff pacing for `Busy` rejections: decorrelated jitter with an
/// optional overall deadline.
///
/// Each pause sleeps `min(cap, uniform(base, 3 × previous_sleep))` —
/// the classic decorrelated-jitter recurrence. Unlike the old
/// deterministic 1→256 ms doubling, two clients rejected by the same
/// saturated queue desynchronize immediately instead of hammering it
/// again in lockstep forever; unlike full jitter, the expected pause
/// still grows toward the cap while the queue stays full.
///
/// The jitter source is seedable so tests can pin the exact sleep
/// sequence; [`RetryPolicy::new`] seeds from process entropy. With
/// [`RetryPolicy::with_deadline`], the total time spent backing off is
/// bounded and overrunning it surfaces as the retryable
/// [`ClientError::DeadlineExceeded`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    base: Duration,
    cap: Duration,
    deadline: Option<Duration>,
    prev: Duration,
    waited: Duration,
    attempts: u32,
    rng: SmallRng,
}

impl RetryPolicy {
    const BASE: Duration = Duration::from_millis(1);
    const CAP: Duration = Duration::from_millis(256);

    /// A policy with the default 1 ms base / 256 ms cap, no deadline,
    /// and a jitter seed drawn from process entropy.
    pub fn new() -> RetryPolicy {
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Self::seeded(clock ^ (u64::from(std::process::id()) << 32))
    }

    /// A policy whose jitter sequence is a pure function of `seed` —
    /// deterministic backoff for tests.
    pub fn seeded(seed: u64) -> RetryPolicy {
        RetryPolicy {
            base: Self::BASE,
            cap: Self::CAP,
            deadline: None,
            prev: Self::BASE,
            waited: Duration::ZERO,
            attempts: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Bounds the *total* time spent backing off across all retries of
    /// one run; overrunning it fails the run with
    /// [`ClientError::DeadlineExceeded`].
    pub fn with_deadline(mut self, deadline: Duration) -> RetryPolicy {
        self.deadline = Some(deadline);
        self
    }

    /// Rewinds the accumulated state (sleep ladder, waited time,
    /// attempt count) for a fresh run, keeping the jitter stream.
    pub fn reset(&mut self) {
        self.prev = self.base;
        self.waited = Duration::ZERO;
        self.attempts = 0;
    }

    /// `Busy` rejections absorbed since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The next decorrelated-jitter sleep:
    /// `min(cap, uniform(base, 3 × prev))`.
    fn next_sleep(&mut self) -> Duration {
        let base = self.base.as_micros() as u64;
        let hi = (self.prev.as_micros() as u64)
            .saturating_mul(3)
            .max(base + 1);
        let sleep = Duration::from_micros(self.rng.gen_range(base..hi)).min(self.cap);
        self.prev = sleep;
        sleep
    }

    /// Absorbs one `Busy` rejection: sleeps the next jittered backoff,
    /// or fails once the deadline is spent.
    fn pause(&mut self) -> Result<(), ClientError> {
        self.attempts += 1;
        let mut sleep = self.next_sleep();
        if let Some(deadline) = self.deadline {
            if self.waited >= deadline {
                return Err(ClientError::DeadlineExceeded {
                    waited: self.waited,
                    attempts: self.attempts,
                });
            }
            // never sleep past the deadline; the next pause then fails
            sleep = sleep.min(deadline - self.waited);
        }
        std::thread::sleep(sleep);
        self.waited += sleep;
        Ok(())
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// One synchronous connection to an `ss-server`.
///
/// Every call writes one request message and reads one response
/// message, each one or more CRC-guarded chunk frames through the
/// codec agreed at connect time; the connection can be reused for any
/// number of calls.
///
/// ```no_run
/// use ss_server::{Client, JobSpec, ServeOptions, Server};
/// use ss_core::Engine;
/// use ss_testdata::WorkloadRegistry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let handle = Server::bind(&ServeOptions::default())?.spawn();
/// let engine = Engine::builder().window(24).segment(4).speedup(6).build()?;
/// let set = WorkloadRegistry::find("tiny-1").unwrap().test_set();
///
/// let mut client = Client::connect(handle.addr())?;
/// let (job, report) = client.run(&JobSpec::new(&set, engine.config()))?;
/// println!("job {job}: {} seeds, TSL {}", report.seeds, report.tsl_proposed);
/// # handle.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct Client {
    stream: TcpStream,
    codec: Codec,
    /// Whether submissions are stamped with a fresh trace id when they
    /// carry none. On by default.
    tracing: bool,
    /// The trace id of the most recent submission (0 when untraced).
    last_trace: u64,
}

impl Client {
    /// Connects and agrees the preferred codec configuration.
    ///
    /// # Errors
    ///
    /// I/O errors (including a peer silent past
    /// [`HELLO_TIMEOUT`]), [`ClientError::Overloaded`] when the accept
    /// gate sheds the connection, [`ClientError::Server`] when the
    /// server refuses the `Hello`, or a nonsensical answer.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Self::connect_with(addr, CodecConfig::preferred())
    }

    /// Connects offering a specific codec configuration (the server
    /// may clamp the chunk size; the ack is authoritative).
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        offer: CodecConfig,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(HELLO_TIMEOUT))?;
        stream.set_write_timeout(Some(HELLO_TIMEOUT))?;
        let client = Self::open(stream, offer)?;
        client.stream.set_read_timeout(None)?;
        client.stream.set_write_timeout(None)?;
        Ok(client)
    }

    /// Connects to a ring peer for shard-to-shard traffic: the connect
    /// is bounded by `connect_timeout`, and every later read and write
    /// — the `Hello` exchange included — by `io_timeout`.
    pub(crate) fn connect_peer(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Result<Client, ClientError> {
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{addr}: no usable address"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&sock, connect_timeout)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        Self::open(stream, CodecConfig::preferred())
    }

    /// The opening exchange on a fresh stream: a plain-frame `Hello`
    /// out, a plain-frame `HelloAck` back.
    fn open(mut stream: TcpStream, offer: CodecConfig) -> Result<Client, ClientError> {
        stream.set_nodelay(true)?;
        write_frame(&mut stream, &Request::Hello(offer).encode())?;
        match Response::decode(&read_frame(&mut stream)?)? {
            Response::HelloAck(agreed) => Ok(Client {
                stream,
                codec: Codec::new(agreed),
                tracing: true,
                last_trace: 0,
            }),
            // the accept gate sheds before reading the offer: surface
            // the overload as its retryable error, not a dead client
            Response::Busy { queued, capacity } => {
                Err(ClientError::Overloaded { queued, capacity })
            }
            Response::Error(m) => Err(ClientError::Server(m)),
            _ => Err(ClientError::Unexpected("hello answered oddly")),
        }
    }

    /// The codec configuration agreed at connect time. Always `Some`:
    /// every connection opens with the `Hello` exchange.
    pub fn codec_config(&self) -> Option<CodecConfig> {
        Some(self.codec.config())
    }

    /// One request/response exchange through the agreed codec.
    pub(crate) fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.codec
            .write_message(&mut self.stream, &request.encode())?;
        let payload = self
            .codec
            .read_message(&mut self.stream, &mut WireStats::default())?;
        Ok(Response::decode(&payload)?)
    }

    /// Enables or disables trace stamping for future submissions
    /// (default on). Disabling never strips a context the caller put
    /// on the spec themselves.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// The trace id of the most recent submission through this client
    /// — 0 when it was untraced.
    pub fn last_trace(&self) -> u64 {
        self.last_trace
    }

    /// Gives `spec` a trace context for this connection: a spec that
    /// already carries one keeps it verbatim; otherwise a fresh root
    /// trace is minted when tracing is on. Either way
    /// [`Client::last_trace`] remembers what went out.
    fn stamp(&mut self, spec: &JobSpec) -> JobSpec {
        let mut spec = spec.clone();
        if !spec.trace.is_active() && self.tracing {
            spec.trace = TraceContext::root(fresh_trace_id());
        }
        self.last_trace = spec.trace.trace;
        spec
    }

    /// Probes the server's membership view: `(epoch, shard id, peer
    /// list)`; the shard id is `u32::MAX` when the server is unsharded
    /// or was reconfigured out of its ring.
    ///
    /// # Errors
    ///
    /// I/O or wire failures or a protocol-level server error.
    pub fn ping(&mut self) -> Result<(u64, u32, Vec<String>), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong {
                epoch,
                shard_id,
                peers,
            } => Ok((epoch, shard_id, peers)),
            Response::Error(m) => Err(ClientError::Server(m)),
            _ => Err(ClientError::Unexpected("ping answered oddly")),
        }
    }

    /// Installs a new membership view on the server (the admin side of
    /// live reconfiguration). Answers the epoch in force afterwards —
    /// `epoch` itself when the swap happened, the server's current
    /// epoch when the request was stale.
    ///
    /// # Errors
    ///
    /// I/O or wire failures, or [`ClientError::Server`] for a
    /// degenerate peer list or an unsharded server.
    pub fn reconfigure(&mut self, epoch: u64, peers: Vec<String>) -> Result<u64, ClientError> {
        match self.call(&Request::Reconfigure { epoch, peers })? {
            Response::Ack { epoch } => Ok(epoch),
            Response::Error(m) => Err(ClientError::Server(m)),
            _ => Err(ClientError::Unexpected("reconfigure answered oddly")),
        }
    }

    /// Aggregate server telemetry.
    ///
    /// # Errors
    ///
    /// I/O or wire failures or a protocol-level server error.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Error(m) => Err(ClientError::Server(m)),
            _ => Err(ClientError::Unexpected("stats answered oddly")),
        }
    }

    /// Drains the server's span ring for one trace (all traces when
    /// `trace` is 0 — a debugging convenience). The dump carries the
    /// server's `(wall, mono)` clock pair, so dumps from different
    /// shards can be [`stitched`](ss_telemetry::stitch) into one
    /// timeline.
    ///
    /// # Errors
    ///
    /// I/O or wire failures or a protocol-level server error.
    pub fn trace_dump(&mut self, trace: u64) -> Result<SpanDump, ClientError> {
        match self.call(&Request::TraceDump { trace })? {
            Response::Spans(dump) => Ok(dump),
            Response::Error(m) => Err(ClientError::Server(m)),
            _ => Err(ClientError::Unexpected("trace dump answered oddly")),
        }
    }

    /// Runs a job: one `Submit`, answered with the job's id and
    /// report once it has run. `Busy` retries pace themselves with
    /// fresh [`RetryPolicy`] jitter and no overall deadline — the
    /// queue bound guarantees progress as workers drain.
    ///
    /// # Errors
    ///
    /// I/O or wire failures, [`ClientError::Job`] when the job ran and
    /// failed, [`ClientError::Server`] when the submission was rejected
    /// (malformed workload or config), [`ClientError::ShuttingDown`]
    /// when the server stopped before the job's outcome was ready, or
    /// [`ClientError::Redirected`] when a sharded server says
    /// another shard owns this key.
    pub fn run(&mut self, spec: &JobSpec) -> Result<(u64, JobReport), ClientError> {
        self.run_with(spec, &mut RetryPolicy::new())
    }

    /// [`Client::run`] pacing `Busy` retries with the caller's policy
    /// (its jitter seed makes tests deterministic; its deadline bounds
    /// the total wait).
    ///
    /// # Errors
    ///
    /// As [`Client::run`], plus [`ClientError::DeadlineExceeded`] from
    /// the policy.
    pub fn run_with(
        &mut self,
        spec: &JobSpec,
        policy: &mut RetryPolicy,
    ) -> Result<(u64, JobReport), ClientError> {
        self.run_inner(spec, policy, false)
    }

    /// [`Client::run_with`] as a `SubmitDirect`, which a sharded server
    /// runs itself instead of redirecting — the balancer's failover
    /// path onto a non-owner shard (redirect-following could
    /// otherwise loop).
    ///
    /// # Errors
    ///
    /// As [`Client::run_with`].
    pub fn run_direct_with(
        &mut self,
        spec: &JobSpec,
        policy: &mut RetryPolicy,
    ) -> Result<(u64, JobReport), ClientError> {
        self.run_inner(spec, policy, true)
    }

    fn run_inner(
        &mut self,
        spec: &JobSpec,
        policy: &mut RetryPolicy,
        direct: bool,
    ) -> Result<(u64, JobReport), ClientError> {
        // stamp once up front so every `Busy` retry resubmits the same
        // trace instead of minting a fresh id per attempt
        let spec = self.stamp(spec);
        let request = if direct {
            Request::SubmitDirect(spec)
        } else {
            Request::Submit(spec)
        };
        loop {
            match self.call(&request)? {
                Response::Done(report) => return Ok((report.job, report)),
                Response::Failed { message, .. } => return Err(ClientError::Job(message)),
                Response::Busy { .. } => policy.pause()?,
                Response::Redirect { addr, .. } => return Err(ClientError::Redirected(addr)),
                Response::Error(m) if m == SHUTTING_DOWN => return Err(ClientError::ShuttingDown),
                Response::Error(m) => return Err(ClientError::Server(m)),
                _ => return Err(ClientError::Unexpected("submit answered oddly")),
            }
        }
    }
}

/// Outcome of one balanced submission.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancedRun {
    /// Ring index of the shard that served the job.
    pub shard: usize,
    /// The finished report (its `job` is the job id on that shard).
    pub report: JobReport,
    /// How many shards were skipped (down, saturated past the
    /// deadline, or dead mid-call) before one answered.
    pub failovers: u32,
    /// The trace id stamped on the submission (0 when tracing was
    /// off). Feed it to
    /// [`Balancer::trace_dump`] to reconstruct the job's timeline.
    pub trace: u64,
}

/// First down-mark duration after a failed exchange with a shard.
const DOWN_BASE: Duration = Duration::from_millis(50);

/// Longest a down mark may last before the next recovery probe.
const DOWN_CAP: Duration = Duration::from_secs(2);

/// One shard's entry in the balancer's health table: skip it until
/// `until`, then let one submission through as a recovery probe.
struct DownState {
    until: Instant,
    backoff: Duration,
}

/// Client-side fleet router: owns one lazy connection per shard,
/// hashes every submission's content key on the shared [`ShardRing`],
/// and runs each job on its owning shard — falling over along the
/// ring's rendezvous order when shards fail.
///
/// Failover semantics, in order, per submission:
///
/// 1. the owner is tried first with a plain submit (the server may
///    know a better owner for the *canonical* key and answer
///    [`Response::Redirect`]; the balancer follows that once);
/// 2. a shard that is unreachable, sheds the connection, dies
///    mid-call (one transparent reconnect is attempted first), or
///    stays `Busy` past the policy deadline is skipped, and the next
///    shard in rendezvous order is tried with a *direct* submit —
///    bypassing ownership so the fallback shard cannot redirect back
///    to the dead owner;
/// 3. non-retryable failures (malformed workload, engine error, wire
///    corruption) surface immediately — another shard would answer
///    the same.
///
/// Submissions are idempotent under the content-addressed cache, so a
/// retry on another shard costs at most one redundant cold run while
/// the owner is down.
///
/// ```no_run
/// use ss_server::{Balancer, JobSpec, RetryPolicy};
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let spec: JobSpec = todo!();
/// let mut balancer = Balancer::new(vec![
///     "127.0.0.1:7211".into(),
///     "127.0.0.1:7212".into(),
///     "127.0.0.1:7213".into(),
/// ])?
/// .with_policy(RetryPolicy::new().with_deadline(Duration::from_secs(30)));
/// let run = balancer.run(&spec)?;
/// println!("shard {} served job {}", run.shard, run.report.job);
/// # Ok(())
/// # }
/// ```
pub struct Balancer {
    ring: ShardRing,
    conns: Vec<Option<Client>>,
    policy: RetryPolicy,
    /// Health table, parallel to the ring: `Some` marks a shard down.
    /// Marks expire on a decorrelated-jitter schedule, so a revived
    /// shard drains traffic back within one backoff and a dead one is
    /// probed ever more rarely (capped) instead of in lockstep.
    down: Vec<Option<DownState>>,
    /// Jitter source for down-mark durations.
    rng: SmallRng,
    /// Whether submissions are stamped with a fresh trace (default on).
    tracing: bool,
    /// Monotonic clock for the balancer's own spans.
    clock: TraceClock,
    /// Per-process sequence feeding [`span_id`].
    span_seq: u64,
    /// Spans the balancer recorded locally (failover hops, whole-run
    /// client-submit spans). Bounded: recording stops at capacity.
    local_spans: Vec<Span>,
}

/// Most spans a balancer keeps locally before dropping new ones.
const LOCAL_SPAN_CAPACITY: usize = 4096;

impl Balancer {
    /// Builds a balancer over the fleet's advertised addresses — the
    /// exact strings the shards were configured with, in any order.
    ///
    /// # Errors
    ///
    /// [`ShardError`] for a degenerate peer list.
    pub fn new(peers: Vec<String>) -> Result<Balancer, ShardError> {
        let ring = ShardRing::new(peers)?;
        let conns = (0..ring.len()).map(|_| None).collect();
        let down = (0..ring.len()).map(|_| None).collect();
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Ok(Balancer {
            ring,
            conns,
            policy: RetryPolicy::new(),
            down,
            rng: SmallRng::seed_from_u64(clock ^ u64::from(std::process::id())),
            tracing: true,
            clock: TraceClock::new(),
            span_seq: 0,
            local_spans: Vec::new(),
        })
    }

    /// Enables or disables trace stamping for future submissions
    /// (default on). A context the caller put on the spec themselves
    /// always travels regardless.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Records one balancer-side span (dropped when untraced or at
    /// capacity — the hot path never grows without bound).
    fn record_local(&mut self, trace: u64, kind: SpanKind, start_micros: u64, note: String) {
        if trace == 0 || self.local_spans.len() >= LOCAL_SPAN_CAPACITY {
            return;
        }
        self.span_seq += 1;
        self.local_spans.push(Span {
            trace,
            id: span_id(trace, self.span_seq),
            parent: 0,
            kind,
            start_micros,
            duration_micros: self.clock.now_micros().saturating_sub(start_micros),
            note,
        });
    }

    /// The spans this balancer recorded locally, packaged with its
    /// clock pair so they stitch alongside server dumps (conventional
    /// address label: `"client"`).
    pub fn local_dump(&self) -> SpanDump {
        SpanDump {
            wall_micros: wall_micros(),
            mono_micros: self.clock.now_micros(),
            recorded: self.local_spans.len() as u64,
            evicted: 0,
            spans: self.local_spans.clone(),
        }
    }

    /// Replaces the backoff policy (seeded for deterministic tests,
    /// or deadline-bounded so saturation fails over instead of
    /// blocking forever). The policy is reset before every shard
    /// attempt.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Balancer {
        self.policy = policy;
        self
    }

    /// The placement ring this balancer routes on.
    pub fn ring(&self) -> &ShardRing {
        &self.ring
    }

    /// The membership epoch of the ring this balancer routes on.
    pub fn epoch(&self) -> u64 {
        self.ring.epoch()
    }

    /// Marks a shard down, extending its mark on a decorrelated-jitter
    /// schedule: `uniform(base, 3 × previous)`, capped.
    fn mark_down(&mut self, shard: usize) {
        let backoff = match &self.down[shard] {
            Some(d) => (d.backoff * 3).min(DOWN_CAP),
            None => DOWN_BASE,
        };
        let lo = DOWN_BASE.as_micros() as u64;
        let hi = (backoff.as_micros() as u64).max(lo + 1);
        let wait = Duration::from_micros(self.rng.gen_range(lo..hi));
        self.down[shard] = Some(DownState {
            until: Instant::now() + wait,
            backoff,
        });
    }

    /// Whether a shard's down mark is still in force (an expired mark
    /// lets one submission through as the recovery probe).
    fn is_down(&self, shard: usize) -> bool {
        self.down[shard]
            .as_ref()
            .is_some_and(|d| Instant::now() < d.until)
    }

    /// One full attempt against one shard, maintaining its health
    /// entry: success or a redirect clears the mark (the shard
    /// answered — it is alive), a retryable failure extends it.
    fn try_shard(
        &mut self,
        shard: usize,
        spec: &JobSpec,
        direct: bool,
    ) -> Result<BalancedRun, ClientError> {
        match self.run_on(shard, spec, direct) {
            Ok(report) => {
                self.down[shard] = None;
                Ok(BalancedRun {
                    shard,
                    report,
                    failovers: 0,
                    trace: spec.trace.trace,
                })
            }
            // the server computed ownership on the canonical key and
            // knows better than our raw-text hash: follow that once
            Err(ClientError::Redirected(addr)) => {
                self.down[shard] = None;
                self.follow_redirect(&addr, spec)
            }
            Err(e) => {
                if e.is_retryable() || matches!(e, ClientError::Io(_)) {
                    self.mark_down(shard);
                }
                Err(e)
            }
        }
    }

    /// Routes one submission: owner first, then rendezvous-ordered
    /// failover. Shards under a live down mark are skipped outright —
    /// no connect timeout paid — and tried only after every unmarked
    /// shard has failed (a servable key must never fail because the
    /// health table is pessimistic). A skipped shard counts as one
    /// failover; failing again on the second try adds none.
    ///
    /// # Errors
    ///
    /// The last shard's error when every shard failed retryably, or
    /// the first non-retryable error.
    pub fn run(&mut self, spec: &JobSpec) -> Result<BalancedRun, ClientError> {
        // the balancer mints the trace (rather than each per-shard
        // client) so every failover attempt travels under one id and
        // the whole exchange stitches into a single timeline
        let mut spec = spec.clone();
        if self.tracing && !spec.trace.is_active() {
            spec.trace = TraceContext::root(fresh_trace_id());
        }
        let trace = spec.trace.trace;
        let started = self.clock.now_micros();
        let key = cache_key(&spec);
        // (rank, shard, second try): a marked shard is skipped in rank
        // order and appended for a second try behind every unmarked one
        let mut order: Vec<(usize, usize, bool)> = self
            .ring
            .ranked(key)
            .into_iter()
            .enumerate()
            .map(|(attempt, shard)| (attempt, shard, false))
            .collect();
        let mut failovers = 0u32;
        let mut last_err = None;
        let mut next = 0;
        while let Some(&(attempt, shard, retry)) = order.get(next) {
            next += 1;
            let addr = self.ring.shards()[shard].clone();
            if !retry && self.is_down(shard) {
                let now = self.clock.now_micros();
                self.record_local(
                    trace,
                    SpanKind::FailoverHop,
                    now,
                    format!("{addr} marked down"),
                );
                order.push((attempt, shard, true));
                failovers += 1;
                continue;
            }
            // fallback shards are submitted direct: they don't own the
            // key, and redirecting back to a dead owner would loop
            spec.trace.hop = attempt as u32;
            let hop_start = self.clock.now_micros();
            match self.try_shard(shard, &spec, attempt > 0) {
                Ok(mut run) => {
                    run.failovers += failovers;
                    self.record_local(
                        trace,
                        SpanKind::ClientSubmit,
                        started,
                        format!("job {} on {addr}", run.report.job),
                    );
                    return Ok(run);
                }
                Err(e) if e.is_retryable() || matches!(e, ClientError::Io(_)) => {
                    self.record_local(
                        trace,
                        SpanKind::FailoverHop,
                        hop_start,
                        format!("{addr}: {e}"),
                    );
                    if !retry {
                        failovers += 1;
                    }
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        self.record_local(
            trace,
            SpanKind::ClientSubmit,
            started,
            "all shards failed".into(),
        );
        Err(last_err.unwrap_or(ClientError::Unexpected("no shards configured")))
    }

    /// Installs a membership view locally: fresh ring (stamped with
    /// `epoch`), fresh connections, clean health table.
    fn adopt(&mut self, epoch: u64, peers: Vec<String>) -> Result<(), ShardError> {
        let ring = ShardRing::new(peers)?.with_epoch(epoch);
        self.conns = (0..ring.len()).map(|_| None).collect();
        self.down = (0..ring.len()).map(|_| None).collect();
        self.ring = ring;
        Ok(())
    }

    /// Pings every shard and adopts the highest strictly-newer
    /// membership view any peer advertises — the balancer-side half of
    /// epoch gossip, the route by which a balancer that never saw the
    /// admin `Reconfigure` still converges. Returns the epoch in force
    /// afterwards.
    pub fn refresh_membership(&mut self) -> u64 {
        let mut best: Option<(u64, Vec<String>)> = None;
        for shard in 0..self.ring.len() {
            if self.ensure_conn(shard).is_err() {
                self.conns[shard] = None;
                continue;
            }
            match self.conns[shard].as_mut().unwrap().ping() {
                Ok((epoch, _, peers)) if epoch > self.ring.epoch() && !peers.is_empty() => {
                    if best.as_ref().is_none_or(|(e, _)| epoch > *e) {
                        best = Some((epoch, peers));
                    }
                }
                Ok(_) => {}
                Err(_) => self.conns[shard] = None,
            }
        }
        if let Some((epoch, peers)) = best {
            let _ = self.adopt(epoch, peers);
        }
        self.ring.epoch()
    }

    /// Pushes a new membership view to the fleet: sends
    /// `Reconfigure{epoch, peers}` to every member of the union of the
    /// old and new rings (departing shards must learn they left too),
    /// then adopts the view locally. Succeeds when at least one peer
    /// acknowledged — epoch gossip converges the rest within a probe
    /// interval.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for a degenerate peer list, or the last
    /// peer's error when no peer acknowledged.
    pub fn reconfigure(&mut self, epoch: u64, peers: Vec<String>) -> Result<u64, ClientError> {
        ShardRing::new(peers.clone()).map_err(|e| ClientError::Server(e.to_string()))?;
        let mut targets: Vec<String> = self.ring.shards().to_vec();
        for peer in &peers {
            if !targets.contains(peer) {
                targets.push(peer.clone());
            }
        }
        let mut acks = 0u32;
        let mut last_err = None;
        for addr in &targets {
            match Client::connect(addr).and_then(|mut c| c.reconfigure(epoch, peers.clone())) {
                Ok(_) => acks += 1,
                Err(e) => last_err = Some(e),
            }
        }
        if acks == 0 {
            return Err(last_err.unwrap_or(ClientError::Unexpected("no peers to reconfigure")));
        }
        self.adopt(epoch, peers)
            .map_err(|e| ClientError::Server(e.to_string()))?;
        Ok(epoch)
    }

    /// One trace's spans from every reachable shard, in ring order —
    /// the raw material for a stitched cross-shard timeline (append
    /// [`Balancer::local_dump`] under the label `"client"` to include
    /// the balancer's own hops).
    pub fn trace_dump(&mut self, trace: u64) -> Vec<(String, Result<SpanDump, ClientError>)> {
        (0..self.ring.len())
            .map(|shard| {
                let addr = self.ring.shards()[shard].clone();
                let dump = self
                    .ensure_conn(shard)
                    .and_then(|_| self.conns[shard].as_mut().unwrap().trace_dump(trace));
                if dump.is_err() {
                    self.conns[shard] = None;
                }
                (addr, dump)
            })
            .collect()
    }

    fn ensure_conn(&mut self, shard: usize) -> Result<(), ClientError> {
        if self.conns[shard].is_none() {
            let addr = self.ring.shards()[shard].as_str();
            self.conns[shard] = Some(Client::connect(addr)?);
        }
        Ok(())
    }

    /// Runs on one shard, transparently reconnecting once when an
    /// idle-timed-out or dying connection drops mid-call.
    fn run_on(
        &mut self,
        shard: usize,
        spec: &JobSpec,
        direct: bool,
    ) -> Result<JobReport, ClientError> {
        for fresh in [false, true] {
            self.ensure_conn(shard)?;
            self.policy.reset();
            let client = self.conns[shard].as_mut().unwrap();
            let result = if direct {
                client.run_direct_with(spec, &mut self.policy)
            } else {
                client.run_with(spec, &mut self.policy)
            };
            match result {
                Err(e @ ClientError::Disconnected(_)) => {
                    self.conns[shard] = None;
                    if fresh {
                        return Err(e);
                    }
                }
                other => return other.map(|(_, report)| report),
            }
        }
        unreachable!("second pass always returns")
    }

    /// Follows one redirect to the canonical owner; submits direct so
    /// a confused peer can't bounce us again.
    fn follow_redirect(&mut self, addr: &str, spec: &JobSpec) -> Result<BalancedRun, ClientError> {
        if let Some(shard) = self.ring.shards().iter().position(|a| a == addr) {
            let report = self.run_on(shard, spec, true)?;
            return Ok(BalancedRun {
                shard,
                report,
                failovers: 0,
                trace: spec.trace.trace,
            });
        }
        // an address outside our ring (rolling reconfiguration):
        // honor it with a one-shot connection
        let mut client = Client::connect(addr)?;
        self.policy.reset();
        let (_, report) = client.run_direct_with(spec, &mut self.policy)?;
        Ok(BalancedRun {
            shard: usize::MAX,
            report,
            failovers: 0,
            trace: spec.trace.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Same seed, same sleep sequence; different seed, different
    /// sequence; every sleep within [base, cap] — pinned so `Busy`
    /// retry tests stay deterministic.
    #[test]
    fn seeded_backoff_is_deterministic_jitter() {
        let mut a = RetryPolicy::seeded(7);
        let mut b = RetryPolicy::seeded(7);
        let mut c = RetryPolicy::seeded(8);
        let sleeps_a: Vec<Duration> = (0..32).map(|_| a.next_sleep()).collect();
        let sleeps_b: Vec<Duration> = (0..32).map(|_| b.next_sleep()).collect();
        let sleeps_c: Vec<Duration> = (0..32).map(|_| c.next_sleep()).collect();
        assert_eq!(sleeps_a, sleeps_b, "seeded jitter must be reproducible");
        assert_ne!(sleeps_a, sleeps_c, "different seeds must decorrelate");
        for s in &sleeps_a {
            assert!(*s >= RetryPolicy::BASE && *s <= RetryPolicy::CAP, "{s:?}");
        }
        // jitter, not a ladder: the tail must not be one constant value
        let tail = &sleeps_a[8..];
        assert!(
            tail.iter().any(|s| s != &tail[0]),
            "backoff degenerated into a deterministic ladder"
        );
        // reset rewinds the ladder: the next sleep is near base again
        a.reset();
        assert_eq!((a.attempts(), a.waited), (0, Duration::ZERO));
        assert!(a.next_sleep() < Duration::from_millis(3));
    }

    #[test]
    fn deadline_zero_fails_without_sleeping() {
        let mut policy = RetryPolicy::seeded(1).with_deadline(Duration::ZERO);
        match policy.pause() {
            Err(ClientError::DeadlineExceeded { waited, attempts }) => {
                assert_eq!(waited, Duration::ZERO);
                assert_eq!(attempts, 1);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(ClientError::DeadlineExceeded {
            waited: Duration::ZERO,
            attempts: 1
        }
        .is_retryable());
    }

    /// A fake server that acks the `Hello` with the preferred codec,
    /// then serves `reply` to every request until the client leaves.
    fn fake_server(
        reply: fn(Request) -> Response,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = Request::decode(&read_frame(&mut stream).unwrap()).unwrap();
            assert!(matches!(hello, Request::Hello(_)), "opened with {hello:?}");
            let agreed = CodecConfig::preferred();
            write_frame(&mut stream, &Response::HelloAck(agreed).encode()).unwrap();
            let codec = Codec::new(agreed);
            while let Ok(payload) = codec.read_message(&mut stream, &mut WireStats::default()) {
                let answer = reply(Request::decode(&payload).unwrap()).encode();
                if codec.write_message(&mut stream, &answer).is_err() {
                    break;
                }
            }
        });
        (addr, server)
    }

    /// A server that answers every submission `Busy` forever: the run
    /// must absorb rejections with backoff and fail over to
    /// `DeadlineExceeded` instead of spinning for eternity.
    #[test]
    fn run_with_deadline_escapes_a_saturated_server() {
        let (addr, server) = fake_server(|request| {
            assert!(matches!(request, Request::Submit(_)));
            Response::Busy {
                queued: 4,
                capacity: 4,
            }
        });

        let mut client = Client::connect(addr).unwrap();
        let mut policy = RetryPolicy::seeded(42).with_deadline(Duration::from_millis(20));
        let spec = JobSpec {
            set_text: "chains 1 depth 2\n1X\n".to_string(),
            window: 16,
            segment: 4,
            speedup: 4,
            lfsr_size: 0,
            lfsr_kind: ss_lfsr::LfsrKind::Galois,
            ps_taps: 3,
            hw_seed: 1,
            fill_seed: 1,
            trace: TraceContext::default(),
        };
        match client.run_with(&spec, &mut policy) {
            Err(ClientError::DeadlineExceeded { waited, attempts }) => {
                assert!(attempts >= 2, "only {attempts} rejections absorbed");
                assert!(waited >= Duration::from_millis(20));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        drop(client);
        server.join().unwrap();
    }

    /// A listener that completes the TCP handshake but never answers
    /// the `Hello` cannot hang `connect`: it fails within the bound.
    #[test]
    fn connect_to_a_silent_listener_fails_within_the_hello_timeout() {
        // never accepted: the kernel still completes the handshake
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let started = Instant::now();
        match Client::connect(listener.local_addr().unwrap()) {
            Err(ClientError::Io(err)) => assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "silent peer surfaced as {err}"
            ),
            Err(other) => panic!("silent peer surfaced as {other}"),
            Ok(_) => panic!("a silent peer acked the Hello"),
        }
        let waited = started.elapsed();
        assert!(waited >= HELLO_TIMEOUT, "gave up early: {waited:?}");
        assert!(
            waited < HELLO_TIMEOUT + Duration::from_secs(3),
            "blocked past the bound: {waited:?}"
        );
    }

    /// The `Hello` deadline is lifted once the codec is agreed: a
    /// `Submit` on a long cold encode must not time out.
    #[test]
    fn connected_socket_has_no_read_timeout() {
        let (addr, server) = fake_server(|_| Response::Error("unused".into()));
        let client = Client::connect(addr).unwrap();
        assert_eq!(client.codec_config(), Some(CodecConfig::preferred()));
        assert_eq!(client.stream.read_timeout().unwrap(), None);
        assert_eq!(client.stream.write_timeout().unwrap(), None);
        drop(client);
        server.join().unwrap();
    }

    /// A reply stamped with another protocol version is refused as a
    /// typed wire error, never misparsed.
    #[test]
    fn a_reply_in_another_version_surfaces_as_a_version_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap();
            let mut ack = Response::HelloAck(CodecConfig::preferred()).encode();
            ack[0] = crate::PROTOCOL_VERSION + 1;
            write_frame(&mut stream, &ack).unwrap();
        });
        match Client::connect(addr) {
            Err(ClientError::Wire(WireError::Version(v))) => {
                assert_eq!(v, crate::PROTOCOL_VERSION + 1)
            }
            Err(other) => panic!("expected a version error, got {other}"),
            Ok(_) => panic!("accepted an ack in another version"),
        }
        server.join().unwrap();
    }
}
