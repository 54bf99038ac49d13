//! Adversarial noise-injection harness for the wire codec: a live
//! server is attacked with deterministically corrupted chunk streams —
//! bit flips, truncations, length-field lies, chunk reordering and
//! mid-message disconnects — and must never panic, never serve a
//! report that differs from the uncached golden answer, and surface a
//! decodable typed error (or a clean close) for every injected fault.
//!
//! Determinism: every corruption is drawn from a seeded `SmallRng`
//! (seed = `BASE_SEED` ⊕ mode ⊕ workload ⊕ round), no wall-clock
//! anywhere, so a failure reproduces exactly. `SS_NOISE_ROUNDS`
//! raises the rounds per (mode, workload) pair for soak runs (CI sets
//! it explicitly; the default keeps the debug-build test quick).

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ss_core::Engine;
use ss_server::protocol::{read_frame, write_frame};
use ss_server::{
    report_digest, Client, Codec, CodecConfig, JobSpec, Request, Response, ServeOptions, Server,
    WireStats, MAX_CHUNK_BYTES, MAX_FRAME_BYTES, MIN_CHUNK_BYTES, PROTOCOL_VERSION,
};
use ss_testdata::{TestSet, WorkloadRegistry};

const BASE_SEED: u64 = 0x5EED_C0DE_CBAD_BEEF;
const WINDOW: usize = 24;
const SEGMENT: usize = 4;
const SPEEDUP: u64 = 6;

/// The five corruption modes the acceptance criteria pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Flip one bit inside one chunk frame's payload.
    BitFlip,
    /// Cut the byte stream mid-frame, then half-close.
    Truncate,
    /// Rewrite one frame's length prefix to a lie (small or absurd).
    LengthLie,
    /// Swap two adjacent chunk frames (each individually intact).
    Reorder,
    /// Send a proper prefix of whole frames, then vanish.
    Disconnect,
}

const MODES: [Mode; 5] = [
    Mode::BitFlip,
    Mode::Truncate,
    Mode::LengthLie,
    Mode::Reorder,
    Mode::Disconnect,
];

fn rounds_per_pair() -> u64 {
    std::env::var("SS_NOISE_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

fn engine() -> Engine {
    Engine::builder()
        .window(WINDOW)
        .segment(SEGMENT)
        .speedup(SPEEDUP)
        .build()
        .expect("test knobs are valid")
}

/// The uncached golden answer: the CLI `run` path, no server, no
/// cache (same construction as tests/server_concurrency.rs).
fn golden_digest(set: &TestSet) -> u64 {
    let engine = engine();
    let ctx = engine.synthesize(set).expect("synthesis succeeds");
    let (encodable, _) = ctx.encodable_subset(set);
    let mut config = *engine.config();
    config.lfsr_size = Some(ctx.lfsr_size());
    let report = Engine::from_config(config)
        .expect("pinned config is valid")
        .run(&encodable)
        .expect("engine run succeeds");
    report_digest(&report)
}

fn corpus() -> Vec<(String, JobSpec, u64)> {
    ["tiny-1", "tiny-pad", "mini-7"]
        .iter()
        .map(|name| {
            let set = WorkloadRegistry::find(name)
                .expect("registry entry")
                .test_set();
            let golden = golden_digest(&set);
            (
                name.to_string(),
                JobSpec::new(&set, engine().config()),
                golden,
            )
        })
        .collect()
}

/// Opens a raw connection and hand-negotiates the codec, returning the
/// stream and the agreed chain — the harness's hands on the wire.
fn negotiate(addr: SocketAddr, offer: CodecConfig) -> (TcpStream, Codec) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    write_frame(&mut stream, &Request::Hello(offer).encode()).expect("hello");
    let payload = read_frame(&mut stream).expect("hello ack frame");
    match Response::decode(&payload).expect("hello ack decodes") {
        Response::HelloAck(agreed) => {
            assert_eq!(agreed, offer, "in-range offer must be accepted as-is");
            (stream, Codec::new(agreed))
        }
        other => panic!("hello answered with {other:?}"),
    }
}

/// Frame payloads → the exact wire segments (length prefix + payload)
/// the client would send.
fn wire_segments(frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|frame| {
            let mut seg = (frame.len() as u32).to_be_bytes().to_vec();
            seg.extend_from_slice(frame);
            seg
        })
        .collect()
}

/// Applies one deterministic corruption, returning the bytes to put on
/// the wire.
fn corrupt(mode: Mode, segments: &[Vec<u8>], rng: &mut SmallRng) -> Vec<u8> {
    let mut segments = segments.to_vec();
    match mode {
        Mode::BitFlip => {
            let at = rng.gen_range(0..segments.len());
            // flip inside the frame payload, not the length prefix
            // (prefix lies are LengthLie's job)
            let bit = rng.gen_range(0..(segments[at].len() - 4) * 8);
            segments[at][4 + bit / 8] ^= 1 << (bit % 8);
            segments.concat()
        }
        Mode::Truncate => {
            let all = segments.concat();
            // cut somewhere strictly inside the stream
            let cut = rng.gen_range(1..all.len());
            all[..cut].to_vec()
        }
        Mode::LengthLie => {
            let at = rng.gen_range(0..segments.len());
            let declared = segments[at].len() as u32 - 4;
            let lie: u32 = if rng.gen_bool(0.5) {
                // absurd: past the frame cap, rejected before allocation
                MAX_FRAME_BYTES as u32 + 1 + rng.gen_range(0..1024u32)
            } else {
                // subtle: off by a little, desynchronising the stream
                declared.wrapping_add(rng.gen_range(1..16))
            };
            segments[at][..4].copy_from_slice(&lie.to_be_bytes());
            segments.concat()
        }
        Mode::Reorder => {
            assert!(segments.len() >= 2, "reorder needs a multi-chunk message");
            let at = rng.gen_range(0..segments.len() - 1);
            segments.swap(at, at + 1);
            segments.concat()
        }
        Mode::Disconnect => {
            assert!(
                segments.len() >= 2,
                "disconnect needs a multi-chunk message"
            );
            let keep = rng.gen_range(1..segments.len());
            segments[..keep].concat()
        }
    }
}

/// What the server did about an injected fault.
#[derive(Debug)]
enum Outcome {
    /// A decodable, typed protocol error came back.
    TypedError(String),
    /// The connection closed with no (complete) reply.
    CleanClose,
}

/// Runs one corrupted submission and classifies the server's
/// reaction. Panics — failing the harness — if the server answers the
/// corrupted submit with anything but a typed error or a close.
fn inject(addr: SocketAddr, spec: &JobSpec, mode: Mode, seed: u64) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    // tiny chunks force multi-frame messages; compression only in
    // modes that tolerate a possibly-single-frame compressed payload
    let compress = !matches!(mode, Mode::Reorder | Mode::Disconnect) && rng.gen_bool(0.5);
    let offer = CodecConfig {
        compress,
        chunk_bytes: MIN_CHUNK_BYTES,
    };
    let (mut stream, codec) = negotiate(addr, offer);
    let payload = Request::Submit(spec.clone()).encode();
    let frames = codec.encode_frames(&payload).expect("encode");
    let segments = wire_segments(&frames);
    let wire = corrupt(mode, &segments, &mut rng);

    // a large write can fail once the server has already rejected the
    // stream and closed — that's a valid detection, not a test error
    let wrote = stream.write_all(&wire).and_then(|()| stream.flush());
    let _ = stream.shutdown(Shutdown::Write);
    match codec.read_message(&mut stream, &mut WireStats::default()) {
        Ok(reply) => match Response::decode(&reply).expect("reply must be decodable") {
            Response::Error(message) => Outcome::TypedError(message),
            other => panic!("corrupted submit ({mode:?}, seed {seed:#x}) answered {other:?}"),
        },
        Err(err) => {
            assert!(
                wrote.is_err() || matches!(err, ss_server::CodecError::Io(_)),
                "client-side decode of the reply failed oddly: {err}"
            );
            Outcome::CleanClose
        }
    }
}

/// The headline harness: every mode × every corpus workload × N
/// seeded rounds against one live server; after every fault the same
/// workload must still be served bit-identical to the golden answer.
#[test]
fn corrupted_streams_never_panic_and_never_change_answers() {
    let corpus = corpus();
    let rounds = rounds_per_pair();
    let handle = Server::bind(&ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    })
    .expect("bind loopback")
    .spawn();

    let mut typed_errors = 0u64;
    let mut clean_closes = 0u64;
    for (mode_at, mode) in MODES.iter().enumerate() {
        for (work_at, (name, spec, golden)) in corpus.iter().enumerate() {
            for round in 0..rounds {
                let seed = BASE_SEED ^ ((mode_at as u64) << 24) ^ ((work_at as u64) << 16) ^ round;
                match inject(handle.addr(), spec, *mode, seed) {
                    Outcome::TypedError(message) => {
                        typed_errors += 1;
                        assert!(
                            !message.is_empty(),
                            "typed error for {mode:?} on {name} is empty"
                        );
                    }
                    Outcome::CleanClose => clean_closes += 1,
                }
            }
            // the fault must not have poisoned anything: a clean
            // submission still matches the uncached golden answer
            let mut client = Client::connect(handle.addr()).expect("clean connect");
            let (_, report) = client.run(spec).expect("clean run after corruption");
            assert_eq!(
                report.digest, *golden,
                "{name}: digest diverged from golden after {mode:?} injections"
            );
        }
    }

    // detection telemetry: flips and reorders answer typed errors, so
    // both outcome classes and the CRC counter must have fired
    assert!(typed_errors > 0, "no injected fault surfaced a typed error");
    assert!(clean_closes > 0, "no injected fault ended in a close");
    let mut client = Client::connect(handle.addr()).expect("stats connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.codec.crc_rejects > 0,
        "bit flips ran but the CRC reject counter never moved"
    );
    assert!(stats.codec.connections > 0);
    assert!(stats.codec.frames_received > stats.codec.crc_rejects);
    handle.shutdown();
}

/// Acceptance: a payload past the 64 MiB single-frame cap streams
/// through the chunk codec bit-identically — and a single plain frame
/// really cannot carry it.
#[test]
fn payload_past_the_frame_cap_round_trips_chunked() {
    let len = MAX_FRAME_BYTES + MAX_FRAME_BYTES / 16; // 68 MiB
    let mut message = vec![0u8; len];
    let mut state = BASE_SEED;
    for chunk in message.chunks_mut(8) {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let bytes = state.to_be_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }

    // one plain frame refuses it outright
    let mut sink = Vec::new();
    let err = write_frame(&mut sink, &message).expect_err("one frame cannot carry 68 MiB");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // the chunk codec streams it
    let codec = Codec::new(CodecConfig {
        compress: false,
        chunk_bytes: MAX_CHUNK_BYTES,
    });
    let mut wire = Vec::with_capacity(len + len / 1024);
    let wrote = codec
        .write_message(&mut wire, &message)
        .expect("chunked write");
    assert_eq!(wrote.raw_bytes as usize, len);
    assert_eq!(
        wrote.frames as usize,
        len.div_ceil(MAX_CHUNK_BYTES as usize)
    );
    let mut cursor = &wire[..];
    let mut read = WireStats::default();
    let back = codec
        .read_message(&mut cursor, &mut read)
        .expect("chunked read");
    assert!(cursor.is_empty());
    assert_eq!(read.frames, wrote.frames);
    assert!(back == message, "68 MiB round trip must be bit-identical");
}

/// Sends one plain frame as a connection's opening message and
/// returns the typed error it must draw — after which the server must
/// close the connection.
fn refused_opener(addr: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    write_frame(&mut stream, payload).expect("opener");
    let reply = read_frame(&mut stream).expect("one reply frame");
    let message = match Response::decode(&reply).expect("reply decodes") {
        Response::Error(message) => message,
        other => panic!("refused opener answered {other:?}"),
    };
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "the server kept talking after refusing");
    message
}

/// Every connection opens with a `Hello` at this build's version: a
/// plain `Submit` frame without one, or a `Hello` stamped with another
/// version byte, draws one typed `Error` and then EOF, and is never
/// counted as a connection. Proper clients on two connections share
/// the cache, over a compressing codec that nets a byte saving.
#[test]
fn only_a_hello_at_this_version_opens_a_connection() {
    let (_, spec, golden) = corpus().remove(0);
    let handle = Server::bind(&ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("bind loopback")
    .spawn();

    let message = refused_opener(handle.addr(), &Request::Submit(spec.clone()).encode());
    assert!(message.contains("Hello"), "refusal says why: {message}");
    for other in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut hello = Request::Hello(CodecConfig::preferred()).encode();
        hello[0] = other;
        let message = refused_opener(handle.addr(), &hello);
        assert!(
            message.contains(&format!("version {other}")),
            "refusal names the version: {message}"
        );
    }

    let mut first = Client::connect(handle.addr()).expect("connect");
    let (_, cold) = first.run(&spec).expect("cold run");
    assert_eq!(cold.digest, golden);
    assert!(!cold.cached());

    // a second connection hits the cache the first one warmed
    let mut second = Client::connect(handle.addr()).expect("connect");
    assert!(second.codec_config().is_some());
    let (_, warm) = second.run(&spec).expect("warm run");
    assert_eq!(warm.digest, golden);
    assert!(
        warm.cached(),
        "same key must hit the cache across connections"
    );

    let stats = second.stats().expect("stats");
    assert_eq!(
        stats.codec.connections, 2,
        "refused openers are not connections"
    );
    assert!(stats.codec.frames_sent > 0 && stats.codec.frames_received > 0);
    assert!(
        stats.codec.raw_tx_bytes > stats.codec.wire_tx_bytes,
        "compressed replies must net-save bytes"
    );
    handle.shutdown();
}
