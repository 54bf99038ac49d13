//! Property-based tests for the wire protocol: every message, under
//! adversarial bytes, through both the plain payload codecs and the
//! chunk codec.
//!
//! This extends the artifact-format properties pinned in
//! `crates/store/src/proptests.rs` to the protocol layer. The
//! contracts:
//!
//! * decode(encode(m)) is identity for every message;
//! * every proper prefix of a valid payload is rejected — never a
//!   panic, never a partial message;
//! * a payload that decodes at all re-encodes to exactly the bytes
//!   that were decoded (the encoding is canonical), so a single-bit
//!   flip can never smuggle a *different* message through undetected
//!   at the payload layer without being a well-formed message itself,
//!   and a flipped version byte is always refused as a version
//!   mismatch;
//! * through the chunk codec, every single-bit flip of any wire frame
//!   is caught by the per-chunk CRC — the flip never reaches the
//!   payload parser at all;
//! * arbitrary random bytes never panic any decoder.

#![cfg(test)]

use proptest::prelude::*;

use ss_lfsr::LfsrKind;

use crate::codec::{Codec, CodecConfig, CodecError, MIN_CHUNK_BYTES};
use crate::protocol::{
    CacheTier, CodecCounters, ConnStats, JobReport, JobSpec, PhaseHistogram, Request, Response,
    ServerStats, Span, SpanDump, SpanKind, TierStats, TraceContext, WireError,
};
use crate::shard::ShardRing;

fn spec() -> JobSpec {
    JobSpec {
        set_text: "chains 2 depth 3\n1X0X10\nXX1XXX\n".to_string(),
        window: 24,
        segment: 4,
        speedup: 6,
        lfsr_size: 0,
        lfsr_kind: LfsrKind::Galois,
        ps_taps: 3,
        hw_seed: 77,
        fill_seed: 1,
        // nonzero so the corpus exercises the context fields
        trace: TraceContext {
            trace: 0x7AC3_0001_0002_0003,
            parent: 0x5EED_0004_0005_0006,
            hop: 2,
        },
    }
}

fn span_dump() -> SpanDump {
    SpanDump {
        wall_micros: 1_700_000_000_000_000,
        mono_micros: 55_123,
        recorded: 9,
        evicted: 1,
        spans: vec![Span {
            trace: 0x7AC3_0001_0002_0003,
            id: 0x1122_3344_5566_7788,
            parent: 0,
            kind: SpanKind::ReplicatePush,
            start_micros: 50_000,
            duration_micros: 1_234,
            note: "key=00000000deadbeef -> 127.0.0.1:7212".to_string(),
        }],
    }
}

fn report() -> JobReport {
    JobReport {
        lfsr_size: 38,
        window: 24,
        segment: 4,
        speedup: 6,
        cubes: 40,
        dropped: 1,
        seeds: 25,
        tdv: 950,
        tsl_original: 600,
        tsl_truncated: 400,
        tsl_proposed: 135,
        digest: 0xDEAD_BEEF_CAFE_F00D,
        tier: CacheTier::Memory,
        service_micros: 12_345,
        conn: ConnStats {
            frames_sent: 3,
            frames_received: 4,
            raw_tx_bytes: 2048,
            wire_tx_bytes: 900,
            raw_rx_bytes: 512,
            wire_rx_bytes: 300,
        },
        trace: 0x7AC3_0001_0002_0003,
        job: 0x0000_0001_0000_002A,
    }
}

fn stats() -> ServerStats {
    let mut histogram = PhaseHistogram::default();
    histogram.record(1500);
    ServerStats {
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
        disk: TierStats::default(),
        store_writes: 40,
        disk_corruptions: 1,
        synthesis: histogram,
        encode: PhaseHistogram::default(),
        embed: histogram,
        segment: PhaseHistogram::default(),
        codec: CodecCounters {
            connections: 3,
            frames_sent: 30,
            frames_received: 31,
            crc_rejects: 1,
            raw_tx_bytes: 4096,
            wire_tx_bytes: 1024,
            raw_rx_bytes: 512,
            wire_rx_bytes: 600,
        },
        connections_active: 2,
        connections_max: 128,
        connections_shed: 6,
        redirects: 3,
        shard_id: 1,
        shard_count: 3,
        epoch: 4,
        replicas_sent: 11,
        replicas_received: 12,
        replica_queue_drops: 1,
        reconfigures: 2,
        peers_down: 1,
        spans_recorded: 44,
        spans_evicted: 3,
    }
}

/// Every request variant.
fn requests() -> Vec<Request> {
    vec![
        Request::Hello(CodecConfig::preferred()),
        Request::Submit(spec()),
        Request::SubmitDirect(spec()),
        Request::Stats,
        Request::Replicate {
            epoch: 3,
            key: 0x1234_5678_9ABC_DEF0,
            bytes: vec![7, 0, 255, 42],
            trace: 0x7AC3_0001_0002_0003,
        },
        Request::Reconfigure {
            epoch: 9,
            peers: vec!["127.0.0.1:7211".to_string(), "127.0.0.1:7212".to_string()],
        },
        Request::Ping,
        Request::TraceDump {
            trace: 0x7AC3_0001_0002_0003,
        },
    ]
}

/// Every response variant.
fn responses() -> Vec<Response> {
    vec![
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
                raw_tx_bytes: 128,
                wire_tx_bytes: 90,
                raw_rx_bytes: 64,
                wire_rx_bytes: 50,
            },
        },
        Response::Stats(stats()),
        Response::Error("server shutting down".to_string()),
        Response::HelloAck(CodecConfig {
            compress: false,
            chunk_bytes: MIN_CHUNK_BYTES,
        }),
        Response::Redirect {
            addr: "127.0.0.1:7212".to_string(),
            trace: 0x7AC3_0001_0002_0003,
        },
        Response::Spans(span_dump()),
        Response::Pong {
            epoch: 5,
            shard_id: u32::MAX,
            peers: vec!["127.0.0.1:7211".to_string(), "127.0.0.1:7213".to_string()],
        },
        Response::Ack { epoch: 5 },
    ]
}

/// The canonical payload of every message.
fn all_payloads() -> Vec<Vec<u8>> {
    requests()
        .iter()
        .map(Request::encode)
        .chain(responses().iter().map(Response::encode))
        .collect()
}

#[test]
fn every_message_round_trips() {
    for request in requests() {
        assert_eq!(Request::decode(&request.encode()), Ok(request));
    }
    for response in responses() {
        assert_eq!(Response::decode(&response.encode()), Ok(response));
    }
}

#[test]
fn every_truncation_of_every_message_is_rejected() {
    for payload in all_payloads() {
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "request prefix of {cut}/{} bytes decoded",
                payload.len()
            );
            assert!(
                Response::decode(&payload[..cut]).is_err(),
                "response prefix of {cut}/{} bytes decoded",
                payload.len()
            );
        }
    }
}

/// A flipped payload either fails to decode or decodes to a message
/// that re-encodes to exactly the flipped bytes — the payload codecs
/// are canonical, so nothing ambiguous ever gets through. A flip in
/// the leading version byte is always a version mismatch.
#[test]
fn every_single_bit_flip_decodes_canonically_or_not_at_all() {
    for payload in all_payloads() {
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if bit < 8 {
                let version = Err(WireError::Version(flipped[0]));
                assert_eq!(Request::decode(&flipped).map(|_| ()), version.clone());
                assert_eq!(Response::decode(&flipped).map(|_| ()), version);
                continue;
            }
            if let Ok(request) = Request::decode(&flipped) {
                assert_eq!(
                    request.encode(),
                    flipped,
                    "request decode is not canonical at bit {bit}"
                );
            }
            if let Ok(response) = Response::decode(&flipped) {
                assert_eq!(
                    response.encode(),
                    flipped,
                    "response decode is not canonical at bit {bit}"
                );
            }
        }
    }
}

/// Through the chunk codec no flipped bit reaches the payload parser
/// at all: the per-chunk CRC rejects every one, in every frame, for
/// every message, with and without compression.
#[test]
fn through_the_codec_every_flip_is_a_crc_reject() {
    for compress in [false, true] {
        let codec = Codec::new(CodecConfig {
            compress,
            chunk_bytes: MIN_CHUNK_BYTES,
        });
        for payload in all_payloads() {
            let frames = codec.encode_frames(&payload).unwrap();
            for at in 0..frames.len() {
                for bit in 0..frames[at].len() * 8 {
                    let mut corrupt = frames.clone();
                    corrupt[at][bit / 8] ^= 1 << (bit % 8);
                    assert!(
                        matches!(codec.decode_frames(corrupt), Err(CodecError::Crc { .. })),
                        "compress={compress} frame {at} bit {bit} escaped the CRC"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic either payload decoder.
    #[test]
    fn random_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Arbitrary frame lists never panic the chunk codec.
    #[test]
    fn random_frames_never_panic_the_codec(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            0..6,
        ),
        compress in any::<bool>(),
    ) {
        let codec = Codec::new(CodecConfig { compress, chunk_bytes: MIN_CHUNK_BYTES });
        prop_assert!(codec.decode_frames(frames).is_err());
    }

    /// A random payload round-trips through the chain bit-identically
    /// at any negotiable chunk size.
    #[test]
    fn random_messages_round_trip(
        message in proptest::collection::vec(any::<u8>(), 0..4096),
        chunk in MIN_CHUNK_BYTES..=4096u32,
        compress in any::<bool>(),
    ) {
        let codec = Codec::new(CodecConfig { compress, chunk_bytes: chunk });
        let frames = codec.encode_frames(&message).unwrap();
        prop_assert_eq!(codec.decode_frames(frames).unwrap(), message);
    }

    /// Removing one peer from a ring remaps only the keys that peer
    /// held and never reorders the survivors: for every key, the
    /// reduced ring's rendezvous order is the full ring's order with
    /// the removed peer deleted. Replication correctness rests on
    /// this — a key's replica set after a shard death is its old set
    /// minus the dead shard plus the next runner-up, so a warm replica
    /// is always the failover target.
    #[test]
    fn ring_removal_preserves_survivor_order(
        n in 2usize..8,
        removed_seed in any::<usize>(),
        keys in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let removed = removed_seed % n;
        let peers: Vec<String> = (0..n).map(|i| format!("10.1.0.{i}:7113")).collect();
        let full = ShardRing::new(peers.clone()).unwrap();
        let survivors: Vec<String> = peers
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != removed)
            .map(|(_, a)| a.clone())
            .collect();
        let reduced = ShardRing::new(survivors).unwrap();
        for key in keys {
            let full_order: Vec<&String> = full
                .ranked(key)
                .into_iter()
                .filter(|&i| i != removed)
                .map(|i| &full.shards()[i])
                .collect();
            let reduced_order: Vec<&String> = reduced
                .ranked(key)
                .into_iter()
                .map(|i| &reduced.shards()[i])
                .collect();
            prop_assert_eq!(full_order, reduced_order, "survivor order changed");
            // the replica-set algebra follows: the reduced set is a
            // prefix-consistent repair of the full set
            let full_replicas: Vec<String> = full
                .replicas(key, 2)
                .into_iter()
                .filter(|a| *a != full.shards()[removed])
                .collect();
            let reduced_replicas = reduced.replicas(key, 2);
            prop_assert_eq!(&reduced_replicas[..full_replicas.len()], &full_replicas[..]);
        }
    }
}
