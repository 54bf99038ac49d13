//! Property-based tests for the artifact format: the integrity
//! contract under adversarial bytes.
//!
//! The envelope promises two things — a round trip is bit-identical,
//! and *no* sequence of bytes can make the loader panic or hand back
//! an artifact that fails an integrity check. The properties here
//! attack both: exhaustive truncation, every single-bit flip, spliced
//! random payloads under a *valid* checksum (so the payload reader
//! itself faces arbitrary input, not just the checksum gate), and
//! fully random files.

#![cfg(test)]

use std::sync::OnceLock;

use proptest::prelude::*;

use ss_core::{Encoded, Engine};
use ss_testdata::{generate_test_set, CubeProfile};

use crate::artifact::seal;
use crate::{report_digest, Artifact, ArtifactStore, StoreError, FORMAT_VERSION};

const KEY: u64 = 0xab54_a98c_eb1f_0ad2;

/// One real artifact, built once: synthesis + encode are the expensive
/// stages, and every property below only needs the same canonical
/// bytes.
fn artifact() -> &'static Artifact {
    static ARTIFACT: OnceLock<Artifact> = OnceLock::new();
    ARTIFACT.get_or_init(|| artifact_for(1))
}

fn artifact_for(seed: u64) -> Artifact {
    let set = generate_test_set(&CubeProfile::mini(), seed);
    let engine = Engine::builder()
        .window(16)
        .segment(4)
        .speedup(4)
        .build()
        .unwrap();
    let ctx = engine.synthesize(&set).unwrap();
    let (encodable, dropped) = ctx.encodable_subset(&set);
    let encoding = Encoded::from_ctx_ref(&encodable, &ctx)
        .unwrap()
        .encoding()
        .clone();
    let mut config = *engine.config();
    config.lfsr_size = Some(ctx.lfsr_size());
    let report = Engine::from_config(config)
        .unwrap()
        .run(&encodable)
        .unwrap();
    Artifact {
        report_digest: report_digest(&report),
        ctx,
        set: encodable,
        dropped: dropped.len() as u64,
        encoding,
    }
}

fn canonical_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| artifact().to_bytes(KEY))
}

#[test]
fn round_trip_is_bit_identical() {
    for seed in 1..=3 {
        let original = artifact_for(seed);
        let key = KEY ^ seed;
        let bytes = original.to_bytes(key);
        let loaded = Artifact::from_bytes(&bytes, key, None).unwrap();
        assert_eq!(loaded.report_digest, original.report_digest);
        assert_eq!(loaded.dropped, original.dropped);
        assert_eq!(loaded.encoding, original.encoding);
        assert_eq!(
            loaded.to_bytes(key),
            bytes,
            "decode(encode(x)) must re-encode to the same bytes (seed {seed})"
        );
    }
}

#[test]
fn every_truncation_is_rejected_without_panicking() {
    let bytes = canonical_bytes();
    for len in 0..bytes.len() {
        let err = Artifact::from_bytes(&bytes[..len], KEY, None)
            .expect_err("every proper prefix must be rejected");
        // short prefixes fail structurally; anything past the header
        // fails the declared-length check before the checksum is even
        // computed
        match err {
            StoreError::Truncated | StoreError::BadMagic | StoreError::Version(_) => {}
            other => panic!("truncation to {len} bytes surfaced as {other:?}"),
        }
    }
}

/// The adversarial table: each structurally-wrong envelope maps to its
/// typed rejection.
#[test]
fn malformed_envelopes_map_to_typed_errors() {
    let bytes = canonical_bytes();

    let mut wrong_magic = bytes.to_vec();
    wrong_magic[0] ^= 0xff;
    assert!(matches!(
        Artifact::from_bytes(&wrong_magic, KEY, None),
        Err(StoreError::BadMagic)
    ));

    let mut future_version = bytes.to_vec();
    future_version[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_be_bytes());
    assert!(matches!(
        Artifact::from_bytes(&future_version, KEY, None),
        Err(StoreError::Version(v)) if v == FORMAT_VERSION + 1
    ));

    assert!(matches!(
        Artifact::from_bytes(bytes, KEY ^ 1, None),
        Err(StoreError::KeyMismatch { expected, found })
            if expected == KEY ^ 1 && found == KEY
    ));

    let mut trailing = bytes.to_vec();
    trailing.push(0);
    assert!(matches!(
        Artifact::from_bytes(&trailing, KEY, None),
        Err(StoreError::BadField(_))
    ));

    let mut huge_len = bytes.to_vec();
    huge_len[28..36].copy_from_slice(&u64::MAX.to_be_bytes());
    assert!(matches!(
        Artifact::from_bytes(&huge_len, KEY, None),
        Err(StoreError::BadField(_))
    ));

    let mut flipped_checksum = bytes.to_vec();
    let last = flipped_checksum.len() - 1;
    flipped_checksum[last] ^= 1;
    assert!(matches!(
        Artifact::from_bytes(&flipped_checksum, KEY, None),
        Err(StoreError::Checksum { .. })
    ));
}

#[test]
fn store_round_trips_and_rejects_corrupt_files() {
    let dir =
        std::env::temp_dir().join(format!("ss-store-proptest-{}-{KEY:x}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir).unwrap();

    assert!(
        store.get(KEY, None).unwrap().is_none(),
        "empty store misses"
    );
    let written = store.put(KEY, artifact()).unwrap();
    assert_eq!(written, canonical_bytes().len() as u64);
    assert_eq!(store.keys().unwrap(), vec![(KEY, written)]);
    let occupancy = store.occupancy().unwrap();
    assert_eq!((occupancy.artifacts, occupancy.bytes), (1, written));
    let loaded = store.get(KEY, None).unwrap().expect("present");
    assert_eq!(loaded.report_digest, artifact().report_digest);

    // flip one byte on disk: the load is an error, not a wrong answer
    let path = store.path_for(KEY);
    let mut on_disk = std::fs::read(&path).unwrap();
    let mid = on_disk.len() / 2;
    on_disk[mid] ^= 0x10;
    std::fs::write(&path, &on_disk).unwrap();
    assert!(store.get(KEY, None).is_err(), "corruption must surface");

    store.remove(KEY).unwrap();
    assert!(store.get(KEY, None).unwrap().is_none());
    store.remove(KEY).unwrap(); // double remove is fine
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// FNV-1a folds each byte through a bijection of the running hash,
    /// so any single-bit flip anywhere in the file — header, payload,
    /// digest or the checksum itself — must be rejected.
    #[test]
    fn any_single_bit_flip_is_rejected(bit in 0..canonical_bytes().len() * 8) {
        let mut bytes = canonical_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Artifact::from_bytes(&bytes, KEY, None).is_err());
    }

    /// Arbitrary bytes are never an artifact and never a panic.
    #[test]
    fn random_files_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert!(Artifact::from_bytes(&bytes, KEY, None).is_err());
    }

    /// Arbitrary *payloads* under a valid checksum drive the payload
    /// reader itself on adversarial input: every length field, enum
    /// discriminant and cross-check must reject gracefully.
    #[test]
    fn random_payloads_under_valid_checksums_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        digest in any::<u64>(),
    ) {
        let bytes = seal(KEY, digest, &payload);
        prop_assert!(Artifact::from_bytes(&bytes, KEY, None).is_err());
    }

    /// Splicing a chunk of a *valid* payload with noise (then fixing
    /// the checksum) probes the deep validators — plane subsets,
    /// shifter/LFSR agreement, encoding cross-checks — not just the
    /// leading config fields.
    #[test]
    fn spliced_payloads_never_panic(
        at in 0usize..4096,
        noise in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let valid = canonical_bytes();
        let header = 36;
        let payload_len = valid.len() - header - 8;
        let mut payload = valid[header..header + payload_len].to_vec();
        let at = at % payload.len();
        let end = (at + noise.len()).min(payload.len());
        payload[at..end].copy_from_slice(&noise[..end - at]);
        let bytes = seal(KEY, artifact().report_digest, &payload);
        // the splice may happen to reproduce the original payload
        // (noise == what was there); anything else must reject — and
        // nothing may panic
        let _ = Artifact::from_bytes(&bytes, KEY, None);
    }
}
