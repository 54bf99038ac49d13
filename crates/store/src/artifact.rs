//! The versioned binary artifact format: serialization of one cold
//! run's products and the adversarial-input decoder.
//!
//! # File grammar (format version 1)
//!
//! ```text
//! file     := magic version key digest payload_len payload checksum
//! magic    := "ss-store"                 ; 8 bytes
//! version  := u32 BE                     ; FORMAT_VERSION (currently 1)
//! key      := u64 BE                     ; the content-addressed cache key
//! digest   := u64 BE                     ; report_digest of the reproduced report
//! payload_len := u64 BE                  ; bytes in payload
//! checksum := u64 BE                     ; FNV-1a over every preceding byte
//! ```
//!
//! The payload serialises, in order: the engine configuration (minus
//! the `threads` knob — a runtime policy, not content), the scan
//! geometry, the LFSR (kind + characteristic polynomial), the phase
//! shifter rows, the filtered test set, the dropped-cube count, and
//! the encoding (seeds + placements). Scalars are big-endian
//! fixed-width integers; a bit vector is a `u64` bit length followed
//! by its `ceil(len/64)` little-endian-indexed words.
//!
//! Decoding never panics: the checksum is verified before any field is
//! interpreted, every length is bounds-checked against the remaining
//! buffer and a domain cap, and every semantic invariant the in-memory
//! types assert (plane lengths, care/value subset, shifter/LFSR/scan
//! agreement) is re-validated and surfaced as a typed [`StoreError`].

use std::fmt;
use std::io;

use ss_core::{EncodedSeed, EncodingResult, EngineConfig, HardwareCtx, Placement};
use ss_gf2::{BitMatrix, BitVec, Gf2Poly};
use ss_lfsr::{Lfsr, LfsrKind, PhaseShifter};
use ss_testdata::{ScanConfig, TestCube, TestSet};

use crate::Fnv64;

/// Leading magic of every artifact file.
pub const MAGIC: &[u8; 8] = b"ss-store";

/// Artifact format version written by this build.
pub const FORMAT_VERSION: u32 = 1;

/// Hard ceiling on a whole artifact file, guarding the loader against
/// unbounded allocation from a corrupt or hostile length field.
pub const MAX_ARTIFACT_BYTES: u64 = 1 << 30;

/// Domain caps on decoded dimensions — far above any real workload,
/// low enough that a crafted file cannot provoke absurd allocations.
/// Bounds across fields (the LFSR size, window × scan cells) are the
/// core's own, checked when [`HardwareCtx::from_parts`] reassembles
/// the parts.
const MAX_BITS: u64 = 1 << 24;
const MAX_WINDOW: u64 = 1 << 16;
const MAX_DIM: u64 = 1 << 20;

const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 8;
const CHECKSUM_BYTES: usize = 8;

/// Error reading, decoding or validating a stored artifact.
///
/// Every variant is a graceful rejection — the loader never panics and
/// never returns artifacts that fail an integrity check.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem failure (open, read, write, rename, scan).
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not an artifact file.
    BadMagic,
    /// The file was written by a different format version.
    Version(u32),
    /// The file ended before the encoded artifact did.
    Truncated,
    /// The envelope checksum does not match the file contents — a bit
    /// flip, torn write or manual edit.
    Checksum {
        /// Checksum recomputed from the file bytes.
        computed: u64,
        /// Checksum stored in the file.
        stored: u64,
    },
    /// The file's embedded key disagrees with the key it was loaded
    /// under — a renamed or cross-linked artifact.
    KeyMismatch {
        /// Key the caller asked for.
        expected: u64,
        /// Key recorded inside the file.
        found: u64,
    },
    /// A field held a value outside its domain (dimension cap, enum
    /// discriminant, inconsistent lengths, trailing bytes, ...).
    BadField(&'static str),
    /// The decoded parts fail a semantic invariant when reassembled
    /// (scan geometry, LFSR polynomial, shifter/LFSR agreement, cube
    /// pairing).
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "artifact i/o: {e}"),
            StoreError::BadMagic => write!(f, "not an artifact file (bad magic)"),
            StoreError::Version(v) => write!(
                f,
                "artifact format version {v}, this build reads {FORMAT_VERSION}"
            ),
            StoreError::Truncated => write!(f, "artifact file is truncated"),
            StoreError::Checksum { computed, stored } => write!(
                f,
                "artifact checksum mismatch (computed {computed:016x}, stored {stored:016x})"
            ),
            StoreError::KeyMismatch { expected, found } => write!(
                f,
                "artifact key mismatch (loaded under {expected:016x}, file says {found:016x})"
            ),
            StoreError::BadField(name) => write!(f, "artifact field {name} holds an invalid value"),
            StoreError::Invalid(what) => write!(f, "artifact fails validation: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Everything one cold run produced, as stored under one
/// content-addressed key: exactly the artifacts a warm submission
/// needs to re-enter the staged flow at the embed stage, plus the
/// digest of the report they reproduce.
#[derive(Debug)]
pub struct Artifact {
    /// The synthesised hardware (LFSR, phase shifter, expression
    /// table) for the pinned LFSR size.
    pub ctx: HardwareCtx,
    /// The encodable subset actually encoded (after dropping
    /// intrinsically unencodable cubes).
    pub set: TestSet,
    /// How many cubes were dropped as intrinsically unencodable.
    pub dropped: u64,
    /// The window-based seed encoding.
    pub encoding: EncodingResult,
    /// [`report_digest`](crate::report_digest) of the report these
    /// artifacts reproduce — re-verified by the serving layer after
    /// the cheap stages re-run.
    pub report_digest: u64,
}

// ------------------------------------------------------------- writer

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_bits(buf: &mut Vec<u8>, bits: &BitVec) {
    put_u64(buf, bits.len() as u64);
    for &word in bits.as_words() {
        put_u64(buf, word);
    }
}

/// Writes a bit vector whose length the reader already knows — words
/// only, no redundant length prefix.
fn put_planes(buf: &mut Vec<u8>, bits: &BitVec) {
    for &word in bits.as_words() {
        put_u64(buf, word);
    }
}

// ------------------------------------------------------------- reader

/// Forward-only bounds-checked cursor over the payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.at.checked_add(n).ok_or(StoreError::Truncated)?;
        if end > self.bytes.len() {
            return Err(StoreError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u64` that must fit a `usize` and stay under `cap`.
    fn dim(&mut self, cap: u64, name: &'static str) -> Result<usize, StoreError> {
        let v = self.u64()?;
        if v > cap {
            return Err(StoreError::BadField(name));
        }
        usize::try_from(v).map_err(|_| StoreError::BadField(name))
    }

    fn words(&mut self, len_bits: usize) -> Result<Vec<u64>, StoreError> {
        let nwords = len_bits.div_ceil(64);
        let raw = self.take(nwords * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn bits(&mut self, cap: u64, name: &'static str) -> Result<BitVec, StoreError> {
        let len = self.dim(cap, name)?;
        let words = self.words(len)?;
        Ok(BitVec::from_words(len, &words))
    }

    /// A bit vector of a length the caller already knows.
    fn planes(&mut self, len_bits: usize) -> Result<BitVec, StoreError> {
        let words = self.words(len_bits)?;
        Ok(BitVec::from_words(len_bits, &words))
    }

    fn finish(&self) -> Result<(), StoreError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(StoreError::BadField("trailing payload bytes"))
        }
    }
}

fn kind_to_u8(kind: LfsrKind) -> u8 {
    match kind {
        LfsrKind::Fibonacci => 0,
        LfsrKind::Galois => 1,
    }
}

fn kind_from_u8(v: u8) -> Result<LfsrKind, StoreError> {
    match v {
        0 => Ok(LfsrKind::Fibonacci),
        1 => Ok(LfsrKind::Galois),
        _ => Err(StoreError::BadField("lfsr_kind")),
    }
}

/// Wraps `payload` in a valid envelope — magic, version, key, digest,
/// length, then the payload and its checksum — whatever the payload
/// holds.
pub(crate) fn seal(key: u64, report_digest: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len() + CHECKSUM_BYTES);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_be_bytes());
    buf.extend_from_slice(&key.to_be_bytes());
    buf.extend_from_slice(&report_digest.to_be_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    buf.extend_from_slice(payload);
    let mut h = Fnv64::new();
    h.write(&buf);
    buf.extend_from_slice(&h.finish().to_be_bytes());
    buf
}

fn encode_payload(artifact: &Artifact) -> Vec<u8> {
    let mut buf = Vec::new();
    let ctx = &artifact.ctx;
    let config = ctx.config();

    // engine configuration (threads deliberately not stored)
    put_u64(&mut buf, config.window as u64);
    put_u64(&mut buf, config.segment as u64);
    put_u64(&mut buf, config.speedup);
    match config.lfsr_size {
        Some(n) => {
            put_u8(&mut buf, 1);
            put_u64(&mut buf, n as u64);
        }
        None => put_u8(&mut buf, 0),
    }
    put_u8(&mut buf, kind_to_u8(config.lfsr_kind));
    put_u64(&mut buf, config.ps_taps as u64);
    put_u64(&mut buf, config.hw_seed);
    put_u64(&mut buf, config.fill_seed);

    // scan geometry
    put_u64(&mut buf, ctx.scan().chains() as u64);
    put_u64(&mut buf, ctx.scan().depth() as u64);

    // LFSR: kind + characteristic polynomial (exponents of its terms)
    put_u8(&mut buf, kind_to_u8(ctx.lfsr().kind()));
    let exponents = ctx.lfsr().poly().exponents();
    put_u64(&mut buf, exponents.len() as u64);
    for e in exponents {
        put_u64(&mut buf, e as u64);
    }

    // phase shifter rows (chains x lfsr_size)
    let rows = ctx.shifter().rows();
    put_u64(&mut buf, rows.row_count() as u64);
    put_u64(&mut buf, rows.col_count() as u64);
    for row in rows.iter_rows() {
        put_planes(&mut buf, row);
    }

    // filtered test set (geometry = scan geometry above)
    put_u64(&mut buf, artifact.set.len() as u64);
    for cube in artifact.set.iter() {
        put_planes(&mut buf, cube.care());
        put_planes(&mut buf, cube.values());
    }
    put_u64(&mut buf, artifact.dropped);

    // encoding
    put_u64(&mut buf, artifact.encoding.window as u64);
    put_u64(&mut buf, artifact.encoding.lfsr_size as u64);
    put_u64(&mut buf, artifact.encoding.encoded_cubes as u64);
    put_u64(&mut buf, artifact.encoding.seeds.len() as u64);
    for seed in &artifact.encoding.seeds {
        put_bits(&mut buf, &seed.seed);
        put_u64(&mut buf, seed.placements.len() as u64);
        for placement in &seed.placements {
            put_u64(&mut buf, placement.cube as u64);
            put_u64(&mut buf, placement.position as u64);
        }
    }
    buf
}

fn decode_payload(payload: &[u8], threads: Option<usize>) -> Result<(Artifact, u64), StoreError> {
    let mut r = Reader::new(payload);

    // engine configuration
    let window = r.dim(MAX_WINDOW, "window")?;
    let segment = r.dim(MAX_WINDOW, "segment")?;
    let speedup = r.u64()?;
    let lfsr_size = match r.u8()? {
        0 => None,
        1 => Some(r.dim(MAX_DIM, "lfsr_size")?),
        _ => return Err(StoreError::BadField("lfsr_size_present")),
    };
    let lfsr_kind = kind_from_u8(r.u8()?)?;
    let ps_taps = r.dim(MAX_DIM, "ps_taps")?;
    let hw_seed = r.u64()?;
    let fill_seed = r.u64()?;
    // EngineConfig is #[non_exhaustive]; build from Default and fill
    // every serialized knob (a knob added later keeps its default and
    // bumps FORMAT_VERSION when it starts affecting results)
    let mut config = EngineConfig::default();
    config.window = window;
    config.segment = segment;
    config.speedup = speedup;
    config.lfsr_size = lfsr_size;
    config.lfsr_kind = lfsr_kind;
    config.ps_taps = ps_taps;
    config.hw_seed = hw_seed;
    config.fill_seed = fill_seed;
    config.threads = threads;

    // scan geometry
    let chains = r.dim(MAX_DIM, "chains")?;
    let depth = r.dim(MAX_DIM, "depth")?;
    let scan = ScanConfig::new(chains, depth).map_err(|e| StoreError::Invalid(e.to_string()))?;
    let cells = scan.cells();
    if cells as u64 > MAX_BITS {
        return Err(StoreError::BadField("scan cells"));
    }

    // LFSR
    let built_kind = kind_from_u8(r.u8()?)?;
    let term_count = r.dim(MAX_DIM, "poly terms")?;
    let mut exponents = Vec::with_capacity(term_count.min(1024));
    for _ in 0..term_count {
        exponents.push(r.dim(MAX_DIM, "poly exponent")?);
    }
    let poly = Gf2Poly::from_exponents(&exponents);
    let lfsr = Lfsr::try_new(poly, built_kind).map_err(|e| StoreError::Invalid(e.to_string()))?;

    // phase shifter
    let ps_rows = r.dim(MAX_DIM, "shifter rows")?;
    let ps_cols = r.dim(MAX_DIM, "shifter cols")?;
    let mut rows = Vec::new();
    for _ in 0..ps_rows {
        rows.push(r.planes(ps_cols)?);
    }
    let shifter = PhaseShifter::from_rows(BitMatrix::from_rows(rows));

    // test set
    let cube_count = r.dim(MAX_DIM, "cube count")?;
    let mut set = TestSet::new(scan);
    for _ in 0..cube_count {
        let care = r.planes(cells)?;
        let values = r.planes(cells)?;
        if !values.is_subset_of(&care) {
            return Err(StoreError::BadField("cube planes"));
        }
        set.push(TestCube::from_planes(care, values))
            .map_err(|e| StoreError::Invalid(e.to_string()))?;
    }
    let dropped = r.u64()?;

    // encoding
    let enc_window = r.dim(MAX_WINDOW, "encoding window")?;
    let enc_lfsr_size = r.dim(MAX_DIM, "encoding lfsr_size")?;
    let encoded_cubes = r.dim(MAX_DIM, "encoded cubes")?;
    let seed_count = r.dim(MAX_DIM, "seed count")?;
    let mut seeds = Vec::new();
    for _ in 0..seed_count {
        let seed = r.bits(MAX_BITS, "seed bits")?;
        let placement_count = r.dim(MAX_DIM, "placement count")?;
        let mut placements = Vec::new();
        for _ in 0..placement_count {
            placements.push(Placement {
                cube: r.dim(MAX_DIM, "placement cube")?,
                position: r.dim(MAX_DIM, "placement position")?,
            });
        }
        seeds.push(EncodedSeed { seed, placements });
    }
    let encoding = EncodingResult {
        seeds,
        window: enc_window,
        lfsr_size: enc_lfsr_size,
        encoded_cubes,
    };
    r.finish()?;

    // reassemble: the expression table is rebuilt deterministically
    // from the parts (ss_core validates their agreement and bounds)
    let ctx = HardwareCtx::from_parts(config, scan, lfsr, shifter)
        .map_err(|e| StoreError::Invalid(e.to_string()))?;
    if encoding.lfsr_size != ctx.lfsr_size() {
        return Err(StoreError::Invalid(format!(
            "encoding is for a {}-bit LFSR but the context has {} bits",
            encoding.lfsr_size,
            ctx.lfsr_size()
        )));
    }
    if encoding.window != window {
        return Err(StoreError::Invalid(format!(
            "encoding used window {} but the configuration says {window}",
            encoding.window
        )));
    }
    if encoding.encoded_cubes != set.len() {
        return Err(StoreError::Invalid(format!(
            "encoding covers {} cubes but the stored set has {}",
            encoding.encoded_cubes,
            set.len()
        )));
    }
    Ok((
        Artifact {
            ctx,
            set,
            dropped,
            encoding,
            report_digest: 0, // envelope field, patched by the caller
        },
        0,
    ))
}

impl Artifact {
    /// Serialises the artifact into a self-verifying envelope keyed by
    /// `key` (the content-addressed cache key the store files it
    /// under).
    pub fn to_bytes(&self, key: u64) -> Vec<u8> {
        seal(key, self.report_digest, &encode_payload(self))
    }

    /// Decodes and fully validates an artifact file loaded under
    /// `key`. `threads` becomes the rehydrated context's worker-thread
    /// budget (a runtime policy — deliberately not part of the stored
    /// content; results are bit-identical at every thread count).
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] for every way the bytes can be wrong:
    /// bad magic, foreign format version, truncation, checksum
    /// mismatch, key mismatch, out-of-domain fields, or parts that
    /// fail semantic validation when reassembled. Never panics.
    pub fn from_bytes(bytes: &[u8], key: u64, threads: Option<usize>) -> Result<Self, StoreError> {
        if bytes.len() < HEADER_BYTES + CHECKSUM_BYTES {
            return Err(StoreError::Truncated);
        }
        if &bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_be_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StoreError::Version(version));
        }
        let found_key = u64::from_be_bytes(bytes[12..20].try_into().unwrap());
        if found_key != key {
            return Err(StoreError::KeyMismatch {
                expected: key,
                found: found_key,
            });
        }
        let report_digest = u64::from_be_bytes(bytes[20..28].try_into().unwrap());
        let payload_len = u64::from_be_bytes(bytes[28..36].try_into().unwrap());
        if payload_len > MAX_ARTIFACT_BYTES {
            return Err(StoreError::BadField("payload length"));
        }
        let payload_len = payload_len as usize;
        let declared = HEADER_BYTES + payload_len + CHECKSUM_BYTES;
        if bytes.len() < declared {
            return Err(StoreError::Truncated);
        }
        if bytes.len() > declared {
            return Err(StoreError::BadField("trailing file bytes"));
        }
        // integrity first: nothing past this line sees flipped bits
        let stored = u64::from_be_bytes(bytes[declared - CHECKSUM_BYTES..].try_into().unwrap());
        let mut h = Fnv64::new();
        h.write(&bytes[..declared - CHECKSUM_BYTES]);
        let computed = h.finish();
        if computed != stored {
            return Err(StoreError::Checksum { computed, stored });
        }
        let payload = &bytes[HEADER_BYTES..HEADER_BYTES + payload_len];
        let (mut artifact, _) = decode_payload(payload, threads)?;
        artifact.report_digest = report_digest;
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The payload of an empty cube set and encoding at window
    /// `window`, on a one-chain scan of depth `depth` behind a
    /// Fibonacci LFSR of polynomial `exponents` (degree first), whose
    /// one shifter output taps LFSR cell 0.
    fn payload(window: u64, depth: u64, exponents: &[u64]) -> Vec<u8> {
        let n = exponents[0];
        let mut buf = Vec::new();
        // window, segment, speedup; no pinned LFSR size; kind, ps_taps,
        // hw_seed, fill_seed
        put_all(&mut buf, &[window, 1, 2]);
        put_u8(&mut buf, 0);
        put_u8(&mut buf, kind_to_u8(LfsrKind::Fibonacci));
        put_all(&mut buf, &[1, 0, 0]);
        // scan: chains, depth
        put_all(&mut buf, &[1, depth]);
        put_u8(&mut buf, kind_to_u8(LfsrKind::Fibonacci));
        put_u64(&mut buf, exponents.len() as u64);
        put_all(&mut buf, exponents);
        // shifter: one row of `n` columns
        put_all(&mut buf, &[1, n]);
        put_planes(&mut buf, &BitVec::unit(n as usize, 0));
        // no cubes, none dropped; encoding window, LFSR size, cubes,
        // seeds
        put_all(&mut buf, &[0, 0, window, n, 0, 0]);
        buf
    }

    fn put_all(buf: &mut Vec<u8>, values: &[u64]) {
        values.iter().for_each(|&v| put_u64(buf, v));
    }

    fn decode(payload: &[u8]) -> Result<Artifact, StoreError> {
        Artifact::from_bytes(&seal(7, 0, payload), 7, Some(1))
    }

    /// A crafted artifact cannot make the loader build a table past the
    /// core's bounds: each field is within its own cap, and the parts
    /// are refused just above the LFSR size or window × cells bound.
    #[test]
    fn parts_past_the_table_bounds_are_refused() {
        let artifact = decode(&payload(8, 2, &[16, 15, 13, 4, 0])).unwrap();
        assert_eq!(artifact.ctx.lfsr_size(), 16);

        let err = decode(&payload(8, 2, &[169, 1, 0]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("LFSR size 169"), "{err}");

        let window = MAX_WINDOW;
        let depth = ss_core::MAX_WINDOW_CELLS as u64 / window + 1;
        let err = decode(&payload(window, depth, &[16, 15, 13, 4, 0]))
            .unwrap_err()
            .to_string();
        let bound = ss_core::MAX_WINDOW_CELLS.to_string();
        assert!(err.contains(&bound), "{err}");
    }
}
