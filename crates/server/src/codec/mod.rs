//! Streaming chunk codec for the wire protocol.
//!
//! A plain frame is all-or-nothing and capped at [`MAX_FRAME_BYTES`],
//! so on its own it could neither carry a workload past 64 MiB nor
//! notice a flipped bit before the payload parser trips. Every message
//! after the opening `Hello`/`HelloAck` exchange therefore travels as
//! a sequence of chunks:
//!
//! * the message body is optionally LZSS-compressed ([`compress`]):
//!   cube payloads are sparse `01X` text and shrink severalfold;
//! * the body is split into bounded chunks, so payloads far past the
//!   per-frame cap stream through; the reassembled message is bounded
//!   by [`MAX_MESSAGE_BYTES`];
//! * every chunk carries a CRC-32 trailer ([`crc32`]).
//!
//! The receiver runs one check on each chunk as it arrives: CRC first,
//! then the header (flags, position, total) and the size caps. Any
//! single-bit corruption of a chunk is detected at the first possible
//! moment and surfaces as a typed [`CodecError`], never a panic and
//! never a silently wrong payload.
//!
//! # Chunk frame grammar
//!
//! Every frame after the opening exchange is one chunk:
//!
//! ```text
//! chunk   := seq u32 BE        ; 0-based position in the message
//!            total u32 BE      ; chunks in the message, >= 1
//!            flags u8          ; bit 0: message body is compressed
//!            body byte*        ; <= negotiated chunk_bytes
//!            crc32 u32 BE      ; CRC-32 over seq..body inclusive
//! ```
//!
//! The parameters — compression on or off, and the chunk size — are
//! exactly what the `Hello`/`HelloAck` exchange agrees (that exchange
//! travels as plain frames, since no codec exists yet), and every
//! chunk restates the compression choice in its flags byte.

use std::fmt;
use std::io::{Read, Write};

use crate::protocol::{push_frame, read_frame, MAX_FRAME_BYTES};

mod compress;
mod crc32;

pub use compress::{compress, decompress};
pub use crc32::crc32;

/// Ceiling on a reassembled message, the multi-chunk analogue of
/// [`MAX_FRAME_BYTES`]: guards the receiver
/// against unbounded allocation from a hostile or corrupt chunk
/// stream.
pub const MAX_MESSAGE_BYTES: u64 = 1 << 30;

/// Default chunk body size a client offers at `Hello` time.
pub const DEFAULT_CHUNK_BYTES: u32 = 256 * 1024;

/// Smallest negotiable chunk body size (tiny chunks are only useful to
/// tests that want many frames from small payloads).
pub const MIN_CHUNK_BYTES: u32 = 64;

/// Largest negotiable chunk body size; comfortably under the frame
/// cap even with the chunk header and trailer attached.
pub const MAX_CHUNK_BYTES: u32 = 4 * 1024 * 1024;

/// Bytes of chunk header preceding the body (`seq` + `total` +
/// `flags`).
pub const CHUNK_HEADER_BYTES: usize = 9;

/// Bytes of chunk trailer following the body (the CRC-32).
pub const CHUNK_TRAILER_BYTES: usize = 4;

/// Chunk flag bit 0: the (reassembled) message body is LZSS
/// compressed.
pub const FLAG_COMPRESSED: u8 = 0b0000_0001;

/// Typed failure anywhere in the codec.
///
/// Every variant is a *graceful rejection*: adversarial bytes — bit
/// flips, truncations, lying length fields, reordered or missing
/// chunks — map here, never to a panic and never to a corrupted
/// payload handed to the caller.
#[derive(Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// The underlying stream failed (includes `UnexpectedEof` when the
    /// peer vanished mid-chunk).
    Io(std::io::Error),
    /// A chunk's CRC-32 trailer disagrees with its contents.
    Crc {
        /// `seq` field of the offending chunk (as transmitted).
        seq: u32,
        /// Checksum recomputed over the received bytes.
        expected: u32,
        /// Checksum carried in the trailer.
        found: u32,
    },
    /// A chunk arrived out of sequence.
    OutOfOrder {
        /// The `seq` the receiver was waiting for.
        expected: u32,
        /// The `seq` that arrived.
        found: u32,
    },
    /// A chunk's `total` field disagrees with the message's first
    /// chunk (or with the number of chunks actually presented).
    TotalMismatch {
        /// `total` pinned by the first chunk.
        expected: u32,
        /// Conflicting value.
        found: u32,
    },
    /// A (declared or reassembled) message exceeds its cap.
    Oversize {
        /// Size the stream declared or accumulated.
        bytes: u64,
        /// The cap it broke.
        cap: u64,
    },
    /// A chunk is structurally malformed (too short for its header,
    /// unknown flag bits, zero `total`, flags disagreeing with the
    /// negotiated codec, ...).
    BadChunk(&'static str),
    /// The compressed body is malformed.
    Compression(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(err) => write!(f, "stream error: {err}"),
            CodecError::Crc {
                seq,
                expected,
                found,
            } => write!(
                f,
                "chunk {seq} failed its CRC-32 check (computed {expected:#010x}, carried {found:#010x})"
            ),
            CodecError::OutOfOrder { expected, found } => {
                write!(f, "chunk arrived out of order (expected seq {expected}, got {found})")
            }
            CodecError::TotalMismatch { expected, found } => {
                write!(f, "chunk total disagrees (first chunk said {expected}, got {found})")
            }
            CodecError::Oversize { bytes, cap } => {
                write!(f, "message of {bytes} bytes exceeds the {cap}-byte cap")
            }
            CodecError::BadChunk(what) => write!(f, "malformed chunk: {what}"),
            CodecError::Compression(what) => write!(f, "malformed compressed body: {what}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(err: std::io::Error) -> Self {
        CodecError::Io(err)
    }
}

impl CodecError {
    /// Whether this failure means payload corruption was *detected*
    /// (as opposed to a plain transport failure) — what the server's
    /// `crc_rejects` counter counts.
    pub fn is_integrity(&self) -> bool {
        matches!(self, CodecError::Crc { .. })
    }
}

// --------------------------------------------------------- negotiation

/// The codec parameters agreed during the `Hello`/`HelloAck`
/// exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecConfig {
    /// Whether message bodies are LZSS-compressed before chunking.
    pub compress: bool,
    /// Chunk body size in bytes.
    pub chunk_bytes: u32,
}

impl Default for CodecConfig {
    fn default() -> Self {
        Self::preferred()
    }
}

impl CodecConfig {
    /// The configuration a client offers by default.
    pub fn preferred() -> Self {
        CodecConfig {
            compress: true,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }

    /// Server-side negotiation: accept the peer's offer with
    /// `chunk_bytes` clamped into `[MIN_CHUNK_BYTES, MAX_CHUNK_BYTES]`.
    /// Both sides then speak the returned configuration.
    pub fn negotiate(offer: CodecConfig) -> CodecConfig {
        CodecConfig {
            compress: offer.compress,
            chunk_bytes: offer.chunk_bytes.clamp(MIN_CHUNK_BYTES, MAX_CHUNK_BYTES),
        }
    }
}

// --------------------------------------------------------------- codec

/// Per-message transfer accounting, summed into the server's codec
/// counters and shown by `state-skip stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Chunk frames moved.
    pub frames: u64,
    /// Message bytes before the codec (what the caller sees).
    pub raw_bytes: u64,
    /// Bytes after the codec (compressed + chunk overhead + CRC), as
    /// carried in frame payloads on the wire.
    pub wire_bytes: u64,
}

/// A negotiated codec bound to one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codec {
    config: CodecConfig,
}

impl Codec {
    /// Builds the codec for an agreed configuration.
    pub fn new(config: CodecConfig) -> Self {
        Codec { config }
    }

    /// The agreed configuration.
    pub fn config(&self) -> CodecConfig {
        self.config
    }

    fn flags(&self) -> u8 {
        if self.config.compress {
            FLAG_COMPRESSED
        } else {
            0
        }
    }

    /// Compresses (when negotiated) and chunks a message, producing the
    /// frame payloads to put on the wire (each within the per-frame
    /// cap).
    ///
    /// # Errors
    ///
    /// [`CodecError::Oversize`] when the message body exceeds
    /// [`MAX_MESSAGE_BYTES`].
    pub fn encode_frames(&self, message: &[u8]) -> Result<Vec<Vec<u8>>, CodecError> {
        let compressed;
        let body = if self.config.compress {
            compressed = compress(message);
            &compressed[..]
        } else {
            message
        };
        if body.len() as u64 > MAX_MESSAGE_BYTES {
            return Err(CodecError::Oversize {
                bytes: body.len() as u64,
                cap: MAX_MESSAGE_BYTES,
            });
        }
        let mut bodies: Vec<&[u8]> = body
            .chunks(self.config.chunk_bytes.max(1) as usize)
            .collect();
        if bodies.is_empty() {
            // an empty body still travels as one empty-bodied chunk
            bodies.push(&[]);
        }
        let total = bodies.len() as u32;
        let frames = bodies.into_iter().enumerate().map(|(seq, body)| {
            let mut frame =
                Vec::with_capacity(CHUNK_HEADER_BYTES + body.len() + CHUNK_TRAILER_BYTES);
            frame.extend_from_slice(&(seq as u32).to_be_bytes());
            frame.extend_from_slice(&total.to_be_bytes());
            frame.push(self.flags());
            frame.extend_from_slice(body);
            let crc = crc32(&frame);
            frame.extend_from_slice(&crc.to_be_bytes());
            frame
        });
        Ok(frames.collect())
    }

    /// Checks received frame payloads chunk by chunk and reassembles
    /// the message.
    ///
    /// # Errors
    ///
    /// A typed [`CodecError`] for any corruption: CRC mismatch,
    /// reordered or missing chunks, lying totals, malformed
    /// compression. Never panics on adversarial input.
    pub fn decode_frames(&self, frames: Vec<Vec<u8>>) -> Result<Vec<u8>, CodecError> {
        let mut message = Reassembly::new(self.flags());
        for frame in &frames {
            message.push(frame)?;
        }
        message.finish()
    }

    /// Encodes and writes one message as a chunk-frame sequence: every
    /// length-prefixed frame goes out in one write, so a multi-chunk
    /// message is not split into a segment per frame.
    ///
    /// # Errors
    ///
    /// [`CodecError::Io`] for stream failures, [`CodecError::Oversize`]
    /// for messages past [`MAX_MESSAGE_BYTES`].
    pub fn write_message<W: Write>(
        &self,
        stream: &mut W,
        message: &[u8],
    ) -> Result<WireStats, CodecError> {
        let frames = self.encode_frames(message)?;
        let payload_bytes: usize = frames.iter().map(Vec::len).sum();
        let mut wire = Vec::with_capacity(payload_bytes + 4 * frames.len());
        for frame in &frames {
            push_frame(&mut wire, frame)?;
        }
        stream.write_all(&wire)?;
        stream.flush()?;
        Ok(WireStats {
            frames: frames.len() as u64,
            raw_bytes: message.len() as u64,
            wire_bytes: payload_bytes as u64,
        })
    }

    /// Reads one chunk-frame sequence and decodes it back to the
    /// message.
    ///
    /// The first chunk's header pins `total`; frames are read until
    /// the message is complete, with each chunk checked as it arrives
    /// so corruption is rejected at the earliest possible moment
    /// instead of after buffering the rest of the stream.
    ///
    /// Every frame read is added to `stats` as it arrives, so the
    /// frames and wire bytes of a rejected message are still
    /// accounted; `raw_bytes` grows only when a message decodes.
    ///
    /// # Errors
    ///
    /// A typed [`CodecError`]; `Io(UnexpectedEof)` when the peer
    /// disconnected mid-message.
    pub fn read_message<R: Read>(
        &self,
        stream: &mut R,
        stats: &mut WireStats,
    ) -> Result<Vec<u8>, CodecError> {
        let mut message = Reassembly::new(self.flags());
        loop {
            let frame = read_frame(stream)?;
            stats.frames += 1;
            stats.wire_bytes += frame.len() as u64;
            if message.push(&frame)? {
                break;
            }
        }
        let message = message.finish()?;
        stats.raw_bytes += message.len() as u64;
        Ok(message)
    }
}

/// A message being reassembled from its chunks, each checked once as
/// it is added.
struct Reassembly {
    /// The flags byte every chunk must carry (the negotiated choice).
    flags: u8,
    body: Vec<u8>,
    /// Chunks accepted so far, which is the next expected `seq`.
    seen: u32,
    /// The `total` pinned by the first chunk.
    total: Option<u32>,
}

impl Reassembly {
    fn new(flags: u8) -> Self {
        Reassembly {
            flags,
            body: Vec::new(),
            seen: 0,
            total: None,
        }
    }

    /// Checks one chunk frame and appends its body; `true` once the
    /// chunks the message declared have all arrived. The CRC goes first
    /// (a lying header under a bad checksum is corruption, not
    /// structure), then the header fields, then the size caps.
    fn push(&mut self, frame: &[u8]) -> Result<bool, CodecError> {
        let be32 = |at: usize| u32::from_be_bytes(frame[at..at + 4].try_into().expect("4 bytes"));
        let Some(covered) = frame.len().checked_sub(CHUNK_TRAILER_BYTES) else {
            return Err(CodecError::BadChunk("shorter than its checksum"));
        };
        let (expected, found) = (crc32(&frame[..covered]), be32(covered));
        if expected != found {
            // best-effort seq for diagnostics
            let seq = if covered >= 4 { be32(0) } else { 0 };
            return Err(CodecError::Crc {
                seq,
                expected,
                found,
            });
        }
        if covered < CHUNK_HEADER_BYTES {
            return Err(CodecError::BadChunk("shorter than its header"));
        }
        let (seq, total, flags) = (be32(0), be32(4), frame[8]);
        if flags & !FLAG_COMPRESSED != 0 {
            return Err(CodecError::BadChunk("unknown flag bits"));
        }
        if total == 0 {
            return Err(CodecError::BadChunk("zero chunk total"));
        }
        if flags != self.flags {
            return Err(CodecError::BadChunk("flags disagree with negotiation"));
        }
        let pinned = *self.total.get_or_insert(total);
        if total != pinned {
            return Err(CodecError::TotalMismatch {
                expected: pinned,
                found: total,
            });
        }
        if seq != self.seen {
            return Err(CodecError::OutOfOrder {
                expected: self.seen,
                found: seq,
            });
        }
        if u64::from(total) > MAX_MESSAGE_BYTES / u64::from(MIN_CHUNK_BYTES) {
            return Err(CodecError::BadChunk("chunk total out of range"));
        }
        let body = &frame[CHUNK_HEADER_BYTES..covered];
        let bytes = (self.body.len() + body.len()) as u64;
        if bytes > MAX_MESSAGE_BYTES {
            return Err(CodecError::Oversize {
                bytes,
                cap: MAX_MESSAGE_BYTES,
            });
        }
        self.body.extend_from_slice(body);
        self.seen += 1;
        Ok(self.seen == pinned)
    }

    /// The complete message, decompressed when its chunks say so.
    fn finish(self) -> Result<Vec<u8>, CodecError> {
        let total = self.total.ok_or(CodecError::BadChunk("empty chunk list"))?;
        if self.seen != total {
            return Err(CodecError::TotalMismatch {
                expected: total,
                found: self.seen,
            });
        }
        if self.flags & FLAG_COMPRESSED != 0 {
            decompress(&self.body, MAX_MESSAGE_BYTES)
        } else {
            Ok(self.body)
        }
    }
}

// Compile-time guard: the largest negotiable chunk plus its framing
// always fits one wire frame.
const _: () =
    assert!(MAX_CHUNK_BYTES as usize + CHUNK_HEADER_BYTES + CHUNK_TRAILER_BYTES <= MAX_FRAME_BYTES);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;

    fn codec(compress: bool, chunk_bytes: u32) -> Codec {
        Codec::new(CodecConfig {
            compress,
            chunk_bytes,
        })
    }

    fn payload(len: usize) -> Vec<u8> {
        // mildly structured so compression has something to chew on
        (0..len).map(|i| b"01X10XX0state skip"[i % 18]).collect()
    }

    #[test]
    fn chains_round_trip_across_sizes_and_modes() {
        for compress in [false, true] {
            let c = codec(compress, MIN_CHUNK_BYTES);
            for len in [0, 1, 63, 64, 65, 128, 1000, 10_000] {
                let message = payload(len);
                let frames = c.encode_frames(&message).unwrap();
                assert!(!frames.is_empty());
                for frame in &frames {
                    assert!(
                        frame.len()
                            <= MIN_CHUNK_BYTES as usize + CHUNK_HEADER_BYTES + CHUNK_TRAILER_BYTES
                    );
                }
                if !compress {
                    assert_eq!(
                        frames.len(),
                        len.div_ceil(MIN_CHUNK_BYTES as usize).max(1),
                        "chunk count for {len} raw bytes"
                    );
                }
                assert_eq!(
                    c.decode_frames(frames).unwrap(),
                    message,
                    "round trip (compress={compress}, len={len})"
                );
            }
        }
    }

    #[test]
    fn stream_round_trip_accounts_the_transfer() {
        let c = codec(true, MIN_CHUNK_BYTES);
        let message = payload(5000);
        let mut wire = Vec::new();
        let wrote = c.write_message(&mut wire, &message).unwrap();
        assert_eq!(wrote.raw_bytes, 5000);
        assert!(wrote.frames >= 1);
        assert!(
            wrote.wire_bytes < wrote.raw_bytes,
            "structured text must net-compress even with chunk overhead"
        );
        let mut cursor = &wire[..];
        let mut read = WireStats::default();
        let back = c.read_message(&mut cursor, &mut read).unwrap();
        assert_eq!(back, message);
        assert_eq!(read, wrote);
        assert!(cursor.is_empty(), "reader must consume exactly the message");
    }

    /// A `Write` that counts the calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A message leaves in one write call however many frames it
    /// spans, and the bytes are the length-prefixed frames in order —
    /// the wire format is unchanged. A single frame is one write too.
    #[test]
    fn a_message_is_one_write_call() {
        for (len, want_frames) in [(10, 1), (1000, 16)] {
            let c = codec(false, MIN_CHUNK_BYTES);
            let message = payload(len);
            let mut out = CountingWriter::default();
            let wrote = c.write_message(&mut out, &message).unwrap();
            assert_eq!(wrote.frames, want_frames);
            assert_eq!(out.writes, 1, "{want_frames}-frame message");
            let mut expected = Vec::new();
            for frame in c.encode_frames(&message).unwrap() {
                expected.extend_from_slice(&(frame.len() as u32).to_be_bytes());
                expected.extend_from_slice(&frame);
            }
            assert_eq!(out.bytes, expected);
        }
        let mut out = CountingWriter::default();
        write_frame(&mut out, b"frame").unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes, b"\0\0\0\x05frame");
    }

    #[test]
    fn every_single_bit_flip_in_every_frame_is_rejected() {
        let c = codec(false, MIN_CHUNK_BYTES);
        let message = payload(300);
        let frames = c.encode_frames(&message).unwrap();
        assert!(frames.len() >= 2, "test needs a multi-chunk message");
        for (at, frame) in frames.iter().enumerate() {
            for bit in 0..frame.len() * 8 {
                let mut corrupt = frames.clone();
                corrupt[at][bit / 8] ^= 1 << (bit % 8);
                let err = c
                    .decode_frames(corrupt)
                    .expect_err("flipped bit must be rejected");
                assert!(
                    matches!(err, CodecError::Crc { .. }),
                    "frame {at} bit {bit}: CRC must catch a single-bit flip, got {err}"
                );
            }
        }
        // the compressed chain rejects flips the same way
        let c = codec(true, MIN_CHUNK_BYTES);
        let frames = c.encode_frames(&message).unwrap();
        for bit in 0..frames[0].len() * 8 {
            let mut corrupt = frames.clone();
            corrupt[0][bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(c.decode_frames(corrupt), Err(CodecError::Crc { .. })),
                "compressed chain: bit {bit} flip went undetected"
            );
        }
    }

    #[test]
    fn structural_corruption_maps_to_typed_errors() {
        let c = codec(false, MIN_CHUNK_BYTES);
        let message = payload(200); // 4 chunks of <= 64
        let frames = c.encode_frames(&message).unwrap();
        assert_eq!(frames.len(), 4);

        // reordered chunks
        let mut swapped = frames.clone();
        swapped.swap(0, 2);
        assert!(matches!(
            c.decode_frames(swapped),
            Err(CodecError::OutOfOrder {
                expected: 0,
                found: 2
            })
        ));

        // missing tail chunk
        assert!(matches!(
            c.decode_frames(frames[..3].to_vec()),
            Err(CodecError::TotalMismatch {
                expected: 4,
                found: 3
            })
        ));

        // duplicated chunk
        let mut doubled = frames.clone();
        doubled.insert(1, frames[1].clone());
        assert!(matches!(
            c.decode_frames(doubled),
            Err(CodecError::OutOfOrder { .. })
        ));

        // no chunks at all
        assert!(matches!(
            c.decode_frames(Vec::new()),
            Err(CodecError::BadChunk(_))
        ));

        // frame too short to even hold a checksum
        assert!(matches!(
            c.decode_frames(vec![vec![1, 2]]),
            Err(CodecError::BadChunk(_))
        ));

        // flags lying about compression — CRC-valid but against the
        // negotiated chain
        let lying = codec(true, MIN_CHUNK_BYTES)
            .encode_frames(&message)
            .unwrap();
        assert!(matches!(
            c.decode_frames(lying),
            Err(CodecError::BadChunk(_))
        ));
    }

    #[test]
    fn reader_rejects_a_lying_total_before_buffering_the_world() {
        // a CRC-valid first chunk declaring an absurd total
        let c = codec(false, MIN_CHUNK_BYTES);
        let total = (MAX_MESSAGE_BYTES / u64::from(MIN_CHUNK_BYTES)) as u32 + 1;
        let mut chunk = Vec::new();
        chunk.extend_from_slice(&0u32.to_be_bytes());
        chunk.extend_from_slice(&total.to_be_bytes());
        chunk.push(0);
        chunk.extend_from_slice(&[7; 8]);
        let crc = crc32(&chunk);
        chunk.extend_from_slice(&crc.to_be_bytes());
        let mut wire = Vec::new();
        write_frame(&mut wire, &chunk).unwrap();
        let mut cursor = &wire[..];
        assert!(matches!(
            c.read_message(&mut cursor, &mut WireStats::default()),
            Err(CodecError::BadChunk(_))
        ));
    }

    #[test]
    fn truncated_streams_surface_as_io_eof() {
        let c = codec(false, MIN_CHUNK_BYTES);
        let message = payload(200);
        let mut wire = Vec::new();
        c.write_message(&mut wire, &message).unwrap();
        for cut in [1, 10, 80, wire.len() - 1] {
            let mut cursor = &wire[..cut];
            match c.read_message(&mut cursor, &mut WireStats::default()) {
                Err(CodecError::Io(err)) => {
                    assert_eq!(
                        err.kind(),
                        std::io::ErrorKind::UnexpectedEof,
                        "cut at {cut}"
                    )
                }
                other => panic!("cut at {cut} surfaced as {other:?}"),
            }
        }
    }

    #[test]
    fn negotiation_clamps_the_offer() {
        let agreed = CodecConfig::negotiate(CodecConfig {
            compress: true,
            chunk_bytes: 1,
        });
        assert_eq!(agreed.chunk_bytes, MIN_CHUNK_BYTES);
        let agreed = CodecConfig::negotiate(CodecConfig {
            compress: false,
            chunk_bytes: u32::MAX,
        });
        assert_eq!(agreed.chunk_bytes, MAX_CHUNK_BYTES);
        assert!(!agreed.compress);
        let offer = CodecConfig::preferred();
        assert_eq!(CodecConfig::negotiate(offer), offer, "defaults self-agree");
    }
}
