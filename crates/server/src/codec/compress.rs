//! Std-only LZSS compression — the optional compression step of the
//! wire codec.
//!
//! Cube payloads are sparse `01X` text with long runs and heavily
//! repeated line shapes, so a plain dictionary coder with a small
//! window already shrinks them severalfold; no external crate is
//! needed (the build environment is offline).
//!
//! # Format
//!
//! ```text
//! compressed := raw_len u64 BE, token*
//! token      := control u8, item{1..8}       ; control bit i (LSB first)
//!             ;   0 → item is one literal byte
//!             ;   1 → item is a match: u16 BE = offset:12 len:4
//! match      := offset 1..=4095 back, length (len:4) + 3 .. 18 bytes
//! ```
//!
//! Matches may overlap their own output (the classic LZ run idiom).
//! The decoder is adversarial-input-safe: every read is bounds-checked,
//! a zero offset, an offset past the produced output, or output
//! diverging from `raw_len` is a typed [`CodecError::Compression`] —
//! never a panic, never unbounded allocation (`raw_len` is checked
//! against the caller's cap, and against the 9× the token stream can
//! expand to, before any buffer is sized).
//!
//! # Matcher
//!
//! The parse is greedy: at each position the longest match among the
//! first [`MAX_CHAIN`] hash-chain candidates inside the window wins,
//! ties going to the most recent candidate. The output is a pure
//! function of the input, and the tests pin it byte for byte against a
//! straightforward reference matcher (one chain link per input byte,
//! every candidate measured byte by byte).
//!
//! The matcher's state is fixed whatever the input size: the chain
//! heads ([`HASH_SIZE`] slots) and a ring of [`RING`] chain links.
//! A link is only ever followed from a candidate at most [`WINDOW`]
//! back, and the position that would next reuse its slot lies
//! [`RING`] further on, past the current one, so the ring never hands
//! out a stale link. Three things keep the inner loop short, none of
//! which changes which candidate wins: the prefix hash comes from one
//! 4-byte load, match lengths are compared 8 bytes at a time, and a
//! candidate that differs from the input at the best length so far is
//! skipped (it cannot beat it).

use super::CodecError;

/// Sliding-window size; offsets are 12 bits.
const WINDOW: usize = 4095;
/// Minimum match worth encoding (a token costs 2 bytes + control bit).
const MIN_MATCH: usize = 3;
/// Maximum match length (4-bit field + `MIN_MATCH`).
const MAX_MATCH: usize = MIN_MATCH + 15;
/// Hash-chain heads per 3-byte prefix hash.
const HASH_SIZE: usize = 1 << 14;
/// How many chain links the matcher follows before settling.
const MAX_CHAIN: usize = 32;
/// Chain-link slots: position `p` links through `prev[p % RING]`. One
/// more than the window, so no slot a live chain can reach is reused.
const RING: usize = WINDOW + 1;
/// Most output bytes one token byte can yield: a 2-byte match makes
/// up to `MAX_MATCH` of them.
const MAX_EXPANSION: u64 = (MAX_MATCH / 2) as u64;
/// Empty head or link.
const NIL: usize = usize::MAX;

const _: () = assert!(RING.is_power_of_two() && RING > WINDOW);

/// Folds a 3-byte prefix `b0 << 16 | b1 << 8 | b2` into a chain head.
fn mix(prefix: u32) -> usize {
    (prefix.wrapping_mul(2654435761) >> 18) as usize & (HASH_SIZE - 1)
}

fn hash3(bytes: &[u8]) -> usize {
    mix(u32::from(bytes[0]) << 16 | u32::from(bytes[1]) << 8 | u32::from(bytes[2]))
}

/// [`hash3`] of the prefix at `p` (which must have 3 bytes), from one
/// 4-byte load wherever the input has a fourth byte.
fn hash_at(raw: &[u8], p: usize) -> usize {
    match raw.get(p..p + 4) {
        Some(word) => mix(u32::from_be_bytes(word.try_into().expect("4 bytes")) >> 8),
        None => hash3(&raw[p..]),
    }
}

/// Length of the common prefix of `raw[cand..]` and `raw[at..]`, up to
/// `limit` (`cand < at` and `at + limit <= raw.len()`), compared 8
/// bytes at a time.
fn match_len(raw: &[u8], cand: usize, at: usize, limit: usize) -> usize {
    let mut len = 0;
    while len < limit {
        let (Some(x), Some(y)) = (
            raw.get(cand + len..cand + len + 8),
            raw.get(at + len..at + len + 8),
        ) else {
            while len < limit && raw[cand + len] == raw[at + len] {
                len += 1;
            }
            return len;
        };
        let diff = u64::from_le_bytes(x.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if diff != 0 {
            return (len + (diff.trailing_zeros() / 8) as usize).min(limit);
        }
        len += 8;
    }
    limit
}

/// Compresses `raw` into the LZSS token format.
pub fn compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    out.extend_from_slice(&(raw.len() as u64).to_be_bytes());

    // hash chains over 3-byte prefixes: head[h] is the most recent
    // position whose prefix hashes to h, prev[p % RING] the one before p
    let mut head = vec![NIL; HASH_SIZE];
    let mut prev = vec![NIL; RING];
    // chains a position into the index (only positions with a full
    // 3-byte prefix are indexable)
    let insert = |head: &mut [usize], prev: &mut [usize], p: usize| {
        if p + MIN_MATCH <= raw.len() {
            let h = hash_at(raw, p);
            prev[p % RING] = head[h];
            head[h] = p;
        }
    };

    let mut at = 0;
    while at < raw.len() {
        let control_at = out.len();
        out.push(0);
        let mut control = 0u8;
        let mut items = 0;
        while items < 8 && at < raw.len() {
            let mut best_len = 0;
            let mut best_off = 0;
            let limit = (raw.len() - at).min(MAX_MATCH);
            if limit >= MIN_MATCH {
                let mut cand = head[hash_at(raw, at)];
                let mut chain = 0;
                while cand != NIL && chain < MAX_CHAIN {
                    let off = at - cand;
                    if off > WINDOW {
                        break; // older candidates are farther still
                    }
                    // best_len < limit here; a candidate that differs
                    // at best_len matches at most best_len bytes
                    if raw[cand + best_len] == raw[at + best_len] {
                        let len = match_len(raw, cand, at, limit);
                        if len > best_len {
                            best_len = len;
                            best_off = off;
                            if len == limit {
                                break; // nothing can be longer
                            }
                        }
                    }
                    cand = prev[cand % RING];
                    chain += 1;
                }
            }
            if best_len >= MIN_MATCH {
                control |= 1 << items;
                let token = ((best_off as u16) << 4) | ((best_len - MIN_MATCH) as u16);
                out.extend_from_slice(&token.to_be_bytes());
                // index every covered position so later matches can
                // still reach into this span
                for p in at..at + best_len {
                    insert(&mut head, &mut prev, p);
                }
                at += best_len;
            } else {
                out.push(raw[at]);
                insert(&mut head, &mut prev, at);
                at += 1;
            }
            items += 1;
        }
        out[control_at] = control;
    }
    out
}

/// Decompresses LZSS `bytes`, refusing outputs larger than `cap`.
///
/// # Errors
///
/// [`CodecError::Oversize`] for a declared length above `cap`;
/// [`CodecError::Compression`] for any other malformed input:
/// truncated header or token stream, a declared length above 9× the
/// token bytes, zero offsets, offsets past the produced output, or a
/// token stream that produces more or fewer bytes than the header
/// declared. Never panics.
pub fn decompress(bytes: &[u8], cap: u64) -> Result<Vec<u8>, CodecError> {
    let raw_len = bytes
        .get(..8)
        .ok_or(CodecError::Compression("truncated length header"))?;
    let raw_len = u64::from_be_bytes(raw_len.try_into().expect("8-byte slice"));
    if raw_len > cap {
        return Err(CodecError::Oversize {
            bytes: raw_len,
            cap,
        });
    }
    // the best a token stream can do is all matches: 2 bytes for every
    // MAX_MATCH bytes of output (the control bytes only lower it)
    let tokens = (bytes.len() - 8) as u64;
    if raw_len > tokens.saturating_mul(MAX_EXPANSION) {
        return Err(CodecError::Compression(
            "declared length past what the tokens can produce",
        ));
    }
    let raw_len = raw_len as usize;
    let mut out = Vec::with_capacity(raw_len);
    let mut at = 8;
    while out.len() < raw_len {
        let control = *bytes
            .get(at)
            .ok_or(CodecError::Compression("truncated control byte"))?;
        at += 1;
        for item in 0..8 {
            if out.len() == raw_len {
                // trailing control bits after the last byte must be
                // literal-flagged padding with no items behind them
                if control >> item != 0 {
                    return Err(CodecError::Compression("tokens past declared length"));
                }
                break;
            }
            if control & (1 << item) != 0 {
                let token = bytes
                    .get(at..at + 2)
                    .ok_or(CodecError::Compression("truncated match token"))?;
                at += 2;
                let token = u16::from_be_bytes(token.try_into().expect("2-byte slice"));
                let offset = (token >> 4) as usize;
                let len = (token & 0xF) as usize + MIN_MATCH;
                if offset == 0 || offset > out.len() {
                    return Err(CodecError::Compression("match offset out of range"));
                }
                if out.len() + len > raw_len {
                    return Err(CodecError::Compression("match overruns declared length"));
                }
                copy_match(&mut out, offset, len);
            } else {
                let b = *bytes
                    .get(at)
                    .ok_or(CodecError::Compression("truncated literal"))?;
                at += 1;
                out.push(b);
            }
        }
    }
    if at != bytes.len() {
        return Err(CodecError::Compression("trailing bytes after final token"));
    }
    Ok(out)
}

/// Appends the `len` bytes that start `offset` back from the end of
/// `out`. A match longer than its offset overlaps the bytes it is
/// producing (the LZ run idiom): each copy takes all that exists past
/// `from` so far, so the copied span doubles per call, and a match no
/// longer than its offset is a single copy.
fn copy_match(out: &mut Vec<u8>, offset: usize, len: usize) {
    let from = out.len() - offset;
    let mut left = len;
    while left > 0 {
        let n = left.min(out.len() - from);
        out.extend_from_within(from..from + n);
        left -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_hash3(bytes: &[u8]) -> usize {
        let h = u32::from(bytes[0]) << 16 | u32::from(bytes[1]) << 8 | u32::from(bytes[2]);
        (h.wrapping_mul(2654435761) >> 18) as usize & (HASH_SIZE - 1)
    }

    /// The matcher this module had before the ring: one link per input
    /// byte, byte-wise compares, every candidate measured. Kept as the
    /// reference the output must equal byte for byte.
    fn reference_compress(raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(raw.len() / 2 + 16);
        out.extend_from_slice(&(raw.len() as u64).to_be_bytes());

        // hash chains over 3-byte prefixes: head[h] is the most recent
        // position whose prefix hashes to h, prev[p] the one before it
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; raw.len()];
        // chains a position into the index (only positions with a full
        // 3-byte prefix are indexable)
        let insert = |head: &mut [usize], prev: &mut [usize], p: usize| {
            if p + MIN_MATCH <= raw.len() {
                let h = reference_hash3(&raw[p..]);
                prev[p] = head[h];
                head[h] = p;
            }
        };

        let mut at = 0;
        while at < raw.len() {
            let control_at = out.len();
            out.push(0);
            let mut control = 0u8;
            let mut items = 0;
            while items < 8 && at < raw.len() {
                let mut best_len = 0;
                let mut best_off = 0;
                if at + MIN_MATCH <= raw.len() {
                    let mut cand = head[reference_hash3(&raw[at..])];
                    let mut chain = 0;
                    while cand != usize::MAX && chain < MAX_CHAIN {
                        let off = at - cand;
                        if off > WINDOW {
                            break; // older candidates are farther still
                        }
                        let limit = (raw.len() - at).min(MAX_MATCH);
                        let mut len = 0;
                        while len < limit && raw[cand + len] == raw[at + len] {
                            len += 1;
                        }
                        if len > best_len {
                            best_len = len;
                            best_off = off;
                            if len == MAX_MATCH {
                                break;
                            }
                        }
                        cand = prev[cand];
                        chain += 1;
                    }
                }
                if best_len >= MIN_MATCH {
                    control |= 1 << items;
                    let token = ((best_off as u16) << 4) | ((best_len - MIN_MATCH) as u16);
                    out.extend_from_slice(&token.to_be_bytes());
                    // index every covered position so later matches can
                    // still reach into this span
                    for p in at..at + best_len {
                        insert(&mut head, &mut prev, p);
                    }
                    at += best_len;
                } else {
                    out.push(raw[at]);
                    insert(&mut head, &mut prev, at);
                    at += 1;
                }
                items += 1;
            }
            out[control_at] = control;
        }
        out
    }

    /// Deterministic bytes of one of five shapes: `01X` cube text,
    /// uniform noise, a two-letter alphabet (many equal-length
    /// candidates, so ties decide), long runs, and a block repeated at
    /// a period around the window size.
    fn shaped(kind: u8, len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::with_capacity(len);
        match kind {
            0 => {
                let width = 8 + next() as usize % 200;
                while out.len() < len {
                    let b = if out.len() % (width + 1) == width {
                        b'\n'
                    } else {
                        match next() % 16 {
                            0 => b'0',
                            1 => b'1',
                            _ => b'X',
                        }
                    };
                    out.push(b);
                }
            }
            1 => out.extend((0..len).map(|_| next() as u8)),
            2 => out.extend((0..len).map(|_| b'a' + (next() % 2) as u8)),
            3 => {
                while out.len() < len {
                    let (byte, run) = (next() as u8 % 4, 1 + next() as usize % 5000);
                    out.extend(std::iter::repeat_n(byte, run.min(len - out.len())));
                }
            }
            _ => {
                let period = WINDOW - 1 + next() as usize % 4;
                let block: Vec<u8> = (0..period).map(|_| next() as u8).collect();
                out.extend(block.iter().cycle().take(len));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn output_equals_the_reference_matcher(
            kind in 0u8..5,
            len in prop_oneof![0usize..4, WINDOW - 3..WINDOW + 5, 0usize..10_000, 8000usize..9000],
            seed in any::<u64>(),
        ) {
            let raw = shaped(kind, len, seed);
            prop_assert_eq!(compress(&raw), reference_compress(&raw));
        }
    }

    /// The match copy `decompress` made before [`copy_match`]: one
    /// push per byte, forward. Kept as the reference.
    fn reference_copy_match(out: &mut Vec<u8>, offset: usize, len: usize) {
        let from = out.len() - offset;
        for i in 0..len {
            let b = out[from + i];
            out.push(b);
        }
    }

    /// A stream of `literals` followed by one match item.
    fn literals_then_match(literals: &[u8], offset: usize, len: usize) -> Vec<u8> {
        let mut out = ((literals.len() + len) as u64).to_be_bytes().to_vec();
        let mut control_at = 0;
        for item in 0..=literals.len() {
            if item % 8 == 0 {
                control_at = out.len();
                out.push(0);
            }
            match literals.get(item) {
                Some(&b) => out.push(b),
                None => {
                    out[control_at] |= 1 << (item % 8);
                    let token = ((offset as u16) << 4) | (len - MIN_MATCH) as u16;
                    out.extend_from_slice(&token.to_be_bytes());
                }
            }
        }
        out
    }

    #[test]
    fn match_copies_equal_the_byte_wise_loop() {
        // offsets 1, 2 and 3 are runs of one, two and three bytes,
        // offset == len the longest single copy and offset == len - 1
        // the shortest overlapping one
        let literals = b"abcdefghijklmnopqrstuvwxyz";
        for len in MIN_MATCH..=MAX_MATCH {
            for offset in [1, 2, 3, len - 1, len, len + 1, literals.len()] {
                let mut want = literals.to_vec();
                reference_copy_match(&mut want, offset, len);
                let mut got = literals.to_vec();
                copy_match(&mut got, offset, len);
                assert_eq!(got, want, "offset {offset} len {len}");
                let stream = literals_then_match(literals, offset, len);
                assert_eq!(
                    decompress(&stream, 1 << 20).unwrap(),
                    want,
                    "offset {offset} len {len}"
                );
            }
        }
        let mut run = b"ab".to_vec();
        copy_match(&mut run, 1, MAX_MATCH);
        assert_eq!(run[1..], [b'b'; 1 + MAX_MATCH]);
    }

    #[test]
    fn the_one_load_hash_equals_hash3() {
        let raw = shaped(1, 4096, 3);
        for p in 0..raw.len() - 2 {
            assert_eq!(hash_at(&raw, p), hash3(&raw[p..]), "position {p}");
        }
    }

    /// `(input position, match offset or 0 for a literal, length)` of
    /// every item in a well-formed stream.
    fn items(packed: &[u8]) -> Vec<(usize, usize, usize)> {
        let mut items = Vec::new();
        let (mut at, mut pos) = (8, 0);
        while at < packed.len() {
            let control = packed[at];
            at += 1;
            for bit in 0..8 {
                if at == packed.len() {
                    break;
                }
                if control >> bit & 1 == 1 {
                    let token = u16::from_be_bytes([packed[at], packed[at + 1]]);
                    let len = (token & 0xF) as usize + MIN_MATCH;
                    items.push((pos, (token >> 4) as usize, len));
                    (at, pos) = (at + 2, pos + len);
                } else {
                    items.push((pos, 0, 1));
                    (at, pos) = (at + 1, pos + 1);
                }
            }
        }
        items
    }

    /// A 4-byte token that recurs exactly 4095 bytes later is matched
    /// there; one that recurs 4096 bytes later is out of reach and goes
    /// out as literals. The filler around it never contains the
    /// token's letters, so nothing else can match it.
    #[test]
    fn a_repeat_4095_back_is_matched_and_4096_back_is_not() {
        let token = b"QZQZ";
        let mut state = 11u64;
        let mut filler = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    b'a' + (state >> 59) as u8 // 32 byte values from 'a' up
                })
                .collect()
        };
        for back in [WINDOW, WINDOW + 1] {
            let mut raw = filler(5);
            let first = raw.len();
            raw.extend_from_slice(token);
            raw.extend(filler(first + back - raw.len()));
            raw.extend_from_slice(token);
            let packed = compress(&raw);
            assert_eq!(packed, reference_compress(&raw));
            assert_eq!(decompress(&packed, raw.len() as u64).unwrap(), raw);
            let second: Vec<_> = items(&packed)
                .into_iter()
                .filter(|&(pos, _, len)| pos + len > first + back)
                .collect();
            if back <= WINDOW {
                assert_eq!(second, [(first + back, back, token.len())]);
            } else {
                assert!(second.iter().all(|&(_, off, _)| off == 0), "{second:?}");
            }
        }
    }

    /// The nine `serve-hit` requests of perfbench: every registry
    /// workload at `(L, S, k) = (24, 4, 8)`, paper profiles at a
    /// quarter of their cubes (s38417's request is ~485 KB).
    #[test]
    fn registry_requests_compress_to_the_reference_bytes() {
        use crate::protocol::{JobSpec, Request};
        use ss_core::Engine;
        use ss_testdata::WorkloadRegistry;

        for w in WorkloadRegistry::all() {
            let profile = w.profile();
            let set = w.test_set_scaled(if profile.is_some() { 0.25 } else { 1.0 });
            let mut builder = Engine::builder()
                .window(24)
                .segment(4)
                .speedup(8)
                .threads(1);
            if let Some(profile) = profile {
                builder = builder.lfsr_size(profile.lfsr_size);
            }
            let engine = builder.build().expect("valid config");
            let request = Request::Submit(JobSpec::new(&set, engine.config())).encode();
            let packed = compress(&request);
            assert!(packed == reference_compress(&request), "{} differs", w.name);
            assert_eq!(decompress(&packed, request.len() as u64).unwrap(), request);
        }
    }

    fn round_trip(raw: &[u8]) -> usize {
        let packed = compress(raw);
        let back = decompress(&packed, raw.len() as u64).expect("round trip decodes");
        assert_eq!(back, raw, "round trip must be bit-identical");
        packed.len()
    }

    #[test]
    fn round_trips_and_compresses_cube_text() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(&[0xAB; 10_000]);
        // a realistic cube payload: sparse 01X lines
        let mut cube_text = String::from("chains 8 depth 25\n");
        for i in 0..400 {
            let mut line = vec![b'X'; 200];
            line[(i * 7) % 200] = b'0' + (i % 2) as u8;
            line[(i * 13) % 200] = b'1';
            cube_text.push_str(std::str::from_utf8(&line).unwrap());
            cube_text.push('\n');
        }
        let packed = round_trip(cube_text.as_bytes());
        assert!(
            packed * 4 < cube_text.len(),
            "sparse cube text must compress at least 4x (got {} -> {})",
            cube_text.len(),
            packed
        );
        // incompressible input must still round-trip (and not explode)
        let mut noise = Vec::with_capacity(4096);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            noise.push((state >> 56) as u8);
        }
        let packed = round_trip(&noise);
        assert!(packed <= noise.len() + noise.len() / 8 + 16);
    }

    #[test]
    fn malformed_streams_reject_without_panicking() {
        // truncated header
        assert!(matches!(
            decompress(&[0, 0, 0], 1 << 20),
            Err(CodecError::Compression(_))
        ));
        // declared length above the cap
        let mut huge = (u64::MAX).to_be_bytes().to_vec();
        huge.push(0);
        assert!(matches!(
            decompress(&huge, 1 << 20),
            Err(CodecError::Oversize { .. })
        ));
        // a declared length no token stream of this size can produce
        // is refused before anything is reserved for it
        let past_tokens = |bytes: &[u8]| {
            matches!(
                decompress(bytes, 1 << 30),
                Err(CodecError::Compression(
                    "declared length past what the tokens can produce"
                ))
            )
        };
        let mut lying = (1u64 << 30).to_be_bytes().to_vec();
        lying.push(0);
        assert!(past_tokens(&lying));
        // 145 bytes from 19 token bytes; the bound is 9x, exactly
        let mut run = compress(&[b'X'; 1 + 8 * MAX_MATCH]);
        assert_eq!(run.len() - 8, 17 + 1 + 1);
        assert!(decompress(&run, 1 << 20).is_ok());
        run[..8].copy_from_slice(&(9 * 19u64).to_be_bytes());
        assert!(decompress(&run, 1 << 20).is_err() && !past_tokens(&run));
        run[..8].copy_from_slice(&(9 * 19 + 1u64).to_be_bytes());
        assert!(past_tokens(&run));
        // zero match offset
        let mut zero_off = 4u64.to_be_bytes().to_vec();
        zero_off.push(0b0000_0001); // first item is a match
        zero_off.extend_from_slice(&0u16.to_be_bytes());
        assert!(matches!(
            decompress(&zero_off, 1 << 20),
            Err(CodecError::Compression(_))
        ));
        // every truncation of a valid stream is rejected
        let packed = compress(b"state skip state skip state skip");
        for cut in 0..packed.len() {
            assert!(
                decompress(&packed[..cut], 1 << 20).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // random garbage never panics
        let mut state = 1u64;
        for case in 0..500 {
            let mut bytes = Vec::new();
            for _ in 0..(case % 64) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1443);
                bytes.push((state >> 33) as u8);
            }
            let _ = decompress(&bytes, 1 << 16);
        }
    }
}
