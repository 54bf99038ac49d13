//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
//! per-chunk integrity check of the wire codec.
//!
//! Std-only, table-driven, eight bytes per step ("slicing-by-8"). The
//! tables are built in a `const` context, so there is no lazy-init
//! state and the checksum of a byte slice is a pure function. CRC-32
//! detects *every* single-bit error over the span it covers (the
//! generator polynomial has more than one term), which is exactly the
//! guarantee the noise-injection harness pins.

/// The reflected IEEE polynomial used by zlib, PNG and Ethernet.
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables: `TABLES[0][b]` is the CRC of the single byte `b`
/// folded into an all-zero register, and `TABLES[k][b]` the same byte
/// followed by `k` zero bytes, so eight table lookups fold eight input
/// bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF` —
/// the standard IEEE parameterisation).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes(word[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(word[4..].try_into().expect("4 bytes"));
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vectors from the zlib/PNG parameterisation.
    #[test]
    fn known_answers() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time CRC the slicing tables fold eight of.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_crc_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..116u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=100 {
                let span = &data[start..start + len];
                assert_eq!(crc32(span), bytewise(span), "start {start}, len {len}");
            }
        }
    }

    /// The harness contract: any single-bit flip changes the checksum.
    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let data: Vec<u8> = (0..97u8).collect();
        let clean = crc32(&data);
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&flipped), clean, "bit {bit} flip went undetected");
        }
    }
}
