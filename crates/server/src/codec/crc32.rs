//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
//! per-chunk integrity check of the wire codec.
//!
//! Std-only, table-driven. The table is built in a `const` context, so
//! there is no lazy-init state and the checksum of a byte slice is a
//! pure function. CRC-32 detects *every* single-bit error over the
//! span it covers (the generator polynomial has more than one term),
//! which is exactly the guarantee the noise-injection harness pins.

/// The reflected IEEE polynomial used by zlib, PNG and Ethernet.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table: `TABLE[b]` is the CRC of the single byte
/// `b` folded into an all-zero register.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF` —
/// the standard IEEE parameterisation).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
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
