//! CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant) over byte
//! slices, table-driven with a compile-time table.  Every WAL record and
//! snapshot section carries one of these so torn writes and bit rot are
//! detected before replay ever touches engine state.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`): matches
/// zlib's `crc32()` and therefore any external tool inspecting the files.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues the CRC-32 `crc` of some bytes over `data`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, so data written in pieces
/// can be checksummed without buffering it whole.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in data {
        c = (c >> 8) ^ TABLE[((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn updates_chain_like_one_pass() {
        let data = b"snapshot rows written in pieces";
        for cut in [0, 1, 7, data.len()] {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), crc32(data), "cut at {cut}");
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
