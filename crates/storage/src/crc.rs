//! Dependency-free CRC-32 (IEEE 802.3, the zlib/PNG polynomial), used to
//! checksum snapshot files and WAL records so that disk
//! corruption surfaces as a typed [`crate::StorageError::Corrupt`] instead of
//! silently feeding garbage codes to the mining engine.

/// Lazily built 256-entry lookup table for the reflected polynomial
/// `0xEDB88320`.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *entry = crc;
        }
        table
    })
}

/// CRC-32 of `bytes` (IEEE, reflected, init/final XOR `0xFFFF_FFFF`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let table = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"maimon snapshot body".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
