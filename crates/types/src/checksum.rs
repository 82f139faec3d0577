//! CRC32C (Castagnoli) checksums and the "masked" form used in on-disk
//! and wire formats.
//!
//! Every persistent artifact in the engine (WAL records, SSTable blocks,
//! manifest records, value-log frames, the shard map) and every wire
//! frame carries a CRC32C so that torn writes and bit rot are detected
//! on read rather than silently corrupting query results.
//!
//! The stored value is *masked* (rotated and offset, the same scheme
//! LevelDB/RocksDB use) so that checksumming a buffer that itself embeds
//! CRCs does not degenerate.
//!
//! There are two implementations of the same function. The engine
//! checksums through [`masked`], which uses the CPU's CRC32C instruction
//! where there is one (x86-64 SSE4.2, detected at run time). [`crc32c`]
//! and [`extend`] are the portable slicing-by-8 table loop: the path
//! `masked` takes on every other CPU, the reference the hardware kernel
//! is tested against, and the fixed kernel the benchmark's host-speed
//! gauge times — so their bodies do not change and they never reach the
//! hardware kernel.

/// The CRC32C polynomial, reversed (0x1EDC6F41 bit-reflected).
const POLY: u32 = 0x82F6_3B78;

/// Delta added when masking a CRC before storing it.
const MASK_DELTA: u32 = 0xa282_ead8;

/// 8 tables of 256 entries for slicing-by-8.
struct Tables([[u32; 256]; 8]);

fn build_tables() -> Tables {
    let mut t = [[0u32; 256]; 8];
    for (i, slot) in t[0].iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
        *slot = crc;
    }
    for i in 0..256 {
        let mut crc = t[0][i];
        for k in 1..8 {
            crc = t[0][(crc & 0xff) as usize] ^ (crc >> 8);
            t[k][i] = crc;
        }
    }
    Tables(t)
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// Compute the CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extend a CRC computed over prior bytes with `data`.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    let t = &tables().0;
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The masked CRC32C of the concatenation of `parts`: the value every
/// engine format stores and every reader compares against. Equal to
/// `mask(extend(.. extend(crc32c(parts[0]), parts[1]) .., parts[n]))`,
/// computed with the CPU's CRC32C instruction when it has one.
pub fn masked(parts: &[&[u8]]) -> u32 {
    mask(parts.iter().fold(0, |crc, part| {
        extend_hw(crc, part).unwrap_or_else(|| extend(crc, part))
    }))
}

/// [`extend`] on the hardware kernel, or `None` on a CPU without one.
#[allow(unsafe_code)]
#[inline]
fn extend_hw(crc: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `extend_sse42` is a safe function whose only requirement
        // is that the CPU supports SSE4.2, which the
        // `is_x86_feature_detected!("sse4.2")` check above just established.
        return Some(unsafe { extend_sse42(crc, data) });
    }
    let _ = (crc, data); // unused on other architectures
    None
}

/// [`extend`] with the `crc32` instruction: one stream, eight bytes per
/// `crc32q` and a byte tail. Reads through `chunks_exact`, so it assumes
/// nothing about the alignment of `data`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(!crc);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        crc = _mm_crc32_u64(crc, word);
    }
    // `crc32q` zeroes the upper half of its destination.
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// Mask a CRC for storage. It is problematic to compute the CRC of a
/// string that contains embedded CRCs, so stored CRCs are masked.
#[inline]
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Invert [`mask`].
#[inline]
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// RFC 3720 / iSCSI test vectors for CRC32C.
    fn rfc3720_vectors() -> Vec<(Vec<u8>, u32)> {
        vec![
            (vec![0u8; 32], 0x8a91_36aa),
            (vec![0xffu8; 32], 0x62a8_ab43),
            ((0u8..32).collect(), 0x46dd_794e),
            ((0u8..32).rev().collect(), 0x113f_db5c),
            (b"123456789".to_vec(), 0xe306_9283),
        ]
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    /// Every length 0..=64, then a spread around the sizes the engine
    /// checksums (pages, WAL blocks, large vlog frames) up to 70 KiB.
    fn lengths() -> impl Iterator<Item = usize> {
        const SPREAD: [usize; 16] = [
            65,
            127,
            128,
            129,
            255,
            1000,
            4095,
            4096,
            4097,
            4101,
            32 * 1024 - 7,
            32 * 1024,
            65_535,
            65_536,
            65_537,
            70 * 1024,
        ];
        (0..=64).chain(SPREAD)
    }

    /// The hardware kernel itself, never the fallback: the differential
    /// tests below must not pass by comparing the reference with itself.
    /// `None` (tests skip) only on a CPU without the instruction.
    fn hardware_kernel() -> Option<fn(u32, &[u8]) -> u32> {
        if extend_hw(0, &[]).is_none() {
            eprintln!("skipped: this CPU has no CRC32C instruction");
            return None;
        }
        Some(|crc, data| extend_hw(crc, data).expect("this CPU has the instruction"))
    }

    #[test]
    fn known_vectors() {
        for (input, expected) in rfc3720_vectors() {
            assert_eq!(crc32c(&input), expected);
            assert_eq!(unmask(masked(&[&input])), expected);
            if let Some(hw) = hardware_kernel() {
                assert_eq!(hw(0, &input), expected);
            }
        }
    }

    #[test]
    fn hardware_kernel_matches_reference_at_every_length_and_alignment() {
        let Some(hw) = hardware_kernel() else { return };
        for len in lengths() {
            // Over-allocate so that each start offset 0..8 gives the
            // kernel a differently aligned slice of the same length.
            let buf = random_bytes(len as u64, len + 8);
            for offset in 0..8 {
                let data = &buf[offset..offset + len];
                for init in [0, 0xdead_beef, u32::MAX] {
                    assert_eq!(
                        hw(init, data),
                        extend(init, data),
                        "len={len} offset={offset} init={init:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_parts_equal_reference_chaining_at_every_split() {
        for len in lengths() {
            let data = random_bytes(0x5eed ^ len as u64, len);
            let whole = mask(crc32c(&data));
            assert_eq!(masked(&[&data]), whole, "len={len}");
            // Every split point of the short buffers; an odd-strided
            // spread plus both ends of the long ones.
            let step = (len / 61) | 1;
            let splits = (0..=len).step_by(step).chain([len.saturating_sub(1), len]);
            for split in splits {
                let (a, b) = data.split_at(split);
                assert_eq!(mask(extend(crc32c(a), b)), whole);
                assert_eq!(masked(&[a, b]), whole, "len={len} split={split}");
                let (b1, b2) = b.split_at(b.len() / 3);
                assert_eq!(masked(&[a, b1, b2]), whole, "len={len} split={split}");
            }
        }
        assert_eq!(masked(&[]), mask(0));
        assert_eq!(masked(&[&[], &[]]), mask(0));
    }

    #[test]
    fn extend_equals_one_shot() {
        let data = b"hello world, this is a checksum test vector of odd length!";
        for split in 0..data.len() {
            let a = crc32c(data);
            let b = extend(crc32c(&data[..split]), &data[split..]);
            assert_eq!(a, b, "split={split}");
        }
    }

    #[test]
    fn mask_round_trip() {
        for crc in [0u32, 1, 0xdead_beef, u32::MAX, crc32c(b"foo")] {
            assert_eq!(unmask(mask(crc)), crc);
            // Masking must change the value (that is its whole point).
            assert_ne!(mask(crc), crc);
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32c(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32c(&copy), base, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(&[]), 0);
        assert_eq!(extend(1234, &[]), 1234);
    }
}
