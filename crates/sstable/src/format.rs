//! On-disk format constants, block handles, the footer, and build options.

use acheron_types::codec::{get_varint64, put_varint64};
use acheron_types::{Error, Result};

/// Magic number at the end of every Acheron table
/// (`b"ACHERON1"` interpreted little-endian).
pub const TABLE_MAGIC: u64 = u64::from_le_bytes(*b"ACHERON1");

/// Current format version, stored in the footer. Version 2 appended
/// sort-key range tombstones to the stats block; version 3 added the
/// value-pointer entry kind and per-segment vlog references to the
/// stats block; version 4 gives an unwoven table a whole-table key
/// filter, as its whole filter block, in place of its per-page filters.
pub const FORMAT_VERSION: u32 = 4;

/// Oldest format version this build still reads. Version-2 tables
/// (pre-value-separation) remain readable; new tables are always
/// written at [`FORMAT_VERSION`].
pub const MIN_FORMAT_VERSION: u32 = 2;

/// Fixed footer size: three 16-byte handle slots + version (4) + magic (8).
pub const FOOTER_SIZE: usize = 3 * 16 + 4 + 8;

/// Per-block trailer: compression type byte (always 0 for now) + CRC32C.
pub const BLOCK_TRAILER_SIZE: usize = 5;

/// Location of a block within the table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockHandle {
    /// Byte offset of the block's first byte.
    pub offset: u64,
    /// Length of the block contents, *excluding* the trailer.
    pub size: u64,
}

impl BlockHandle {
    /// Append the varint encoding.
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.offset);
        put_varint64(dst, self.size);
    }

    /// Encode into a fixed 16-byte slot (zero-padded), for the footer.
    pub fn encode_fixed(&self) -> [u8; 16] {
        let mut slot = [0u8; 16];
        slot[..8].copy_from_slice(&self.offset.to_le_bytes());
        slot[8..].copy_from_slice(&self.size.to_le_bytes());
        slot
    }

    /// Decode the varint encoding from the front of `src`.
    pub fn decode_from(src: &[u8]) -> Option<(BlockHandle, &[u8])> {
        let (offset, rest) = get_varint64(src)?;
        let (size, rest) = get_varint64(rest)?;
        Some((BlockHandle { offset, size }, rest))
    }

    /// Decode a fixed 16-byte slot.
    pub fn decode_fixed(slot: &[u8]) -> Option<BlockHandle> {
        if slot.len() != 16 {
            return None;
        }
        Some(BlockHandle {
            offset: u64::from_le_bytes(slot[..8].try_into().unwrap()),
            size: u64::from_le_bytes(slot[8..].try_into().unwrap()),
        })
    }
}

/// The fixed-size footer at the end of a table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Handle of the filter block (all page Bloom filters).
    pub filter: BlockHandle,
    /// Handle of the tile-meta block (tile fences + page descriptors).
    pub tile_meta: BlockHandle,
    /// Handle of the stats block (table-wide properties).
    pub stats: BlockHandle,
    /// Format version.
    pub version: u32,
}

impl Footer {
    /// Encode to exactly [`FOOTER_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FOOTER_SIZE);
        out.extend_from_slice(&self.filter.encode_fixed());
        out.extend_from_slice(&self.tile_meta.encode_fixed());
        out.extend_from_slice(&self.stats.encode_fixed());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        debug_assert_eq!(out.len(), FOOTER_SIZE);
        out
    }

    /// Decode and validate a footer slice.
    pub fn decode(src: &[u8]) -> Result<Footer> {
        if src.len() != FOOTER_SIZE {
            return Err(Error::corruption(format!(
                "footer must be {FOOTER_SIZE} bytes, got {}",
                src.len()
            )));
        }
        let magic = u64::from_le_bytes(src[FOOTER_SIZE - 8..].try_into().unwrap());
        if magic != TABLE_MAGIC {
            return Err(Error::corruption(format!(
                "bad table magic {magic:#018x} (not an Acheron table?)"
            )));
        }
        let version = u32::from_le_bytes(src[48..52].try_into().unwrap());
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(Error::corruption(format!(
                "unsupported table format version {version}"
            )));
        }
        Ok(Footer {
            filter: BlockHandle::decode_fixed(&src[..16]).expect("fixed slot"),
            tile_meta: BlockHandle::decode_fixed(&src[16..32]).expect("fixed slot"),
            stats: BlockHandle::decode_fixed(&src[32..48]).expect("fixed slot"),
            version,
        })
    }
}

/// Knobs controlling table construction.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Target uncompressed page (data block) size in bytes.
    pub page_size: usize,
    /// Pages per delete tile (`h`). `1` = classic layout; larger values
    /// trade sort-key read locality for secondary-delete granularity.
    pub pages_per_tile: usize,
    /// Bloom filter bits per key (0 disables filters).
    pub bloom_bits_per_key: usize,
    /// Restart-point interval inside pages.
    pub restart_interval: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            page_size: 4096,
            pages_per_tile: 1,
            bloom_bits_per_key: 10,
            restart_interval: 16,
        }
    }
}

impl TableOptions {
    /// Validate the option combination.
    pub fn validate(&self) -> Result<()> {
        if self.page_size < 64 {
            return Err(Error::invalid_argument("page_size must be >= 64 bytes"));
        }
        if self.pages_per_tile == 0 {
            return Err(Error::invalid_argument("pages_per_tile must be >= 1"));
        }
        if self.restart_interval == 0 {
            return Err(Error::invalid_argument("restart_interval must be >= 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_varint_round_trip() {
        for h in [
            BlockHandle { offset: 0, size: 0 },
            BlockHandle {
                offset: 1,
                size: 4096,
            },
            BlockHandle {
                offset: u64::MAX,
                size: u64::MAX,
            },
        ] {
            let mut buf = Vec::new();
            h.encode_to(&mut buf);
            let (decoded, rest) = BlockHandle::decode_from(&buf).unwrap();
            assert_eq!(decoded, h);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn handle_fixed_round_trip() {
        let h = BlockHandle {
            offset: 123_456,
            size: 789,
        };
        assert_eq!(BlockHandle::decode_fixed(&h.encode_fixed()), Some(h));
        assert_eq!(BlockHandle::decode_fixed(&[0u8; 15]), None);
    }

    #[test]
    fn footer_round_trip() {
        let f = Footer {
            filter: BlockHandle {
                offset: 10,
                size: 20,
            },
            tile_meta: BlockHandle {
                offset: 30,
                size: 40,
            },
            stats: BlockHandle {
                offset: 70,
                size: 5,
            },
            version: FORMAT_VERSION,
        };
        let enc = f.encode();
        assert_eq!(enc.len(), FOOTER_SIZE);
        assert_eq!(Footer::decode(&enc).unwrap(), f);
    }

    #[test]
    fn footer_rejects_bad_magic() {
        let f = Footer {
            filter: BlockHandle::default(),
            tile_meta: BlockHandle::default(),
            stats: BlockHandle::default(),
            version: FORMAT_VERSION,
        };
        let mut enc = f.encode();
        let n = enc.len();
        enc[n - 1] ^= 0xff;
        let err = Footer::decode(&enc).unwrap_err();
        assert!(err.is_corruption());
    }

    #[test]
    fn footer_rejects_bad_version() {
        let f = Footer {
            filter: BlockHandle::default(),
            tile_meta: BlockHandle::default(),
            stats: BlockHandle::default(),
            version: FORMAT_VERSION,
        };
        let mut enc = f.encode();
        enc[48] = 99;
        assert!(Footer::decode(&enc).is_err());
        // Versions below the compatibility floor are refused too.
        enc[48] = MIN_FORMAT_VERSION as u8 - 1;
        assert!(Footer::decode(&enc).is_err());
    }

    #[test]
    fn footer_accepts_previous_version() {
        // Version-2 tables (written before value separation) must still
        // open.
        let f = Footer {
            filter: BlockHandle::default(),
            tile_meta: BlockHandle::default(),
            stats: BlockHandle::default(),
            version: MIN_FORMAT_VERSION,
        };
        let decoded = Footer::decode(&f.encode()).unwrap();
        assert_eq!(decoded.version, MIN_FORMAT_VERSION);
    }

    #[test]
    fn footer_rejects_wrong_length() {
        assert!(Footer::decode(&[0u8; FOOTER_SIZE - 1]).is_err());
        assert!(Footer::decode(&[0u8; FOOTER_SIZE + 1]).is_err());
    }

    #[test]
    fn options_validation() {
        assert!(TableOptions::default().validate().is_ok());
        assert!(TableOptions {
            page_size: 10,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TableOptions {
            pages_per_tile: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TableOptions {
            restart_interval: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
