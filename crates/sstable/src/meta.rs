//! Table metadata: per-page descriptors, tile fences, and table-wide
//! statistics (the tombstone bookkeeping FADE consumes).

use acheron_types::codec::{
    put_length_prefixed, put_varint64, require_length_prefixed, require_varint64,
};
use std::cmp::Ordering;

use acheron_types::key::compare_internal;
use acheron_types::{Error, FlatKeys, KeyRangeTombstone, Result, SeqNo, Tick};
use bytes::Bytes;

use crate::format::{BlockHandle, FORMAT_VERSION};

/// Descriptor of one page (data block) inside a tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMeta {
    /// Where the page's data block lives.
    pub handle: BlockHandle,
    /// Smallest secondary delete key in the page.
    pub dkey_min: u64,
    /// Largest secondary delete key in the page.
    pub dkey_max: u64,
    /// Largest sequence number in the page (for range-tombstone
    /// dominance tests).
    pub max_seqno: SeqNo,
    /// Number of entries.
    pub entry_count: u64,
    /// Number of point tombstones in the page.
    pub tombstone_count: u64,
    /// This page's Bloom filter: byte range inside the filter block.
    pub filter_offset: u64,
    /// Length of the Bloom filter bytes (0 = no filter).
    pub filter_len: u64,
}

/// Descriptor of one delete tile: a fence key plus its pages, which are
/// ordered by `dkey_min` (the key-weaving order). The writer's form; a
/// reader holds the same data as a [`TileIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileMeta {
    /// The largest internal key in the tile (the fence pointer).
    pub last_ikey: Bytes,
    /// The tile's pages in delete-key order.
    pub pages: Vec<PageMeta>,
    /// True if any user key in the tile has more than one version.
    /// Single-version tiles permit *page-level* range-tombstone drops;
    /// multi-version tiles only permit tile-atomic drops (dropping one
    /// page could remove a key's newest version while an older one
    /// survives in a sibling page).
    pub multi_version: bool,
}

/// Encode the tile-meta block.
pub fn encode_tiles(tiles: &[TileMeta]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * tiles.len());
    put_varint64(&mut out, tiles.len() as u64);
    for tile in tiles {
        put_length_prefixed(&mut out, &tile.last_ikey);
        out.push(u8::from(tile.multi_version));
        put_varint64(&mut out, tile.pages.len() as u64);
        for p in &tile.pages {
            p.handle.encode_to(&mut out);
            put_varint64(&mut out, p.dkey_min);
            put_varint64(&mut out, p.dkey_max);
            put_varint64(&mut out, p.max_seqno);
            put_varint64(&mut out, p.entry_count);
            put_varint64(&mut out, p.tombstone_count);
            put_varint64(&mut out, p.filter_offset);
            put_varint64(&mut out, p.filter_len);
        }
    }
    out
}

/// One tile of a [`TileIndex`], borrowed from its flat arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile<'a> {
    /// The largest internal key in the tile (the fence pointer).
    pub fence: &'a [u8],
    /// The tile's pages in delete-key order.
    pub pages: &'a [PageMeta],
    /// True if any user key in the tile has more than one version (see
    /// [`TileMeta::multi_version`]).
    pub multi_version: bool,
}

/// Where one tile's pages end in [`TileIndex::pages`], and its flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileSlot {
    pages_end: u32,
    multi_version: bool,
}

/// A table's decoded tile-meta block in flat arrays: every fence key
/// back to back, every page descriptor of the table in one vector, and
/// per tile only where its pages end and its multi-version flag. A fence
/// search touches two contiguous arrays; the table's metadata is four
/// heap blocks whatever its tile count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TileIndex {
    fences: FlatKeys,
    slots: Vec<TileSlot>,
    pages: Vec<PageMeta>,
}

impl TileIndex {
    /// Decode the tile-meta block.
    ///
    /// The arrays are reserved once from the block itself and trimmed at
    /// the end, so an open's allocations do not grow with its tile
    /// count: the block holds the tile count, and no more fence bytes
    /// than its own length. The page array starts at one page per tile
    /// and grows only for a woven table.
    pub fn decode(mut src: &[u8]) -> Result<TileIndex> {
        if u32::try_from(src.len()).is_err() {
            return Err(Error::corruption("tile meta: block exceeds 4 GiB"));
        }
        let (n_tiles, rest) = require_varint64(src, "tile meta: tile count")?;
        src = rest;
        // A tile takes at least twelve bytes (fence length, flag, page
        // count, one page's nine varints): a corrupt count reserves no
        // more than the block could hold.
        let tiles = usize::try_from(n_tiles).map_or(0, |n| n.min(src.len() / 12));
        let mut index = TileIndex {
            fences: FlatKeys::with_capacity(tiles, src.len()),
            slots: Vec::with_capacity(tiles),
            pages: Vec::with_capacity(tiles),
        };
        for t in 0..n_tiles {
            let (fence, rest) = require_length_prefixed(src, "tile meta: fence key")?;
            src = rest;
            let (&mv_byte, rest) = src
                .split_first()
                .ok_or_else(|| Error::corruption("tile meta: truncated multi-version flag"))?;
            src = rest;
            let multi_version = match mv_byte {
                0 => false,
                1 => true,
                other => {
                    return Err(Error::corruption(format!(
                        "tile meta: bad multi-version flag {other}"
                    )))
                }
            };
            let (n_pages, rest) = require_varint64(src, "tile meta: page count")?;
            src = rest;
            if n_pages == 0 {
                return Err(Error::corruption(format!("tile {t} has zero pages")));
            }
            for _ in 0..n_pages {
                let (handle, rest) = BlockHandle::decode_from(src)
                    .ok_or_else(|| Error::corruption("tile meta: bad page handle"))?;
                src = rest;
                let mut fields = [0u64; 7];
                for f in fields.iter_mut() {
                    let (v, rest) = require_varint64(src, "tile meta: page field")?;
                    *f = v;
                    src = rest;
                }
                index.pages.push(PageMeta {
                    handle,
                    dkey_min: fields[0],
                    dkey_max: fields[1],
                    max_seqno: fields[2],
                    entry_count: fields[3],
                    tombstone_count: fields[4],
                    filter_offset: fields[5],
                    filter_len: fields[6],
                });
            }
            index.fences.push(fence);
            index.slots.push(TileSlot {
                // Below 2^32: every page took bytes of a block that is.
                pages_end: index.pages.len() as u32,
                multi_version,
            });
        }
        if !src.is_empty() {
            return Err(Error::corruption("tile meta: trailing bytes"));
        }
        index.fences.shrink_to_fit();
        index.pages.shrink_to_fit();
        Ok(index)
    }

    /// Number of tiles.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the table has no tile.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Tile `i`.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    pub fn tile(&self, i: usize) -> Tile<'_> {
        let from = if i == 0 {
            0
        } else {
            self.slots[i - 1].pages_end as usize
        };
        let slot = self.slots[i];
        Tile {
            fence: self.fences.get(i),
            pages: &self.pages[from..slot.pages_end as usize],
            multi_version: slot.multi_version,
        }
    }

    /// Every tile, in fence order.
    pub fn iter(&self) -> impl Iterator<Item = Tile<'_>> + '_ {
        (0..self.len()).map(|i| self.tile(i))
    }

    /// Every page of the table, tile by tile.
    pub fn pages(&self) -> &[PageMeta] {
        &self.pages
    }

    /// Index of the first tile whose fence is `>= target` (an internal
    /// key), or `None` if the target is past the last tile.
    pub fn find(&self, target: &[u8]) -> Option<usize> {
        let idx = self
            .fences
            .partition_point(|fence| compare_internal(fence, target) == Ordering::Less);
        (idx < self.len()).then_some(idx)
    }

    /// Heap bytes the index holds.
    pub fn heap_bytes(&self) -> usize {
        self.fences.heap_bytes()
            + self.slots.capacity() * std::mem::size_of::<TileSlot>()
            + self.pages.capacity() * std::mem::size_of::<PageMeta>()
    }
}

/// Per-segment summary of the value-log pointers a table holds — the
/// Lethe-style per-file delete metadata applied to the vlog: enough to
/// rebuild live-byte accounting per segment at recovery (sum the refs
/// of every live table) without scanning any data block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlogRef {
    /// The referenced value-log segment.
    pub segment: u64,
    /// Total framed bytes this table's pointers cover in the segment.
    pub bytes: u64,
    /// Largest frame end offset referenced (bounds check seed for
    /// doctor's dangling-pointer scan).
    pub max_end: u64,
}

/// Table-wide statistics, persisted in the stats block and mirrored into
/// the engine's manifest. These are the O(1)-per-file metadata
/// Acheron/Lethe attach to make compaction delete-aware.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Total entries (puts + tombstones).
    pub entry_count: u64,
    /// Point tombstones in the table.
    pub tombstone_count: u64,
    /// Tick of the oldest tombstone (None if tombstone-free).
    pub oldest_tombstone_tick: Option<Tick>,
    /// Delete-key fence across all entries.
    pub min_dkey: u64,
    /// Delete-key fence across all entries.
    pub max_dkey: u64,
    /// Sum of key+value payload bytes.
    pub user_bytes: u64,
    /// The `h` the table was built with.
    pub pages_per_tile: u64,
    /// Largest seqno in the table.
    pub max_seqno: SeqNo,
    /// Smallest seqno in the table (u64::MAX for an empty table); used
    /// to decide when a range tombstone can be retired.
    pub min_seqno: SeqNo,
    /// Smallest user key.
    pub min_user_key: Bytes,
    /// Largest user key.
    pub max_user_key: Bytes,
    /// Number of pages.
    pub page_count: u64,
    /// Number of tiles.
    pub tile_count: u64,
    /// Sort-key range tombstones an older engine stored with this table
    /// (tables now write none: the tombstones live in the manifest). The
    /// first open of such an image lifts them into its manifest.
    pub range_tombstones: Vec<KeyRangeTombstone>,
    /// Value-log segments referenced by this table's value pointers,
    /// sorted by segment id. Format v3+; always empty when decoding a
    /// v2 table.
    pub vlog_refs: Vec<VlogRef>,
}

impl TableStats {
    /// Tombstones as a fraction of entries (0 for an empty table).
    pub fn tombstone_density(&self) -> f64 {
        if self.entry_count == 0 {
            0.0
        } else {
            self.tombstone_count as f64 / self.entry_count as f64
        }
    }

    /// Serialize the stats block.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_varint64(&mut out, self.entry_count);
        put_varint64(&mut out, self.tombstone_count);
        match self.oldest_tombstone_tick {
            Some(t) => {
                out.push(1);
                put_varint64(&mut out, t);
            }
            None => out.push(0),
        }
        put_varint64(&mut out, self.min_dkey);
        put_varint64(&mut out, self.max_dkey);
        put_varint64(&mut out, self.user_bytes);
        put_varint64(&mut out, self.pages_per_tile);
        put_varint64(&mut out, self.max_seqno);
        put_varint64(&mut out, self.min_seqno);
        put_length_prefixed(&mut out, &self.min_user_key);
        put_length_prefixed(&mut out, &self.max_user_key);
        put_varint64(&mut out, self.page_count);
        put_varint64(&mut out, self.tile_count);
        put_varint64(&mut out, self.range_tombstones.len() as u64);
        for krt in &self.range_tombstones {
            krt.encode(&mut out);
        }
        put_varint64(&mut out, self.vlog_refs.len() as u64);
        for r in &self.vlog_refs {
            put_varint64(&mut out, r.segment);
            put_varint64(&mut out, r.bytes);
            put_varint64(&mut out, r.max_end);
        }
        out
    }

    /// Deserialize a stats block written at the current format version.
    pub fn decode(src: &[u8]) -> Result<TableStats> {
        Self::decode_versioned(src, FORMAT_VERSION)
    }

    /// Deserialize a stats block written at table format `version`.
    /// Version 2 blocks end at the range-tombstone section; version 3
    /// blocks must carry the vlog-ref section (possibly with zero refs).
    pub fn decode_versioned(mut src: &[u8], version: u32) -> Result<TableStats> {
        let mut next = |what: &str| -> Result<u64> {
            let (v, rest) = require_varint64(src, what)?;
            src = rest;
            Ok(v)
        };
        let entry_count = next("stats: entry count")?;
        let tombstone_count = next("stats: tombstone count")?;
        let (&flag, rest) = src
            .split_first()
            .ok_or_else(|| Error::corruption("stats: truncated tombstone-tick flag"))?;
        src = rest;
        let oldest_tombstone_tick = match flag {
            0 => None,
            1 => {
                let (v, rest) = require_varint64(src, "stats: oldest tombstone tick")?;
                src = rest;
                Some(v)
            }
            other => {
                return Err(Error::corruption(format!("stats: bad flag byte {other}")));
            }
        };
        let mut next = |what: &str| -> Result<u64> {
            let (v, rest) = require_varint64(src, what)?;
            src = rest;
            Ok(v)
        };
        let min_dkey = next("stats: min dkey")?;
        let max_dkey = next("stats: max dkey")?;
        let user_bytes = next("stats: user bytes")?;
        let pages_per_tile = next("stats: pages per tile")?;
        let max_seqno = next("stats: max seqno")?;
        let min_seqno = next("stats: min seqno")?;
        let (min_user_key, rest) = require_length_prefixed(src, "stats: min user key")?;
        let (max_user_key, rest) = require_length_prefixed(rest, "stats: max user key")?;
        src = rest;
        let mut next = |what: &str| -> Result<u64> {
            let (v, rest) = require_varint64(src, what)?;
            src = rest;
            Ok(v)
        };
        let page_count = next("stats: page count")?;
        let tile_count = next("stats: tile count")?;
        let krt_count = next("stats: range tombstone count")?;
        let mut range_tombstones = Vec::with_capacity(krt_count.min(1 << 16) as usize);
        for _ in 0..krt_count {
            let (krt, rest) = KeyRangeTombstone::decode(src, "stats: range tombstone")?;
            src = rest;
            range_tombstones.push(krt);
        }
        let mut vlog_refs = Vec::new();
        if version >= 3 {
            let mut next = |what: &str| -> Result<u64> {
                let (v, rest) = require_varint64(src, what)?;
                src = rest;
                Ok(v)
            };
            let ref_count = next("stats: vlog ref count")?;
            vlog_refs.reserve(ref_count.min(1 << 16) as usize);
            for _ in 0..ref_count {
                let segment = next("stats: vlog ref segment")?;
                let bytes = next("stats: vlog ref bytes")?;
                let max_end = next("stats: vlog ref max end")?;
                vlog_refs.push(VlogRef {
                    segment,
                    bytes,
                    max_end,
                });
            }
        }
        if !src.is_empty() {
            return Err(Error::corruption("stats: trailing bytes"));
        }
        Ok(TableStats {
            entry_count,
            tombstone_count,
            oldest_tombstone_tick,
            min_dkey,
            max_dkey,
            user_bytes,
            pages_per_tile,
            max_seqno,
            min_seqno,
            min_user_key: Bytes::copy_from_slice(min_user_key),
            max_user_key: Bytes::copy_from_slice(max_user_key),
            page_count,
            tile_count,
            range_tombstones,
            vlog_refs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tiles() -> Vec<TileMeta> {
        vec![
            TileMeta {
                last_ikey: Bytes::from_static(b"fence-one\0\0\0\0\0\0\0\0"),
                multi_version: true,
                pages: vec![
                    PageMeta {
                        handle: BlockHandle {
                            offset: 0,
                            size: 4000,
                        },
                        dkey_min: 5,
                        dkey_max: 40,
                        max_seqno: 99,
                        entry_count: 120,
                        tombstone_count: 3,
                        filter_offset: 0,
                        filter_len: 150,
                    },
                    PageMeta {
                        handle: BlockHandle {
                            offset: 4005,
                            size: 3990,
                        },
                        dkey_min: 41,
                        dkey_max: 90,
                        max_seqno: 104,
                        entry_count: 118,
                        tombstone_count: 0,
                        filter_offset: 150,
                        filter_len: 149,
                    },
                ],
            },
            TileMeta {
                last_ikey: Bytes::from_static(b"fence-two\0\0\0\0\0\0\0\0"),
                multi_version: false,
                pages: vec![PageMeta {
                    handle: BlockHandle {
                        offset: 8000,
                        size: 1234,
                    },
                    dkey_min: 0,
                    dkey_max: u64::MAX,
                    max_seqno: 77,
                    entry_count: 10,
                    tombstone_count: 10,
                    filter_offset: 299,
                    filter_len: 20,
                }],
            },
        ]
    }

    /// The index's tiles in the writer's form.
    fn tile_metas(index: &TileIndex) -> Vec<TileMeta> {
        index
            .iter()
            .map(|t| TileMeta {
                last_ikey: Bytes::copy_from_slice(t.fence),
                pages: t.pages.to_vec(),
                multi_version: t.multi_version,
            })
            .collect()
    }

    #[test]
    fn tiles_round_trip() {
        let tiles = sample_tiles();
        let index = TileIndex::decode(&encode_tiles(&tiles)).unwrap();
        assert_eq!(tile_metas(&index), tiles);
        assert_eq!(index.pages().len(), 3);
    }

    #[test]
    fn empty_tile_list_round_trips() {
        let index = TileIndex::decode(&encode_tiles(&[])).unwrap();
        assert!(index.is_empty());
        assert_eq!(index.find(b"any\0\0\0\0\0\0\0\0"), None);
    }

    #[test]
    fn tiles_reject_truncation() {
        let enc = encode_tiles(&sample_tiles());
        for cut in 0..enc.len() {
            assert!(TileIndex::decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn tiles_reject_trailing_bytes() {
        let mut enc = encode_tiles(&sample_tiles());
        enc.push(0);
        assert!(TileIndex::decode(&enc).is_err());
    }

    #[test]
    fn the_index_is_allocated_at_its_final_size() {
        let index = TileIndex::decode(&encode_tiles(&sample_tiles())).unwrap();
        let fences = b"fence-one".len() + b"fence-two".len() + 2 * 8;
        assert_eq!(
            index.heap_bytes(),
            fences
                + 2 * std::mem::size_of::<u32>()
                + 2 * std::mem::size_of::<TileSlot>()
                + 3 * std::mem::size_of::<PageMeta>()
        );
    }

    fn sample_stats() -> TableStats {
        TableStats {
            entry_count: 1000,
            tombstone_count: 50,
            oldest_tombstone_tick: Some(12345),
            min_dkey: 3,
            max_dkey: 900,
            user_bytes: 64_000,
            pages_per_tile: 4,
            max_seqno: 777,
            min_seqno: 12,
            min_user_key: Bytes::from_static(b"aaa"),
            max_user_key: Bytes::from_static(b"zzz"),
            page_count: 16,
            tile_count: 4,
            range_tombstones: vec![
                KeyRangeTombstone {
                    start: Bytes::from_static(b"ccc"),
                    end: Bytes::from_static(b"mmm"),
                    seqno: 600,
                    dkey: 11_000,
                },
                KeyRangeTombstone {
                    start: Bytes::from_static(b"ppp"),
                    end: Bytes::from_static(b"qqq"),
                    seqno: 650,
                    dkey: 12_500,
                },
            ],
            vlog_refs: vec![
                VlogRef {
                    segment: 1,
                    bytes: 9000,
                    max_end: 32_768,
                },
                VlogRef {
                    segment: 4,
                    bytes: 512,
                    max_end: 4096,
                },
            ],
        }
    }

    #[test]
    fn stats_round_trip() {
        let s = sample_stats();
        assert_eq!(TableStats::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn stats_without_tombstones_round_trip() {
        let s = TableStats {
            oldest_tombstone_tick: None,
            tombstone_count: 0,
            ..sample_stats()
        };
        assert_eq!(TableStats::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn stats_reject_truncation_and_trailing() {
        let enc = sample_stats().encode();
        for cut in 0..enc.len() {
            assert!(TableStats::decode(&enc[..cut]).is_err(), "cut={cut}");
        }
        let mut padded = enc;
        padded.push(7);
        assert!(TableStats::decode(&padded).is_err());
    }

    #[test]
    fn stats_without_vlog_refs_round_trip() {
        let s = TableStats {
            vlog_refs: Vec::new(),
            ..sample_stats()
        };
        assert_eq!(TableStats::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn stats_v2_block_decodes_without_refs_section() {
        // A version-2 block is exactly the v3 encoding minus the vlog-ref
        // section; with zero refs that section is a single 0x00 count.
        let expect = TableStats {
            vlog_refs: Vec::new(),
            ..sample_stats()
        };
        let enc = expect.encode();
        let v2 = &enc[..enc.len() - 1];
        assert_eq!(TableStats::decode_versioned(v2, 2).unwrap(), expect);
        // The same bytes are a truncated v3 block...
        assert!(TableStats::decode_versioned(v2, 3).is_err());
        // ...and a v3 block read as v2 has trailing bytes.
        assert!(TableStats::decode_versioned(&enc, 2).is_err());
    }

    #[test]
    fn stats_v2_rejects_truncation_and_trailing() {
        let base = TableStats {
            vlog_refs: Vec::new(),
            ..sample_stats()
        };
        let enc = base.encode();
        let v2 = &enc[..enc.len() - 1];
        for cut in 0..v2.len() {
            assert!(
                TableStats::decode_versioned(&v2[..cut], 2).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn tombstone_density() {
        let s = sample_stats();
        assert!((s.tombstone_density() - 0.05).abs() < 1e-9);
        assert_eq!(TableStats::default().tombstone_density(), 0.0);
    }

    #[test]
    fn stats_without_range_tombstones_round_trip() {
        let s = TableStats {
            range_tombstones: Vec::new(),
            ..sample_stats()
        };
        assert_eq!(TableStats::decode(&s.encode()).unwrap(), s);
    }
}
