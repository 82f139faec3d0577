//! Table builder: buffers a tile's worth of sorted entries, *weaves*
//! them (re-orders the tile's pages by delete key), and streams pages to
//! the file.
//!
//! Input contract: entries arrive in strictly increasing internal-key
//! order (the order every flush/compaction source produces). The builder
//! cuts the stream into tiles of ~`pages_per_tile * page_size` bytes;
//! within a tile it sorts entries by delete key, packs them into pages,
//! and restores sort-key order *inside* each page. With
//! `pages_per_tile == 1` the weave is the identity and the output is a
//! classic SSTable.
//!
//! A table has one kind of key filter. A woven table
//! (`pages_per_tile > 1`) has one per page, which a lookup uses to pick
//! pages inside a tile; an unwoven table, whose tiles are single pages,
//! has one whole-table filter over its distinct user keys instead,
//! built at finish as its whole filter block.

use std::collections::BTreeMap;

use acheron_types::checksum;
use acheron_types::key::{compare_internal, InternalKeyRef, TAG_LEN};
use acheron_types::seq::pack_tag;
use acheron_types::{Entry, Error, Result, ValueKind, ValuePointer};
use acheron_vfs::WritableFile;
use bytes::Bytes;

use std::sync::Arc;

use crate::block::{Block, BlockBuilder};
use crate::bloom::{BloomFilter, KeyHash};
use crate::cache::{BlockCache, CacheLease};
use crate::format::{BlockHandle, Footer, TableOptions, FORMAT_VERSION};
use crate::meta::{encode_tiles, PageMeta, TableStats, TileMeta, VlogRef};

/// One buffered entry of the open tile. Its encoded internal key lives
/// in [`TableBuilder::tile_keys`]; the value is a handle on the caller's
/// bytes, copied once when its page is serialized.
struct PendingEntry {
    key_start: u32,
    key_end: u32,
    dkey: u64,
    value: Bytes,
    is_tombstone: bool,
}

impl PendingEntry {
    fn payload_size(&self) -> usize {
        (self.key_end - self.key_start) as usize + self.value.len() + 16
    }
}

/// Streams sorted entries into an Acheron table file.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    opts: TableOptions,
    /// The open tile's entries, in arrival (= internal-key) order.
    tile_buffer: Vec<PendingEntry>,
    /// The open tile's encoded internal keys, back to back.
    tile_keys: Vec<u8>,
    tile_buffer_bytes: usize,
    /// Whether some user key has two versions in the open tile.
    tile_multi_version: bool,
    /// Weave scratch: indices into `tile_buffer` in page order.
    order: Vec<u32>,
    /// Page serializer, reset and reused for every page.
    block: BlockBuilder,
    tiles: Vec<TileMeta>,
    filter_buf: Vec<u8>,
    /// One filter hash per distinct user key, for the table filter of
    /// an unwoven table (empty otherwise, or when filters are off).
    key_hashes: Vec<KeyHash>,
    stats: TableStats,
    /// Per-segment (bytes, max frame end) accumulated from value
    /// pointers; folded into `stats.vlog_refs` at finish.
    vlog_refs: BTreeMap<u64, (u64, u64)>,
    /// Scratch for [`TableBuilder::add`]'s encoding of an entry's key.
    entry_key: Vec<u8>,
    offset: u64,
    finished: bool,
    /// Write-through target: each finished data page is also inserted
    /// here, so the table is resident the moment it is installed.
    lease: Option<CacheLease>,
}

impl TableBuilder {
    /// Start building into `file` with the given options.
    pub fn new(file: Box<dyn WritableFile>, opts: TableOptions) -> Result<TableBuilder> {
        Self::with_cache(file, opts, None)
    }

    /// Like [`TableBuilder::new`], writing data pages through to `cache`:
    /// one copy of the bytes just encoded, no re-read, no CRC. Finish
    /// with [`TableBuilder::finish_leased`] and open the table under the
    /// lease it returns; a builder dropped before that takes its pages
    /// out of the cache with it.
    pub fn with_cache(
        file: Box<dyn WritableFile>,
        opts: TableOptions,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<TableBuilder> {
        opts.validate()?;
        let stats = TableStats {
            min_dkey: u64::MAX,
            max_dkey: 0,
            min_seqno: u64::MAX,
            pages_per_tile: opts.pages_per_tile as u64,
            ..TableStats::default()
        };
        Ok(TableBuilder {
            file,
            block: BlockBuilder::new(opts.restart_interval),
            opts,
            tile_buffer: Vec::new(),
            tile_keys: Vec::new(),
            tile_buffer_bytes: 0,
            tile_multi_version: false,
            order: Vec::new(),
            tiles: Vec::new(),
            filter_buf: Vec::new(),
            key_hashes: Vec::new(),
            stats,
            vlog_refs: BTreeMap::new(),
            entry_key: Vec::new(),
            offset: 0,
            finished: false,
            lease: cache.map(CacheLease::new),
        })
    }

    /// Append an entry. Must be called in strictly increasing
    /// internal-key order. A wrapper over [`TableBuilder::add_encoded`]
    /// for callers holding owned entries (flushes, tests).
    pub fn add(&mut self, entry: &Entry) -> Result<()> {
        let mut ikey = std::mem::take(&mut self.entry_key);
        ikey.clear();
        ikey.extend_from_slice(&entry.key);
        ikey.extend_from_slice(&pack_tag(entry.seqno, entry.kind as u8).to_le_bytes());
        let added = self.add_encoded(&ikey, entry.dkey, entry.value.clone());
        self.entry_key = ikey;
        added
    }

    /// Append an entry given as its encoded internal key, delete key and
    /// value: the form a compaction holds it in, borrowed from its input
    /// page, so nothing is decoded into an owned entry first. Must be
    /// called in strictly increasing internal-key order.
    pub fn add_encoded(&mut self, ikey: &[u8], dkey: u64, value: Bytes) -> Result<()> {
        debug_assert!(!self.finished);
        let key = InternalKeyRef::decode(ikey)
            .ok_or_else(|| Error::invalid_argument("internal key shorter than its tag"))?;
        let kind = ValueKind::from_u8(key.kind_byte()).ok_or_else(|| {
            Error::invalid_argument(format!("bad kind byte {:#x}", key.kind_byte()))
        })?;
        let last = self.last_key();
        if let Some(last) = last {
            if compare_internal(last.encoded(), ikey) != std::cmp::Ordering::Less {
                return Err(Error::invalid_argument(format!(
                    "table entries out of order: {last:?} then {key:?}"
                )));
            }
        }
        let user_key_boundary = last.is_none_or(|last| last.user_key() != key.user_key());

        // Table-wide stats.
        if self.stats.entry_count == 0 {
            self.stats.min_user_key = Bytes::copy_from_slice(key.user_key());
        }
        self.stats.entry_count += 1;
        if kind.is_tombstone() {
            self.stats.tombstone_count += 1;
            self.stats.oldest_tombstone_tick = Some(match self.stats.oldest_tombstone_tick {
                Some(t) => t.min(dkey),
                None => dkey,
            });
        }
        self.stats.min_dkey = self.stats.min_dkey.min(dkey);
        self.stats.max_dkey = self.stats.max_dkey.max(dkey);
        self.stats.user_bytes += (key.user_key().len() + value.len()) as u64;
        self.stats.max_seqno = self.stats.max_seqno.max(key.seqno());
        self.stats.min_seqno = self.stats.min_seqno.min(key.seqno());
        if kind == ValueKind::ValuePointer {
            let ptr = ValuePointer::decode(&value).ok_or_else(|| {
                Error::invalid_argument(format!(
                    "value-pointer entry {key:?} has a malformed {}-byte pointer",
                    value.len()
                ))
            })?;
            let slot = self.vlog_refs.entry(ptr.segment).or_insert((0, 0));
            slot.0 += u64::from(ptr.len);
            slot.1 = slot.1.max(ptr.end());
        }

        // Flush *before* the tile would exceed its budget, so a finished
        // tile never packs into more than `pages_per_tile` pages (modulo
        // single entries larger than a page). Tiles are additionally cut
        // only at user-key boundaries: a key's version chain never spans
        // tiles, which is what makes whole-tile drops sound.
        let payload_size = ikey.len() + value.len() + 16;
        let budget = self.opts.page_size * self.opts.pages_per_tile;
        if !self.tile_buffer.is_empty()
            && user_key_boundary
            && self.tile_buffer_bytes + payload_size > budget
        {
            self.flush_tile()?;
        }
        self.tile_multi_version |= !user_key_boundary;
        if user_key_boundary && self.writes_table_filter() {
            self.key_hashes.push(KeyHash::of(key.user_key()));
        }

        let key_start = self.tile_keys.len() as u32;
        self.tile_keys.extend_from_slice(ikey);
        self.tile_buffer_bytes += payload_size;
        self.tile_buffer.push(PendingEntry {
            key_start,
            key_end: self.tile_keys.len() as u32,
            dkey,
            value,
            is_tombstone: kind.is_tombstone(),
        });
        Ok(())
    }

    /// Whether the table gets a whole-table filter: filters are on and
    /// its tiles are single pages, so it has no page filters.
    fn writes_table_filter(&self) -> bool {
        self.opts.bloom_bits_per_key > 0 && self.opts.pages_per_tile == 1
    }

    /// The last key added: the open tile's last entry, or else the fence
    /// of the last tile written.
    fn last_key(&self) -> Option<InternalKeyRef<'_>> {
        let encoded = match self.tile_buffer.last() {
            Some(e) => &self.tile_keys[e.key_start as usize..e.key_end as usize],
            None => &self.tiles.last()?.last_ikey[..],
        };
        InternalKeyRef::decode(encoded)
    }

    /// The user key of the last entry added, if any.
    pub fn last_user_key(&self) -> Option<&[u8]> {
        self.last_key().map(|k| k.user_key())
    }

    /// Entries added so far.
    pub fn entry_count(&self) -> u64 {
        self.stats.entry_count
    }

    /// Bytes written to the file so far (data pages only until finish).
    pub fn file_bytes(&self) -> u64 {
        self.offset + self.tile_buffer_bytes as u64
    }

    /// Weave and write out the buffered tile.
    fn flush_tile(&mut self) -> Result<()> {
        if self.tile_buffer.is_empty() {
            return Ok(());
        }
        let (entries, keys, order) = (&self.tile_buffer, &self.tile_keys, &mut self.order);
        let ikey = |e: &PendingEntry| &keys[e.key_start as usize..e.key_end as usize];

        // The weave: order the tile's entries by delete key so each page
        // covers a contiguous dkey band. Entries arrived in internal-key
        // order, so an entry's index *is* its sort-key rank: sorting
        // `(dkey, index)` pairs gives the order a key-comparing stable
        // sort would, without touching a key. Skipped entirely for h = 1
        // (one page — the band is the whole tile).
        order.clear();
        order.extend(0..entries.len() as u32);
        if self.opts.pages_per_tile > 1 {
            order.sort_unstable_by_key(|&i| (entries[i as usize].dkey, i));
        }

        // Greedily pack dkey-ordered entries into pages of ~page_size.
        let mut page_metas = Vec::with_capacity(self.opts.pages_per_tile);
        let mut rest = &mut order[..];
        while !rest.is_empty() {
            let mut len = 0;
            let mut page_bytes = 0usize;
            for &i in rest.iter() {
                let sz = entries[i as usize].payload_size();
                if len > 0 && page_bytes + sz > self.opts.page_size {
                    break;
                }
                page_bytes += sz;
                len += 1;
            }
            let (page, tail) = rest.split_at_mut(len);
            rest = tail;
            // Restore sort-key order inside the page (ascending rank).
            if self.opts.pages_per_tile > 1 {
                page.sort_unstable();
            }

            let mut meta = PageMeta {
                handle: BlockHandle { offset: 0, size: 0 },
                dkey_min: u64::MAX,
                dkey_max: 0,
                max_seqno: 0,
                entry_count: page.len() as u64,
                tombstone_count: 0,
                filter_offset: 0,
                filter_len: 0,
            };
            self.block.reset();
            for e in page.iter().map(|&i| &entries[i as usize]) {
                let key = InternalKeyRef::decode(ikey(e)).expect("buffered key has a trailer");
                meta.dkey_min = meta.dkey_min.min(e.dkey);
                meta.dkey_max = meta.dkey_max.max(e.dkey);
                meta.max_seqno = meta.max_seqno.max(key.seqno());
                meta.tombstone_count += u64::from(e.is_tombstone);
                self.block.add(key.encoded(), e.dkey, &e.value);
            }
            let contents = self.block.finish_in_place();
            meta.handle = write_block(self.file.as_mut(), &mut self.offset, contents)?;
            if let Some(lease) = &self.lease {
                let page = Block::new(Bytes::copy_from_slice(contents))?;
                lease
                    .cache()
                    .prepopulate(lease.key(meta.handle.offset), page, contents.len());
            }

            // A woven tile's per-page Bloom filters over user keys, built
            // straight into the filter block.
            if self.opts.bloom_bits_per_key > 0 && self.opts.pages_per_tile > 1 {
                meta.filter_offset = self.filter_buf.len() as u64;
                let user_keys = page.iter().map(|&i| {
                    let key = ikey(&entries[i as usize]);
                    KeyHash::of(&key[..key.len() - TAG_LEN])
                });
                BloomFilter::build_into(
                    user_keys,
                    self.opts.bloom_bits_per_key,
                    &mut self.filter_buf,
                );
                meta.filter_len = self.filter_buf.len() as u64 - meta.filter_offset;
            }
            page_metas.push(meta);
            self.stats.page_count += 1;
        }

        self.tiles.push(TileMeta {
            // The fence is the largest internal key in the tile; entries
            // arrived sorted, so it is the last one buffered.
            last_ikey: Bytes::copy_from_slice(ikey(entries.last().expect("non-empty"))),
            pages: page_metas,
            multi_version: self.tile_multi_version,
        });
        self.stats.tile_count += 1;

        // Cleared, not dropped: the next tile reuses the allocations.
        self.tile_buffer.clear();
        self.tile_keys.clear();
        self.tile_buffer_bytes = 0;
        self.tile_multi_version = false;
        Ok(())
    }

    /// Flush the final tile, write filter/meta/stats/footer, and finish
    /// the file. Returns the table's statistics.
    pub fn finish(self) -> Result<TableStats> {
        self.finish_leased().map(|(stats, _)| stats)
    }

    /// [`TableBuilder::finish`], also handing over the lease the data
    /// pages were written through under (for
    /// [`Table::open_leased`](crate::reader::Table::open_leased)).
    pub fn finish_leased(mut self) -> Result<(TableStats, Option<CacheLease>)> {
        self.flush_tile()?;
        self.finished = true;
        if self.stats.entry_count == 0 {
            // Normalize sentinel fences for an empty table.
            self.stats.min_dkey = 0;
        }
        self.stats.vlog_refs = std::mem::take(&mut self.vlog_refs)
            .into_iter()
            .map(|(segment, (bytes, max_end))| VlogRef {
                segment,
                bytes,
                max_end,
            })
            .collect();
        if let Some(last) = self.last_user_key() {
            self.stats.max_user_key = Bytes::copy_from_slice(last);
        }
        if !self.key_hashes.is_empty() {
            // The table filter is the whole filter block: an unwoven
            // table has no page filters.
            BloomFilter::build_into(
                self.key_hashes.iter().copied(),
                self.opts.bloom_bits_per_key,
                &mut self.filter_buf,
            );
        }
        let (file, offset) = (self.file.as_mut(), &mut self.offset);
        let filter_handle = write_block(file, offset, &self.filter_buf)?;
        let tile_meta_handle = write_block(file, offset, &encode_tiles(&self.tiles))?;
        let stats_handle = write_block(file, offset, &self.stats.encode())?;
        let footer = Footer {
            filter: filter_handle,
            tile_meta: tile_meta_handle,
            stats: stats_handle,
            version: FORMAT_VERSION,
        };
        self.file.append(&footer.encode())?;
        self.file.sync()?;
        self.file.finish()?;
        Ok((self.stats, self.lease))
    }
}

/// Write raw block contents plus the `type | crc` trailer at `*offset`.
fn write_block(
    file: &mut dyn WritableFile,
    offset: &mut u64,
    contents: &[u8],
) -> Result<BlockHandle> {
    let handle = BlockHandle {
        offset: *offset,
        size: contents.len() as u64,
    };
    file.append(contents)?;
    let mut trailer = [0u8; 5];
    trailer[0] = 0; // compression: none
    let crc = checksum::masked(&[contents, &trailer[..1]]);
    trailer[1..].copy_from_slice(&crc.to_le_bytes());
    file.append(&trailer)?;
    *offset += contents.len() as u64 + trailer.len() as u64;
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acheron_vfs::{MemFs, Vfs};

    fn build_table(entries: &[Entry], opts: TableOptions) -> (MemFs, TableStats) {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, opts).unwrap();
        for e in entries {
            b.add(e).unwrap();
        }
        let stats = b.finish().unwrap();
        (fs, stats)
    }

    fn puts(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                Entry::put(
                    format!("key{i:05}").into_bytes(),
                    vec![b'v'; 20],
                    (n + i) as u64,
                    (i % 97) as u64,
                )
            })
            .collect()
    }

    #[test]
    fn stats_reflect_contents() {
        let mut entries = puts(500);
        entries[100] = Entry::tombstone(entries[100].key.clone(), entries[100].seqno, 7);
        entries[200] = Entry::tombstone(entries[200].key.clone(), entries[200].seqno, 3);
        let (_fs, stats) = build_table(&entries, TableOptions::default());
        assert_eq!(stats.entry_count, 500);
        assert_eq!(stats.tombstone_count, 2);
        assert_eq!(stats.oldest_tombstone_tick, Some(3));
        assert_eq!(&stats.min_user_key[..], b"key00000");
        assert_eq!(&stats.max_user_key[..], b"key00499");
        assert!(stats.page_count >= 2, "500 entries should span pages");
        assert_eq!(
            stats.tile_count, stats.page_count,
            "h = 1 means one page per tile"
        );
    }

    #[test]
    fn weave_produces_multi_page_tiles() {
        let opts = TableOptions {
            pages_per_tile: 4,
            page_size: 512,
            ..Default::default()
        };
        let (_fs, stats) = build_table(&puts(500), opts);
        assert!(
            stats.tile_count < stats.page_count,
            "tiles should contain multiple pages"
        );
        assert!(
            stats.page_count <= stats.tile_count * 5,
            "pages per tile should be near h: {} tiles, {} pages",
            stats.tile_count,
            stats.page_count
        );
    }

    #[test]
    fn out_of_order_input_rejected() {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, TableOptions::default()).unwrap();
        b.add(&Entry::put(&b"b"[..], &b"v"[..], 1, 0)).unwrap();
        let err = b.add(&Entry::put(&b"a"[..], &b"v"[..], 2, 0)).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)));
    }

    #[test]
    fn duplicate_internal_key_rejected() {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, TableOptions::default()).unwrap();
        let e = Entry::put(&b"a"[..], &b"v"[..], 1, 0);
        b.add(&e).unwrap();
        assert!(b.add(&e).is_err());
    }

    #[test]
    fn same_user_key_versions_in_descending_seqno_accepted() {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, TableOptions::default()).unwrap();
        b.add(&Entry::put(&b"a"[..], &b"v3"[..], 3, 0)).unwrap();
        b.add(&Entry::put(&b"a"[..], &b"v2"[..], 2, 0)).unwrap();
        b.add(&Entry::tombstone(&b"a"[..], 1, 0)).unwrap();
        let stats = b.finish().unwrap();
        assert_eq!(stats.entry_count, 3);
        assert_eq!(stats.max_seqno, 3);
        assert_eq!(stats.min_seqno, 1);
    }

    #[test]
    fn empty_table_finishes() {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let b = TableBuilder::new(file, TableOptions::default()).unwrap();
        let stats = b.finish().unwrap();
        assert_eq!(stats.entry_count, 0);
        assert_eq!(stats.tile_count, 0);
        assert!(fs.file_size("t.sst").unwrap() > 0, "footer still written");
    }

    #[test]
    fn vlog_refs_accumulate_per_segment() {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, TableOptions::default()).unwrap();
        let ptrs = [
            ValuePointer {
                segment: 1,
                offset: 0,
                len: 100,
            },
            ValuePointer {
                segment: 1,
                offset: 100,
                len: 50,
            },
            ValuePointer {
                segment: 3,
                offset: 4096,
                len: 200,
            },
        ];
        for (i, ptr) in ptrs.iter().enumerate() {
            b.add(&Entry::value_pointer(
                format!("k{i}").into_bytes(),
                *ptr,
                (i + 1) as u64,
                0,
            ))
            .unwrap();
        }
        b.add(&Entry::put(&b"zz"[..], &b"inline"[..], 9, 0))
            .unwrap();
        let stats = b.finish().unwrap();
        assert_eq!(
            stats.vlog_refs,
            vec![
                crate::meta::VlogRef {
                    segment: 1,
                    bytes: 150,
                    max_end: 150,
                },
                crate::meta::VlogRef {
                    segment: 3,
                    bytes: 200,
                    max_end: 4296,
                },
            ]
        );
        let reopened = crate::reader::Table::open(fs.open("t.sst").unwrap()).unwrap();
        assert_eq!(reopened.stats().vlog_refs, stats.vlog_refs);
    }

    #[test]
    fn malformed_value_pointer_rejected() {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, TableOptions::default()).unwrap();
        let bogus = Entry {
            key: Bytes::from_static(b"k"),
            seqno: 1,
            kind: acheron_types::ValueKind::ValuePointer,
            dkey: 0,
            value: Bytes::from_static(b"short"),
        };
        assert!(b.add(&bogus).is_err());
    }

    #[test]
    fn malformed_encoded_keys_rejected() {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, TableOptions::default()).unwrap();
        let v = Bytes::from_static(b"v");
        assert!(b.add_encoded(b"short", 0, v.clone()).is_err());
        let mut ikey = b"k".to_vec();
        ikey.extend_from_slice(&pack_tag(1, 0x7f).to_le_bytes());
        assert!(b.add_encoded(&ikey, 0, v).is_err(), "unknown kind byte");
        assert_eq!(b.entry_count(), 0);
    }

    #[test]
    fn invalid_options_rejected_at_construction() {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let opts = TableOptions {
            page_size: 1,
            ..Default::default()
        };
        assert!(TableBuilder::new(file, opts).is_err());
    }
}
