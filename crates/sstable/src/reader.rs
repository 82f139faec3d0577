//! Table reader: point lookups through tile fences and per-page Bloom
//! filters, with range-tombstone page skipping.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use acheron_types::checksum;
use acheron_types::key::{compare_internal, InternalKeyRef};
use acheron_types::{Entry, Error, RangeTombstone, Result, SeekKey, SeqNo, ValueKind};
use acheron_vfs::RandomAccessFile;
use bytes::Bytes;

use crate::block::Block;
use crate::bloom::BloomFilterRef;
use crate::cache::{next_table_cache_id, BlockCache, PageKey};
use crate::format::{BlockHandle, Footer, BLOCK_TRAILER_SIZE, FOOTER_SIZE};
use crate::iter::TableIterator;
use crate::meta::{decode_tiles, PageMeta, TableStats, TileMeta};

/// Read-side counters for one table (used by the experiments to show
/// where KiWi saves or spends I/O).
#[derive(Debug, Default)]
pub struct ReadCounters {
    /// Data pages fetched and searched.
    pub pages_read: AtomicU64,
    /// Pages skipped because a range tombstone covers their dkey band.
    pub pages_dropped: AtomicU64,
    /// Pages skipped by a Bloom-filter miss.
    pub bloom_skips: AtomicU64,
}

/// An immutable, open SSTable.
///
/// Debug output is intentionally shallow (tile/page counts, not
/// contents).
pub struct Table {
    file: Arc<dyn RandomAccessFile>,
    tiles: Vec<TileMeta>,
    stats: TableStats,
    filter_data: Bytes,
    /// Shared page cache, if the database configured one.
    cache: Option<Arc<BlockCache>>,
    /// Process-unique id namespacing this table's pages in the cache.
    cache_id: u64,
    /// Read counters (shared by all iterators over this table).
    pub counters: ReadCounters,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("tiles", &self.tiles.len())
            .field("entries", &self.stats.entry_count)
            .field("tombstones", &self.stats.tombstone_count)
            .finish_non_exhaustive()
    }
}

impl Table {
    /// Open a table file: read and validate footer and metadata blocks.
    pub fn open(file: Arc<dyn RandomAccessFile>) -> Result<Arc<Table>> {
        Self::open_with_cache(file, None)
    }

    /// Open with a shared page cache.
    pub fn open_with_cache(
        file: Arc<dyn RandomAccessFile>,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<Arc<Table>> {
        let size = file.size();
        if size < FOOTER_SIZE as u64 {
            return Err(Error::corruption(format!(
                "table file of {size} bytes is smaller than the footer"
            )));
        }
        let footer_bytes = file.read_at(size - FOOTER_SIZE as u64, FOOTER_SIZE)?;
        let footer = Footer::decode(&footer_bytes)?;
        let tile_meta_raw = read_block_raw(file.as_ref(), footer.tile_meta)?;
        let tiles = decode_tiles(&tile_meta_raw)?;
        let stats_raw = read_block_raw(file.as_ref(), footer.stats)?;
        let stats = TableStats::decode_versioned(&stats_raw, footer.version)?;
        let filter_data = read_block_raw(file.as_ref(), footer.filter)?;
        Ok(Arc::new(Table {
            file,
            tiles,
            stats,
            filter_data,
            cache,
            cache_id: next_table_cache_id(),
            counters: ReadCounters::default(),
        }))
    }

    /// Table-wide statistics from the stats block.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Bytes this open table pins in memory for its lifetime: the
    /// filter block plus the decoded tile and page metadata. These
    /// bytes exist whether or not a page cache is configured, so the
    /// engine's memory arbiter charges them against the shared budget
    /// rather than pretending table opens are free.
    pub fn pinned_bytes(&self) -> usize {
        let tile_meta: usize = self
            .tiles
            .iter()
            .map(|t| t.last_ikey.len() + t.pages.len() * std::mem::size_of::<PageMeta>())
            .sum();
        self.filter_data.len() + tile_meta + self.tiles.len() * std::mem::size_of::<TileMeta>()
    }

    /// The tile descriptors.
    pub fn tiles(&self) -> &[TileMeta] {
        &self.tiles
    }

    /// Read and verify a data page (through the cache, if configured).
    pub(crate) fn read_page(&self, handle: BlockHandle) -> Result<Block> {
        self.read_page_opts(handle, true)
    }

    /// Read and verify a data page. With `fill_cache = false` the cache
    /// is bypassed entirely: one-pass readers (compaction, integrity
    /// scans) would otherwise flood the cache with bytes that will never
    /// be read again — and, worse, pollute the fill-traffic signal the
    /// memory arbiter uses to size the cache against the write buffer.
    pub(crate) fn read_page_opts(&self, handle: BlockHandle, fill_cache: bool) -> Result<Block> {
        if !fill_cache {
            let raw = read_block_raw(self.file.as_ref(), handle)?;
            self.counters
                .pages_read
                .fetch_add(1, AtomicOrdering::Relaxed);
            return Block::new(raw);
        }
        if let Some(cache) = &self.cache {
            let key = PageKey {
                table: self.cache_id,
                offset: handle.offset,
            };
            if let Some(block) = cache.get(&key) {
                return Ok(block);
            }
            let raw = read_block_raw(self.file.as_ref(), handle)?;
            self.counters
                .pages_read
                .fetch_add(1, AtomicOrdering::Relaxed);
            let block = Block::new(raw)?;
            cache.insert(key, block.clone(), handle.size as usize);
            return Ok(block);
        }
        let raw = read_block_raw(self.file.as_ref(), handle)?;
        self.counters
            .pages_read
            .fetch_add(1, AtomicOrdering::Relaxed);
        Block::new(raw)
    }

    /// A page's Bloom filter, if it has one, viewed in place inside the
    /// table's filter block.
    pub(crate) fn page_filter(&self, page: &PageMeta) -> Option<BloomFilterRef<'_>> {
        if page.filter_len == 0 {
            return None;
        }
        let start = page.filter_offset as usize;
        let end = start + page.filter_len as usize;
        BloomFilterRef::decode(self.filter_data.get(start..end)?)
    }

    /// True if a live range tombstone lets this page be skipped outright.
    pub(crate) fn page_droppable(page: &PageMeta, rts: &[RangeTombstone]) -> bool {
        rts.iter()
            .any(|rt| rt.covers_region(page.dkey_min, page.dkey_max, page.max_seqno))
    }

    /// Index of the first tile whose fence is `>= target`, or `None` if
    /// the target is past the last tile.
    pub(crate) fn find_tile(&self, target: &[u8]) -> Option<usize> {
        let idx = self.tiles.partition_point(|t| {
            compare_internal(&t.last_ikey, target) == std::cmp::Ordering::Less
        });
        (idx < self.tiles.len()).then_some(idx)
    }

    /// Point lookup: the newest entry for `user_key` visible at
    /// `snapshot`, ignoring entries shadowed page-wise by `rts`
    /// (entry-level range-tombstone shadowing is the engine's job).
    pub fn get(
        &self,
        user_key: &[u8],
        snapshot: SeqNo,
        rts: &[RangeTombstone],
    ) -> Result<Option<Entry>> {
        let seek_key = SeekKey::new(user_key, snapshot);
        let Some(mut tile_idx) = self.find_tile(seek_key.encoded()) else {
            return Ok(None);
        };
        while tile_idx < self.tiles.len() {
            let tile = &self.tiles[tile_idx];
            let mut best: Option<Entry> = None;
            for page in &tile.pages {
                if Self::page_droppable(page, rts) {
                    self.counters
                        .pages_dropped
                        .fetch_add(1, AtomicOrdering::Relaxed);
                    continue;
                }
                if let Some(filter) = self.page_filter(page) {
                    if !filter.may_contain(user_key) {
                        self.counters
                            .bloom_skips
                            .fetch_add(1, AtomicOrdering::Relaxed);
                        continue;
                    }
                }
                let block = self.read_page(page.handle)?;
                let mut it = block.iter();
                it.seek(seek_key.encoded())?;
                if !it.valid() {
                    continue;
                }
                let found = InternalKeyRef::decode(it.key())
                    .ok_or_else(|| Error::corruption("short internal key in page"))?;
                if found.user_key() != user_key {
                    continue;
                }
                debug_assert!(found.seqno() <= snapshot);
                let entry = entry_from_parts(found, it.dkey(), it.value())?;
                best = match best {
                    Some(b) if b.seqno >= entry.seqno => Some(b),
                    _ => Some(entry),
                };
            }
            if let Some(e) = best {
                return Ok(Some(e));
            }
            // No visible version in this tile. If the tile's fence user
            // key is beyond ours, no later tile can contain the key.
            let fence = InternalKeyRef::decode(&tile.last_ikey)
                .ok_or_else(|| Error::corruption("short tile fence key"))?;
            if fence.user_key() > user_key {
                return Ok(None);
            }
            tile_idx += 1;
        }
        Ok(None)
    }

    /// All versions of `user_key` visible at `snapshot`, newest first,
    /// excluding pages dropped under `rts` (the engine passes `&[]` on
    /// its read path: the newest version must always be observed, since
    /// it is what decides the key's visibility).
    pub fn get_versions(
        &self,
        user_key: &[u8],
        snapshot: SeqNo,
        rts: &[RangeTombstone],
    ) -> Result<Vec<Entry>> {
        let seek_key = SeekKey::new(user_key, snapshot);
        let Some(first_tile) = self.find_tile(seek_key.encoded()) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for tile in &self.tiles[first_tile..] {
            let mut any_possible = false;
            for page in &tile.pages {
                if Self::page_droppable(page, rts) {
                    self.counters
                        .pages_dropped
                        .fetch_add(1, AtomicOrdering::Relaxed);
                    continue;
                }
                if let Some(filter) = self.page_filter(page) {
                    if !filter.may_contain(user_key) {
                        self.counters
                            .bloom_skips
                            .fetch_add(1, AtomicOrdering::Relaxed);
                        continue;
                    }
                }
                any_possible = true;
                let block = self.read_page(page.handle)?;
                let mut it = block.iter();
                it.seek(seek_key.encoded())?;
                while it.valid() {
                    let found = InternalKeyRef::decode(it.key())
                        .ok_or_else(|| Error::corruption("short internal key in page"))?;
                    if found.user_key() != user_key {
                        break;
                    }
                    out.push(entry_from_parts(found, it.dkey(), it.value())?);
                    it.next()?;
                }
            }
            let fence = InternalKeyRef::decode(&tile.last_ikey)
                .ok_or_else(|| Error::corruption("short tile fence key"))?;
            // Stop once the tile extends beyond our user key; later tiles
            // cannot contain it.
            if fence.user_key() > user_key {
                break;
            }
            let _ = any_possible;
        }
        // Pages within a tile overlap in key space, so merge-order the
        // collected versions newest-first.
        out.sort_by_key(|e| std::cmp::Reverse(e.seqno));
        Ok(out)
    }

    /// An iterator over the whole table, skipping pages droppable under
    /// `rts`.
    pub fn iter(self: &Arc<Self>, rts: Vec<RangeTombstone>) -> TableIterator {
        TableIterator::new(Arc::clone(self), rts, true)
    }

    /// Like [`Table::iter`], but pages read are never admitted to the
    /// block cache. For one-pass consumers (compaction inputs,
    /// integrity verification) whose reads carry no reuse: bypassing
    /// keeps a bulk merge from evicting the read path's working set.
    pub fn iter_nofill(self: &Arc<Self>, rts: Vec<RangeTombstone>) -> TableIterator {
        TableIterator::new(Arc::clone(self), rts, false)
    }
}

/// Reconstruct an [`Entry`] from block-iterator parts.
pub(crate) fn entry_from_parts(key: InternalKeyRef<'_>, dkey: u64, value: Bytes) -> Result<Entry> {
    let kind = ValueKind::from_u8(key.kind_byte()).ok_or_else(|| {
        Error::corruption(format!("bad kind byte {:#x} in table", key.kind_byte()))
    })?;
    Ok(Entry {
        key: Bytes::copy_from_slice(key.user_key()),
        seqno: key.seqno(),
        kind,
        dkey,
        value,
    })
}

/// Read block contents at `handle` and verify the `type | crc` trailer.
fn read_block_raw(file: &dyn RandomAccessFile, handle: BlockHandle) -> Result<Bytes> {
    let total = handle.size as usize + BLOCK_TRAILER_SIZE;
    let raw = file.read_at(handle.offset, total)?;
    let (contents, trailer) = raw.split_at(handle.size as usize);
    let stored = u32::from_le_bytes(trailer[1..5].try_into().unwrap());
    let actual = checksum::mask(checksum::extend(checksum::crc32c(contents), &trailer[..1]));
    if stored != actual {
        return Err(Error::corruption(format!(
            "block checksum mismatch at offset {} (size {})",
            handle.offset, handle.size
        )));
    }
    Ok(raw.slice(..handle.size as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TableOptions;
    use crate::writer::TableBuilder;
    use acheron_types::DeleteKeyRange;
    use acheron_vfs::{MemFs, Vfs};

    fn build(entries: &[Entry], opts: TableOptions) -> (MemFs, Arc<Table>) {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, opts).unwrap();
        for e in entries {
            b.add(e).unwrap();
        }
        b.finish().unwrap();
        let table = Table::open(fs.open("t.sst").unwrap()).unwrap();
        (fs, table)
    }

    fn dataset(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                Entry::put(
                    format!("key{i:05}").into_bytes(),
                    format!("value-{i}").into_bytes(),
                    1000 + i as u64,
                    (i % 128) as u64,
                )
            })
            .collect()
    }

    #[test]
    fn get_every_key_back() {
        for h in [1usize, 4] {
            let entries = dataset(800);
            let opts = TableOptions {
                pages_per_tile: h,
                page_size: 512,
                ..Default::default()
            };
            let (_fs, table) = build(&entries, opts);
            for e in &entries {
                let got = table.get(&e.key, u64::MAX >> 8, &[]).unwrap();
                assert_eq!(
                    got.as_ref().map(|g| &g.value),
                    Some(&e.value),
                    "h={h} key={:?}",
                    e.key
                );
                assert_eq!(got.unwrap().dkey, e.dkey);
            }
        }
    }

    #[test]
    fn get_missing_keys() {
        let entries = dataset(100);
        let (_fs, table) = build(&entries, TableOptions::default());
        assert_eq!(table.get(b"absent", u64::MAX >> 8, &[]).unwrap(), None);
        assert_eq!(table.get(b"key00100", u64::MAX >> 8, &[]).unwrap(), None);
        assert_eq!(table.get(b"", u64::MAX >> 8, &[]).unwrap(), None);
        assert_eq!(table.get(b"zzzzz", u64::MAX >> 8, &[]).unwrap(), None);
    }

    #[test]
    fn snapshot_filters_newer_versions() {
        let entries = vec![
            Entry::put(&b"k"[..], &b"new"[..], 10, 0),
            Entry::put(&b"k"[..], &b"old"[..], 5, 0),
        ];
        let (_fs, table) = build(&entries, TableOptions::default());
        assert_eq!(
            table.get(b"k", 20, &[]).unwrap().unwrap().value,
            Bytes::from_static(b"new")
        );
        assert_eq!(
            table.get(b"k", 7, &[]).unwrap().unwrap().value,
            Bytes::from_static(b"old")
        );
        assert_eq!(table.get(b"k", 4, &[]).unwrap(), None);
    }

    #[test]
    fn tombstones_are_returned_not_hidden() {
        // The reader surfaces tombstones; visibility policy is the
        // engine's job.
        let entries = vec![Entry::tombstone(&b"k"[..], 9, 55)];
        let (_fs, table) = build(&entries, TableOptions::default());
        let got = table.get(b"k", 100, &[]).unwrap().unwrap();
        assert!(got.is_tombstone());
        assert_eq!(got.dkey, 55);
    }

    #[test]
    fn bloom_skips_are_counted() {
        let entries = dataset(2000);
        let (_fs, table) = build(
            &entries,
            TableOptions {
                page_size: 1024,
                ..Default::default()
            },
        );
        for i in 0..200 {
            // Absent keys that fall *inside* the fence range, so a filter
            // must answer them.
            let key = format!("key{i:05}a");
            assert_eq!(table.get(key.as_bytes(), u64::MAX >> 8, &[]).unwrap(), None);
        }
        let skips = table.counters.bloom_skips.load(AtomicOrdering::Relaxed);
        let reads = table.counters.pages_read.load(AtomicOrdering::Relaxed);
        assert!(
            skips > 150,
            "most negative lookups should be answered by Bloom filters: {skips} skips, {reads} reads"
        );
    }

    #[test]
    fn range_tombstone_drops_covered_pages_on_read() {
        // All entries share one dkey band per page with h > 1; a covering
        // tombstone must skip those pages without reading them.
        let entries = dataset(800);
        let opts = TableOptions {
            pages_per_tile: 4,
            page_size: 512,
            ..Default::default()
        };
        let (_fs, table) = build(&entries, opts);
        let rt = RangeTombstone {
            seqno: 1_000_000,
            range: DeleteKeyRange::new(0, 63),
        };
        // Keys with dkey in [0,63] sit in covered pages.
        let covered = entries.iter().find(|e| e.dkey <= 63).unwrap();
        let got = table.get(&covered.key, u64::MAX >> 8, &[rt]).unwrap();
        assert_eq!(got, None, "entry in a dropped page must not be found");
        assert!(
            table.counters.pages_dropped.load(AtomicOrdering::Relaxed) > 0,
            "drop counter must advance"
        );
        // Keys outside the covered band are still found.
        let kept = entries.iter().find(|e| e.dkey > 63).unwrap();
        let got = table.get(&kept.key, u64::MAX >> 8, &[rt]).unwrap();
        assert_eq!(got.unwrap().value, kept.value);
    }

    #[test]
    fn get_versions_returns_chain_newest_first() {
        let entries = vec![
            Entry::put(&b"k"[..], &b"v3"[..], 9, 30),
            Entry::put(&b"k"[..], &b"v2"[..], 7, 20),
            Entry::tombstone(&b"k"[..], 4, 10),
        ];
        for h in [1usize, 4] {
            let opts = TableOptions {
                pages_per_tile: h,
                ..Default::default()
            };
            let (_fs, table) = build(&entries, opts);
            let vs = table.get_versions(b"k", 100, &[]).unwrap();
            let seqs: Vec<u64> = vs.iter().map(|e| e.seqno).collect();
            assert_eq!(seqs, vec![9, 7, 4], "h={h}");
            // Snapshot trims the head of the chain.
            let vs = table.get_versions(b"k", 7, &[]).unwrap();
            assert_eq!(vs.len(), 2);
            assert_eq!(vs[0].seqno, 7);
            assert!(table.get_versions(b"absent", 100, &[]).unwrap().is_empty());
        }
    }

    #[test]
    fn version_chains_never_span_tiles() {
        // The builder cuts tiles only at user-key boundaries (this is
        // what makes whole-tile drops sound), so even with pages far
        // smaller than the chain, both versions share a tile.
        let entries = vec![
            Entry::put(&b"k"[..], vec![b'x'; 120], 10, 0),
            Entry::put(&b"k"[..], vec![b'y'; 120], 5, 0),
            Entry::put(&b"z"[..], vec![b'z'; 120], 1, 0),
        ];
        let opts = TableOptions {
            page_size: 128,
            pages_per_tile: 1,
            ..Default::default()
        };
        let (_fs, table) = build(&entries, opts);
        assert!(table.tiles().len() >= 2, "distinct keys still split tiles");
        // Both versions of "k" are found, at every snapshot.
        let got = table.get(b"k", 7, &[]).unwrap().unwrap();
        assert_eq!(got.seqno, 5);
        let got = table.get(b"k", 100, &[]).unwrap().unwrap();
        assert_eq!(got.seqno, 10);
        // The chain sits entirely inside the first tile.
        let versions = table.get_versions(b"k", 100, &[]).unwrap();
        assert_eq!(versions.len(), 2);
    }

    #[test]
    fn corrupt_page_detected() {
        let entries = dataset(50);
        let (fs, table) = build(&entries, TableOptions::default());
        // Flip a byte in the first data page.
        let raw = fs.read_all("t.sst").unwrap().to_vec();
        let mut broken = raw.clone();
        broken[10] ^= 0xff;
        fs.write_all("t.sst", &broken).unwrap();
        let table2 = Table::open(fs.open("t.sst").unwrap()).unwrap();
        let err = table2.get(b"key00000", u64::MAX >> 8, &[]).unwrap_err();
        assert!(err.is_corruption());
        drop(table);
    }

    #[test]
    fn open_rejects_truncated_file() {
        let fs = MemFs::new();
        fs.write_all("t.sst", b"tiny").unwrap();
        assert!(Table::open(fs.open("t.sst").unwrap()).is_err());
    }

    #[test]
    fn open_rejects_wrong_magic() {
        let fs = MemFs::new();
        fs.write_all("t.sst", &[0u8; 200]).unwrap();
        let err = Table::open(fs.open("t.sst").unwrap()).expect_err("must fail");
        assert!(err.is_corruption());
    }

    #[test]
    fn pinned_bytes_track_filters_and_meta() {
        let (_fs, small) = build(&dataset(100), TableOptions::default());
        let (_fs2, large) = build(&dataset(2000), TableOptions::default());
        assert!(small.pinned_bytes() > 0, "filters and tile meta are pinned");
        assert!(
            large.pinned_bytes() > small.pinned_bytes(),
            "pinned footprint grows with the table: {} vs {}",
            large.pinned_bytes(),
            small.pinned_bytes()
        );
    }

    #[test]
    fn stats_survive_round_trip() {
        let entries = dataset(300);
        let (_fs, table) = build(&entries, TableOptions::default());
        let s = table.stats();
        assert_eq!(s.entry_count, 300);
        assert_eq!(&s.min_user_key[..], b"key00000");
        assert_eq!(&s.max_user_key[..], b"key00299");
        assert_eq!(s.max_seqno, 1299);
    }
}
