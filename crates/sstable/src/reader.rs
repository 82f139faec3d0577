//! Table reader: point lookups through the key filter (whole-table, or
//! per page in a woven table) and tile fences, with range-tombstone page
//! skipping.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use acheron_types::checksum;
use acheron_types::key::InternalKeyRef;
use acheron_types::{Entry, Error, RangeTombstone, Result, SeekKey, SeqNo, ValueKind};
use acheron_vfs::RandomAccessFile;
use bytes::Bytes;

use crate::block::Block;
use crate::bloom::{BloomFilterRef, KeyHash};
use crate::cache::{BlockCache, CacheLease};
use crate::format::{BlockHandle, Footer, BLOCK_TRAILER_SIZE, FOOTER_SIZE};
use crate::iter::TableIterator;
use crate::meta::{PageMeta, TableStats, TileIndex};

/// Read-side counters for one table (used by the experiments to show
/// where KiWi saves or spends I/O).
#[derive(Debug, Default)]
pub struct ReadCounters {
    /// Data pages fetched and searched.
    pub pages_read: AtomicU64,
    /// Pages skipped because a range tombstone covers their dkey band.
    pub pages_dropped: AtomicU64,
    /// Lookups answered by a Bloom-filter miss: a table-filter miss
    /// (the whole table skipped) or a page-filter miss (one page).
    pub bloom_skips: AtomicU64,
}

/// How a page read treats the block cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheUse {
    /// Demand read: hit or miss is counted, a miss fills.
    Fill,
    /// One-pass read (compaction input): use a resident page, untouched
    /// and uncounted; read the file otherwise, without filling.
    Peek,
    /// Integrity scan: always the file's bytes, CRC verified.
    Bypass,
}

/// An immutable, open SSTable.
///
/// Debug output is intentionally shallow (tile/page counts, not
/// contents).
pub struct Table {
    file: Arc<dyn RandomAccessFile>,
    /// The tile-meta block, decoded once into flat arrays.
    index: TileIndex,
    stats: TableStats,
    filter_data: Bytes,
    /// True if `filter_data` is the whole-table key filter; otherwise
    /// it holds the page filters (a woven table, or format 3 and older)
    /// or nothing (filters off, or an empty table).
    table_filter: bool,
    /// This table's claim on the shared page cache, if the database
    /// configured one. Dropped with the table's last handle, which
    /// erases its pages.
    lease: Option<CacheLease>,
    /// Read counters (shared by all iterators over this table).
    pub counters: ReadCounters,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("tiles", &self.index.len())
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
        Self::open_leased(file, cache.map(CacheLease::new))
    }

    /// Open a table whose pages are (or will be) cached under `lease` —
    /// the one its builder wrote them through
    /// ([`TableBuilder::finish_leased`](crate::writer::TableBuilder::finish_leased)),
    /// so the table is resident from its first read.
    pub fn open_leased(
        file: Arc<dyn RandomAccessFile>,
        lease: Option<CacheLease>,
    ) -> Result<Arc<Table>> {
        let (index, stats, filter_data, table_filter) = read_meta(file.as_ref())?;
        Ok(Arc::new(Table {
            file,
            index,
            stats,
            filter_data,
            table_filter,
            lease,
            counters: ReadCounters::default(),
        }))
    }

    /// Read the footer and metadata blocks from the file again, checking
    /// every checksum and decoding each block as an open does: for
    /// integrity scans, which must notice damage to bytes an open read
    /// once and holds in memory since.
    pub fn verify_meta(&self) -> Result<()> {
        read_meta(self.file.as_ref()).map(|_| ())
    }

    /// Table-wide statistics from the stats block.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Bytes this open table pins in memory for its lifetime: the
    /// filter block plus the decoded tile index. These bytes exist
    /// whether or not a page cache is configured, so the engine's memory
    /// arbiter charges them against the shared budget rather than
    /// pretending table opens are free.
    pub fn pinned_bytes(&self) -> usize {
        self.filter_data.len() + self.index.heap_bytes()
    }

    /// The table's tiles: fences, page descriptors and flags.
    pub fn tile_index(&self) -> &TileIndex {
        &self.index
    }

    /// Read and verify a data page (through the cache, if configured).
    pub(crate) fn read_page(&self, handle: BlockHandle) -> Result<Block> {
        self.read_page_opts(handle, CacheUse::Fill)
    }

    /// Read a data page. Only [`CacheUse::Fill`] moves the cache's
    /// recency, hit/miss counters and fill-traffic count: one-pass
    /// readers must neither evict the working set nor look like
    /// demand.
    pub(crate) fn read_page_opts(&self, handle: BlockHandle, cache_use: CacheUse) -> Result<Block> {
        let lease = match &self.lease {
            Some(lease) if cache_use != CacheUse::Bypass => lease,
            _ => return self.read_page_from_file(handle),
        };
        let key = lease.key(handle.offset);
        let resident = if cache_use == CacheUse::Fill {
            lease.cache().get(&key)
        } else {
            lease.cache().peek(&key)
        };
        if let Some(block) = resident {
            return Ok(block);
        }
        let block = self.read_page_from_file(handle)?;
        if cache_use == CacheUse::Fill {
            lease
                .cache()
                .insert(key, block.clone(), handle.size as usize);
        }
        Ok(block)
    }

    /// The miss path: read the page from the file and verify its CRC.
    fn read_page_from_file(&self, handle: BlockHandle) -> Result<Block> {
        let raw = read_block_raw(self.file.as_ref(), handle)?;
        self.counters
            .pages_read
            .fetch_add(1, AtomicOrdering::Relaxed);
        Block::new(raw)
    }

    /// True if the table has a whole-table key filter.
    pub fn has_table_filter(&self) -> bool {
        self.table_filter
    }

    /// True if the key hashed to `hash` *may* be in the table: the
    /// whole-table filter's answer, or `true` for a table without one.
    #[inline]
    pub fn may_contain(&self, hash: KeyHash) -> bool {
        // Open checked that a table filter decodes.
        !self.table_filter
            || BloomFilterRef::decode(&self.filter_data).is_none_or(|f| f.may_contain_hash(hash))
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

    /// Count one lookup the table filter answered, and say whether it
    /// did.
    fn filtered_out(&self, hash: KeyHash) -> bool {
        if self.may_contain(hash) {
            return false;
        }
        self.counters
            .bloom_skips
            .fetch_add(1, AtomicOrdering::Relaxed);
        true
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
        self.get_hashed(user_key, KeyHash::of(user_key), snapshot, rts)
    }

    /// [`Table::get`] for a key hashed already, so a lookup that probes
    /// many tables hashes its key once. The table filter answers first;
    /// the fence search and any page filter run only on a "maybe".
    pub fn get_hashed(
        &self,
        user_key: &[u8],
        hash: KeyHash,
        snapshot: SeqNo,
        rts: &[RangeTombstone],
    ) -> Result<Option<Entry>> {
        if self.filtered_out(hash) {
            return Ok(None);
        }
        let seek_key = SeekKey::new(user_key, snapshot);
        let Some(mut tile_idx) = self.index.find(seek_key.encoded()) else {
            return Ok(None);
        };
        while tile_idx < self.index.len() {
            let tile = self.index.tile(tile_idx);
            let mut best: Option<Entry> = None;
            for page in tile.pages {
                if Self::page_droppable(page, rts) {
                    self.counters
                        .pages_dropped
                        .fetch_add(1, AtomicOrdering::Relaxed);
                    continue;
                }
                if let Some(filter) = self.page_filter(page) {
                    if !filter.may_contain_hash(hash) {
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
                // A single-version tile holds each user key once, and
                // chains never span tiles: this is the file's only
                // version, so the sibling pages need no probe.
                if !tile.multi_version {
                    return Ok(Some(entry));
                }
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
            let fence = InternalKeyRef::decode(tile.fence)
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
        let hash = KeyHash::of(user_key);
        if self.filtered_out(hash) {
            return Ok(Vec::new());
        }
        let seek_key = SeekKey::new(user_key, snapshot);
        let Some(first_tile) = self.index.find(seek_key.encoded()) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for tile in (first_tile..self.index.len()).map(|i| self.index.tile(i)) {
            for page in tile.pages {
                if Self::page_droppable(page, rts) {
                    self.counters
                        .pages_dropped
                        .fetch_add(1, AtomicOrdering::Relaxed);
                    continue;
                }
                if let Some(filter) = self.page_filter(page) {
                    if !filter.may_contain_hash(hash) {
                        self.counters
                            .bloom_skips
                            .fetch_add(1, AtomicOrdering::Relaxed);
                        continue;
                    }
                }
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
            let fence = InternalKeyRef::decode(tile.fence)
                .ok_or_else(|| Error::corruption("short tile fence key"))?;
            // Stop once the tile extends beyond our user key; later tiles
            // cannot contain it.
            if fence.user_key() > user_key {
                break;
            }
        }
        // Pages within a tile overlap in key space, so merge-order the
        // collected versions newest-first.
        out.sort_by_key(|e| std::cmp::Reverse(e.seqno));
        Ok(out)
    }

    /// An iterator over the whole table, skipping pages droppable under
    /// `rts`.
    pub fn iter(self: &Arc<Self>, rts: Vec<RangeTombstone>) -> TableIterator {
        TableIterator::new(Arc::clone(self), rts, CacheUse::Fill)
    }

    /// Like [`Table::iter`], but pages read are never admitted to the
    /// block cache, and resident ones are used without promotion. For
    /// compaction inputs, whose reads carry no reuse: a bulk merge must
    /// not evict the read path's working set, but need not re-read and
    /// re-verify a page that is already decoded in memory.
    pub fn iter_nofill(self: &Arc<Self>, rts: Vec<RangeTombstone>) -> TableIterator {
        TableIterator::new(Arc::clone(self), rts, CacheUse::Peek)
    }

    /// Like [`Table::iter`], but every page comes from the file and is
    /// CRC-verified, whatever the cache holds: for integrity scans, which
    /// exist to notice that the bytes on disk changed.
    pub fn iter_bypass(self: &Arc<Self>, rts: Vec<RangeTombstone>) -> TableIterator {
        TableIterator::new(Arc::clone(self), rts, CacheUse::Bypass)
    }
}

/// Read and decode a table's footer, tile index, stats and filter block,
/// checking each block's checksum, and say whether the filter block is
/// a table filter.
fn read_meta(file: &dyn RandomAccessFile) -> Result<(TileIndex, TableStats, Bytes, bool)> {
    let size = file.size();
    if size < FOOTER_SIZE as u64 {
        return Err(Error::corruption(format!(
            "table file of {size} bytes is smaller than the footer"
        )));
    }
    let footer_bytes = file.read_at(size - FOOTER_SIZE as u64, FOOTER_SIZE)?;
    let footer = Footer::decode(&footer_bytes)?;
    let tile_meta_raw = read_block_raw(file, footer.tile_meta)?;
    let index = TileIndex::decode(&tile_meta_raw)?;
    let stats_raw = read_block_raw(file, footer.stats)?;
    let stats = TableStats::decode_versioned(&stats_raw, footer.version)?;
    let filter_data = read_block_raw(file, footer.filter)?;
    // From format 4 on, an unwoven table's filter block, if it has one,
    // is its table filter; its pages have none.
    let table_filter = footer.version >= 4 && stats.pages_per_tile == 1 && !filter_data.is_empty();
    if table_filter && BloomFilterRef::decode(&filter_data).is_none() {
        return Err(Error::corruption(format!(
            "table filter of {} bytes does not decode",
            filter_data.len()
        )));
    }
    Ok((index, stats, filter_data, table_filter))
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
    let actual = checksum::masked(&[contents, &trailer[..1]]);
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
    fn one_kind_of_filter_per_table() {
        for h in [1usize, 4] {
            let opts = TableOptions {
                pages_per_tile: h,
                page_size: 512,
                ..Default::default()
            };
            let entries = dataset(800);
            let (_fs, table) = build(&entries, opts);
            let filtered_pages = table
                .tile_index()
                .pages()
                .iter()
                .filter(|p| table.page_filter(p).is_some())
                .count();
            if h > 1 {
                assert_eq!(filtered_pages, table.tile_index().pages().len());
                assert!(
                    !table.has_table_filter(),
                    "a woven table has no table filter"
                );
                continue;
            }
            // An unwoven table: its filter block is the table filter, and
            // it holds every key.
            assert_eq!(filtered_pages, 0);
            assert!(table.has_table_filter());
            assert!(entries
                .iter()
                .all(|e| table.may_contain(KeyHash::of(&e.key))));
            // A table-filter miss is one skip and reads nothing.
            let absent = (0..1000)
                .map(|i| format!("key{i:05}a").into_bytes())
                .find(|k| !table.may_contain(KeyHash::of(k)))
                .unwrap();
            let skips = table.counters.bloom_skips.load(AtomicOrdering::Relaxed);
            assert_eq!(table.get(&absent, u64::MAX >> 8, &[]).unwrap(), None);
            assert!(table
                .get_versions(&absent, u64::MAX >> 8, &[])
                .unwrap()
                .is_empty());
            assert_eq!(
                table.counters.bloom_skips.load(AtomicOrdering::Relaxed),
                skips + 2
            );
            assert_eq!(table.counters.pages_read.load(AtomicOrdering::Relaxed), 0);
        }
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

    /// Bloom skips the full tile loop would count for a hit on `key`:
    /// every page of its tile whose filter rejects the key.
    fn full_loop_skips(table: &Table, key: &[u8]) -> u64 {
        let seek_key = SeekKey::new(key, u64::MAX >> 8);
        let index = table.tile_index();
        let tile = index.tile(index.find(seek_key.encoded()).unwrap());
        tile.pages
            .iter()
            .filter(|p| table.page_filter(p).is_some_and(|f| !f.may_contain(key)))
            .count() as u64
    }

    #[test]
    fn get_stops_at_the_first_hit_in_single_version_tiles_only() {
        let opts = TableOptions {
            pages_per_tile: 4,
            page_size: 512,
            ..Default::default()
        };
        let single = dataset(800);
        // Two versions of every key: every tile is multi-version.
        let multi: Vec<Entry> = single
            .iter()
            .flat_map(|e| {
                let mut older = e.clone();
                older.seqno -= 500;
                older.dkey = 127 - e.dkey;
                [e.clone(), older]
            })
            .collect();
        for (entries, multi_version) in [(single, false), (multi, true)] {
            let (_fs, table) = build(&entries, opts.clone());
            let tiles = table.tile_index();
            assert!(tiles.iter().all(|t| t.multi_version == multi_version));
            assert!(tiles.iter().any(|t| t.pages.len() > 1));
            let mut full_loop = 0;
            for e in entries.iter().filter(|e| e.seqno >= 1000) {
                for snapshot in [u64::MAX >> 8, e.seqno - 1] {
                    let newest = table.get_versions(&e.key, snapshot, &[]).unwrap();
                    let got = table.get(&e.key, snapshot, &[]).unwrap();
                    assert_eq!(got.as_ref(), newest.first(), "mv={multi_version}");
                }
                full_loop += full_loop_skips(&table, &e.key);
            }
            // Count the skips of the newest-version hits alone.
            let before = table.counters.bloom_skips.load(AtomicOrdering::Relaxed);
            for e in entries.iter().filter(|e| e.seqno >= 1000) {
                assert!(table.get(&e.key, u64::MAX >> 8, &[]).unwrap().is_some());
            }
            let skips = table.counters.bloom_skips.load(AtomicOrdering::Relaxed) - before;
            if multi_version {
                assert_eq!(skips, full_loop, "multi-version tiles probe every page");
            } else {
                assert!(
                    skips < full_loop,
                    "single-version tiles stop at the hit: {skips} skips vs {full_loop}"
                );
            }
        }
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
        assert!(
            table.tile_index().len() >= 2,
            "distinct keys still split tiles"
        );
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

    const CACHED_OPTS: TableOptions = TableOptions {
        page_size: 512,
        pages_per_tile: 4,
        restart_interval: 16,
        bloom_bits_per_key: 10,
    };

    /// Build `entries` into `t.sst`, writing through to `cache`.
    fn write_cached(fs: &MemFs, entries: &[Entry], cache: &Arc<BlockCache>) -> Option<CacheLease> {
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::with_cache(file, CACHED_OPTS, Some(Arc::clone(cache))).unwrap();
        for e in entries {
            b.add(e).unwrap();
        }
        b.finish_leased().unwrap().1
    }

    fn build_cached(fs: &MemFs, entries: &[Entry], cache: &Arc<BlockCache>) -> Arc<Table> {
        let lease = write_cached(fs, entries, cache);
        Table::open_leased(fs.open("t.sst").unwrap(), lease).unwrap()
    }

    fn page_keys(table: &Table) -> Vec<crate::cache::PageKey> {
        let lease = table.lease.as_ref().unwrap();
        table
            .tile_index()
            .pages()
            .iter()
            .map(|p| lease.key(p.handle.offset))
            .collect()
    }

    #[test]
    fn written_through_table_is_read_without_touching_the_file() {
        let fs = MemFs::new();
        let cache = Arc::new(BlockCache::new(4 << 20));
        let entries = dataset(800);
        let table = build_cached(&fs, &entries, &cache);
        assert!(page_keys(&table).len() > 8);
        assert_eq!(
            cache.inserted_bytes(),
            0,
            "write-through is not a miss fill"
        );
        assert!(cache.prepopulated_bytes() > 0);
        let reads_before = fs.io_stats().snapshot().read_ops;
        for e in &entries {
            let got = table.get(&e.key, u64::MAX >> 8, &[]).unwrap().unwrap();
            assert_eq!(got.value, e.value);
        }
        let mut it = table.iter_nofill(vec![]);
        it.seek_to_first().unwrap();
        assert_eq!(it.drain().unwrap().len(), entries.len());
        assert_eq!(fs.io_stats().snapshot().read_ops, reads_before);
        assert_eq!(table.counters.pages_read.load(AtomicOrdering::Relaxed), 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn peek_reads_do_not_fill_or_count() {
        let (fs, _uncached) = build(&dataset(800), TableOptions::default());
        // Opened cold (as after a restart): nothing resident.
        let cache = Arc::new(BlockCache::new(4 << 20));
        let table =
            Table::open_with_cache(fs.open("t.sst").unwrap(), Some(Arc::clone(&cache))).unwrap();
        let mut it = table.iter_nofill(vec![]);
        it.seek_to_first().unwrap();
        assert_eq!(it.drain().unwrap().len(), 800);
        assert!(table.counters.pages_read.load(AtomicOrdering::Relaxed) > 0);
        assert_eq!(cache.used_bytes(), 0);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.inserted_bytes(), 0);
    }

    #[test]
    fn last_handle_takes_the_pages_with_it() {
        let fs = MemFs::new();
        let cache = Arc::new(BlockCache::new(4 << 20));
        let table = build_cached(&fs, &dataset(800), &cache);
        let keys = page_keys(&table);
        // An iterator opened while the table was live outlives every
        // other handle, and re-fills pages after they were evicted.
        let mut it = table.iter(vec![]);
        it.seek_to_first().unwrap();
        drop(table);
        cache.resize(0);
        cache.resize(4 << 20);
        assert_eq!(cache.used_bytes(), 0);
        assert_eq!(it.drain().unwrap().len(), 800);
        assert!(cache.used_bytes() > 0, "a late reader still fills");
        drop(it);
        assert_eq!(cache.used_bytes(), 0);
        assert!(keys.iter().all(|k| cache.peek(k).is_none()));
    }

    #[test]
    fn dropping_a_table_erases_its_pages_and_no_others() {
        let fs = MemFs::new();
        let cache = Arc::new(BlockCache::new(4 << 20));
        let tables: Vec<Arc<Table>> = (0..3)
            .map(|t| {
                let name = format!("t{t}.sst");
                let mut b = TableBuilder::with_cache(
                    fs.create(&name).unwrap(),
                    CACHED_OPTS,
                    Some(Arc::clone(&cache)),
                )
                .unwrap();
                for e in dataset(400 + 100 * t) {
                    b.add(&e).unwrap();
                }
                let lease = b.finish_leased().unwrap().1;
                Table::open_leased(fs.open(&name).unwrap(), lease).unwrap()
            })
            .collect();
        // Evict everything, then read every table back in: resident
        // pages are now miss fills, not written-through ones.
        cache.resize(0);
        cache.resize(4 << 20);
        for table in &tables {
            for e in dataset(400) {
                assert!(table.get(&e.key, u64::MAX >> 8, &[]).unwrap().is_some());
            }
        }
        assert!(cache.inserted_bytes() > 0);
        let resident = |t: &Table| {
            page_keys(t)
                .iter()
                .filter(|k| cache.peek(k).is_some())
                .count()
        };
        let before: Vec<usize> = tables.iter().map(|t| resident(t)).collect();
        assert!(before.iter().all(|&n| n > 0), "{before:?}");
        let gone = page_keys(&tables[1]);
        let mut tables = tables;
        let dropped = tables.remove(1);
        drop(dropped);
        assert!(gone.iter().all(|k| cache.peek(k).is_none()));
        let after: Vec<usize> = tables.iter().map(|t| resident(t)).collect();
        assert_eq!(after, [before[0], before[2]]);
        drop(tables);
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn bypass_reads_the_file_even_when_every_page_is_resident() {
        let fs = MemFs::new();
        let cache = Arc::new(BlockCache::new(4 << 20));
        let lease = write_cached(&fs, &dataset(200), &cache);
        // Flip a byte of the first data page in the file; the cache holds
        // every page as it was encoded.
        let mut raw = fs.read_all("t.sst").unwrap().to_vec();
        raw[10] ^= 0xff;
        fs.write_all("t.sst", &raw).unwrap();
        let table = Table::open_leased(fs.open("t.sst").unwrap(), lease).unwrap();
        for mut it in [table.iter(vec![]), table.iter_nofill(vec![])] {
            it.seek_to_first().unwrap();
            assert_eq!(it.drain().unwrap().len(), 200, "resident pages serve");
        }
        let mut it = table.iter_bypass(vec![]);
        assert!(it.seek_to_first().unwrap_err().is_corruption());
    }

    #[test]
    fn abandoned_and_failed_builds_leave_no_pages() {
        use acheron_vfs::{FaultKind, FaultOp, FaultRule, FaultVfs};
        let cache = Arc::new(BlockCache::new(4 << 20));
        let entries = dataset(800);

        // Dropped mid-build.
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::with_cache(file, CACHED_OPTS, Some(Arc::clone(&cache))).unwrap();
        for e in &entries {
            b.add(e).unwrap();
        }
        assert!(cache.used_bytes() > 0, "pages go in as they are written");
        drop(b);
        assert_eq!(cache.used_bytes(), 0);

        // An append fails part-way through.
        let faulty = FaultVfs::new(Arc::new(MemFs::new()));
        faulty.inject(FaultRule::new(FaultOp::Append, FaultKind::Error).after(20));
        let file = faulty.create("t.sst").unwrap();
        let mut b = TableBuilder::with_cache(file, CACHED_OPTS, Some(Arc::clone(&cache))).unwrap();
        let failed = entries.iter().try_for_each(|e| b.add(e));
        assert!(failed.is_err());
        assert!(cache.used_bytes() > 0);
        drop(b);
        assert_eq!(cache.used_bytes(), 0);

        // Finished, but never opened (the open failed, say).
        drop(write_cached(&fs, &entries, &cache));
        assert_eq!(cache.used_bytes(), 0);
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
    fn pinned_bytes_are_the_filters_and_the_flat_index() {
        for h in [1usize, 4] {
            let opts = TableOptions {
                pages_per_tile: h,
                page_size: 512,
                ..Default::default()
            };
            let (_fs, table) = build(&dataset(2000), opts);
            let index = table.tile_index();
            let fence_bytes: usize = index.iter().map(|t| t.fence.len()).sum();
            // Each array is sized exactly: fences and their offsets, one
            // slot per tile, one descriptor per page.
            let arrays = fence_bytes
                + index.len() * (std::mem::size_of::<u32>() + 8)
                + std::mem::size_of_val(index.pages());
            assert_eq!(index.heap_bytes(), arrays, "h={h}");
            assert_eq!(table.pinned_bytes(), table.filter_data.len() + arrays);
            assert_eq!(index.pages().len() as u64, table.stats().page_count);
        }
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
