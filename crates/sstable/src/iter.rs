//! Whole-table iteration in internal-key order.
//!
//! Tiles are visited in fence order; within a tile the pages (which
//! overlap in sort-key space when `h > 1`) are merged with a small
//! linear-scan tournament — `h` is tens at most, so a heap would cost
//! more than it saves. Pages whose dkey band is covered by a supplied
//! range tombstone are *dropped*: never read, counted in
//! [`Table::counters`](crate::reader::ReadCounters).

use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

use acheron_types::key::{compare_internal, InternalKeyRef};
use acheron_types::{Entry, RangeTombstone, Result};
use bytes::Bytes;

use crate::block::BlockIter;
use crate::reader::{entry_from_parts, CacheUse, Table};

/// Iterator over every live entry of a table.
pub struct TableIterator {
    table: Arc<Table>,
    rts: Vec<RangeTombstone>,
    tile_idx: usize,
    /// Block cursors for the current tile's live pages.
    active: Vec<BlockIter>,
    /// Index into `active` of the smallest current key.
    current: Option<usize>,
    /// How this iterator's page reads treat the block cache.
    cache_use: CacheUse,
}

impl TableIterator {
    pub(crate) fn new(
        table: Arc<Table>,
        rts: Vec<RangeTombstone>,
        cache_use: CacheUse,
    ) -> TableIterator {
        TableIterator {
            table,
            rts,
            tile_idx: 0,
            active: Vec::new(),
            current: None,
            cache_use,
        }
    }

    /// True if positioned at an entry.
    pub fn valid(&self) -> bool {
        self.current.is_some()
    }

    /// Position at the first entry of the table.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.tile_idx = 0;
        self.load_tile_from_start()?;
        Ok(())
    }

    /// Position at the first entry with internal key `>= target`.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        match self.table.tile_index().find(target) {
            None => {
                self.active.clear();
                self.current = None;
                self.tile_idx = self.table.tile_index().len();
                Ok(())
            }
            Some(idx) => {
                self.tile_idx = idx;
                self.open_tile(idx, Some(target))?;
                if self.current.is_none() {
                    // Everything in the fence tile was below target only
                    // if pages were dropped; fall through to the next.
                    self.tile_idx += 1;
                    self.load_tile_from_start()?;
                }
                Ok(())
            }
        }
    }

    /// Advance to the next entry.
    #[allow(clippy::should_implement_trait)] // fallible cursor, not an Iterator
    pub fn next(&mut self) -> Result<()> {
        let cur = self.current.expect("next() on invalid iterator");
        self.active[cur].next()?;
        if !self.active[cur].valid() {
            self.active.swap_remove(cur);
        }
        self.pick_current();
        if self.current.is_none() {
            self.tile_idx += 1;
            self.load_tile_from_start()?;
        }
        Ok(())
    }

    /// The current internal key.
    pub fn key(&self) -> &[u8] {
        self.active[self.current.expect("key() on invalid iterator")].key()
    }

    /// The current entry's secondary delete key.
    pub fn dkey(&self) -> u64 {
        self.active[self.current.expect("dkey() on invalid iterator")].dkey()
    }

    /// The current value (a handle on its page, made on request).
    pub fn value(&self) -> Bytes {
        self.active[self.current.expect("value() on invalid iterator")].value()
    }

    /// Materialize the current position as an [`Entry`].
    pub fn entry(&self) -> Result<Entry> {
        let key = InternalKeyRef::decode(self.key())
            .ok_or_else(|| acheron_types::Error::corruption("short key in table iterator"))?;
        entry_from_parts(key, self.dkey(), self.value())
    }

    /// Starting at `self.tile_idx`, open the first tile that yields an
    /// entry (tiles can come up empty when all pages are dropped).
    fn load_tile_from_start(&mut self) -> Result<()> {
        loop {
            if self.tile_idx >= self.table.tile_index().len() {
                self.active.clear();
                self.current = None;
                return Ok(());
            }
            self.open_tile(self.tile_idx, None)?;
            if self.current.is_some() {
                return Ok(());
            }
            self.tile_idx += 1;
        }
    }

    /// Open tile `idx`, positioning each live page at `target` (or its
    /// first entry), and pick the smallest.
    ///
    /// Drop soundness (newest-version-decides semantics):
    ///
    /// * **single-version tiles** (no key has two versions in the tile)
    ///   drop covered pages *individually* — removing an entry can never
    ///   expose an in-tile sibling version, because there is none;
    /// * **multi-version tiles** drop only *tile-atomically* (every page
    ///   covered) — dropping one page could remove a key's newest
    ///   version while an uncovered older version survives in a sibling
    ///   page and would wrongly decide reads.
    ///
    /// Tiles are cut at user-key boundaries by the builder, so a dropped
    /// tile takes every in-file version of its keys with it.
    fn open_tile(&mut self, idx: usize, target: Option<&[u8]>) -> Result<()> {
        self.active.clear();
        self.current = None;
        let tile = self.table.tile_index().tile(idx);
        if !self.rts.is_empty()
            && tile.multi_version
            && tile
                .pages
                .iter()
                .all(|p| Table::page_droppable(p, &self.rts))
        {
            self.table
                .counters
                .pages_dropped
                .fetch_add(tile.pages.len() as u64, AtomicOrdering::Relaxed);
            return Ok(());
        }
        for page in tile.pages {
            if !tile.multi_version && Table::page_droppable(page, &self.rts) {
                self.table
                    .counters
                    .pages_dropped
                    .fetch_add(1, AtomicOrdering::Relaxed);
                continue;
            }
            let block = self.table.read_page_opts(page.handle, self.cache_use)?;
            let mut it = block.iter();
            match target {
                Some(t) => it.seek(t)?,
                None => it.seek_to_first()?,
            }
            if it.valid() {
                self.active.push(it);
            }
        }
        self.pick_current();
        Ok(())
    }

    fn pick_current(&mut self) {
        self.current = self
            .active
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| compare_internal(a.key(), b.key()))
            .map(|(i, _)| i);
    }

    /// Collect every remaining entry (test/bench convenience).
    pub fn drain(&mut self) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        while self.valid() {
            out.push(self.entry()?);
            self.next()?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TableOptions;
    use crate::writer::TableBuilder;
    use acheron_types::{DeleteKeyRange, InternalKey};
    use acheron_vfs::{MemFs, Vfs};

    fn build(entries: &[Entry], opts: TableOptions) -> Arc<Table> {
        let fs = MemFs::new();
        let file = fs.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, opts).unwrap();
        for e in entries {
            b.add(e).unwrap();
        }
        b.finish().unwrap();
        Table::open(fs.open("t.sst").unwrap()).unwrap()
    }

    fn dataset(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                Entry::put(
                    format!("key{i:05}").into_bytes(),
                    format!("v{i}").into_bytes(),
                    1000 + i as u64,
                    (i % 64) as u64,
                )
            })
            .collect()
    }

    #[test]
    fn full_scan_returns_everything_in_order() {
        for h in [1usize, 2, 8] {
            let entries = dataset(600);
            let opts = TableOptions {
                pages_per_tile: h,
                page_size: 256,
                ..Default::default()
            };
            let table = build(&entries, opts);
            let mut it = table.iter(vec![]);
            it.seek_to_first().unwrap();
            let got = it.drain().unwrap();
            assert_eq!(got.len(), entries.len(), "h={h}");
            assert_eq!(got, entries, "h={h}: scan must be in internal-key order");
        }
    }

    #[test]
    fn seek_positions_mid_table() {
        let entries = dataset(300);
        let opts = TableOptions {
            pages_per_tile: 4,
            page_size: 256,
            ..Default::default()
        };
        let table = build(&entries, opts);
        let mut it = table.iter(vec![]);
        let target = InternalKey::for_seek(b"key00150", u64::MAX >> 8);
        it.seek(target.encoded()).unwrap();
        assert!(it.valid());
        let got = it.drain().unwrap();
        assert_eq!(got.len(), 150);
        assert_eq!(&got[0].key[..], b"key00150");
    }

    #[test]
    fn seek_past_end_is_invalid() {
        let entries = dataset(10);
        let table = build(&entries, TableOptions::default());
        let mut it = table.iter(vec![]);
        it.seek(InternalKey::for_seek(b"zzz", 1).encoded()).unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn empty_table_iterates_nothing() {
        let table = build(&[], TableOptions::default());
        let mut it = table.iter(vec![]);
        it.seek_to_first().unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn fully_covered_tiles_are_dropped_from_scan() {
        let entries = dataset(600);
        let opts = TableOptions {
            pages_per_tile: 8,
            page_size: 256,
            ..Default::default()
        };
        let table = build(&entries, opts);
        // Covers every dkey in the dataset (0..63): every page of every
        // tile is covered, so whole tiles drop.
        let rt = RangeTombstone {
            seqno: u64::MAX >> 8,
            range: DeleteKeyRange::new(0, 63),
        };
        let mut it = table.iter(vec![rt]);
        it.seek_to_first().unwrap();
        let got = it.drain().unwrap();
        let dropped = table.counters.pages_dropped.load(AtomicOrdering::Relaxed);
        assert!(got.is_empty(), "every entry is covered");
        assert_eq!(
            dropped,
            table.stats().page_count,
            "all pages must be dropped without being read"
        );
    }

    #[test]
    fn single_version_tiles_drop_covered_pages_individually() {
        // Every key has exactly one version, so per-page drops are sound
        // and partial coverage reclaims the covered pages.
        let entries = dataset(600);
        let opts = TableOptions {
            pages_per_tile: 8,
            page_size: 256,
            ..Default::default()
        };
        let table = build(&entries, opts);
        let rt = RangeTombstone {
            seqno: u64::MAX >> 8,
            range: DeleteKeyRange::new(0, 31),
        };
        let mut it = table.iter(vec![rt]);
        it.seek_to_first().unwrap();
        let got = it.drain().unwrap();
        let dropped = table.counters.pages_dropped.load(AtomicOrdering::Relaxed);
        assert!(
            dropped > 0,
            "covered pages of single-version tiles must drop"
        );
        assert!(got.len() < entries.len());
        // Nothing uncovered may be lost.
        for e in entries.iter().filter(|e| e.dkey > 31) {
            assert!(got.iter().any(|g| g.key == e.key), "lost {:?}", e.key);
        }
    }

    #[test]
    fn multi_version_tiles_drop_only_atomically() {
        // Two versions per key: per-page drops would be unsound, so a
        // partially covered tile must be read in full.
        let mut entries = Vec::new();
        for i in 0..300usize {
            entries.push(Entry::put(
                format!("key{i:05}").into_bytes(),
                b"new".to_vec(),
                2_000 + i as u64,
                (i % 64) as u64,
            ));
            entries.push(Entry::put(
                format!("key{i:05}").into_bytes(),
                b"old".to_vec(),
                1_000 + i as u64,
                200 + (i % 64) as u64,
            ));
        }
        let opts = TableOptions {
            pages_per_tile: 8,
            page_size: 256,
            ..Default::default()
        };
        let table = build(&entries, opts);
        assert!(table.tile_index().iter().any(|t| t.multi_version));
        // Covers the newer versions' dkey band only.
        let rt = RangeTombstone {
            seqno: u64::MAX >> 8,
            range: DeleteKeyRange::new(0, 63),
        };
        let mut it = table.iter(vec![rt]);
        it.seek_to_first().unwrap();
        let got = it.drain().unwrap();
        assert_eq!(
            table.counters.pages_dropped.load(AtomicOrdering::Relaxed),
            0,
            "partially covered multi-version tiles must not drop pages"
        );
        assert_eq!(got.len(), entries.len());
    }

    #[test]
    fn scan_with_h1_drops_nothing_partially() {
        // With h = 1 pages mix dkeys, so nothing is droppable unless the
        // tombstone covers the page's whole band.
        let entries = dataset(100);
        let table = build(&entries, TableOptions::default());
        let rt = RangeTombstone {
            seqno: u64::MAX >> 8,
            range: DeleteKeyRange::new(0, 10),
        };
        let mut it = table.iter(vec![rt]);
        it.seek_to_first().unwrap();
        let got = it.drain().unwrap();
        assert_eq!(
            got.len(),
            entries.len(),
            "partial coverage must not drop pages"
        );
    }

    #[test]
    fn interleaved_seeks_and_scans() {
        let entries = dataset(200);
        let opts = TableOptions {
            pages_per_tile: 2,
            page_size: 256,
            ..Default::default()
        };
        let table = build(&entries, opts);
        let mut it = table.iter(vec![]);
        for probe in [0usize, 199, 73, 100, 1] {
            let key = format!("key{probe:05}");
            it.seek(InternalKey::for_seek(key.as_bytes(), u64::MAX >> 8).encoded())
                .unwrap();
            assert!(it.valid(), "probe {probe}");
            assert_eq!(it.entry().unwrap().key, entries[probe].key);
        }
    }
}
