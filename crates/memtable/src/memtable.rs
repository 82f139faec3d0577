//! The memtable: a skiplist plus the delete-aware statistics Acheron
//! threads through the write path.
//!
//! Besides entries, the memtable tracks — at O(1) per write — the
//! tombstone count, the *earliest tombstone tick* (the age seed FADE
//! uses once the memtable is flushed into a file), and the min/max of
//! the secondary delete key over all entries (the file's delete-key
//! fence, which lets secondary range deletes skip non-overlapping
//! files/tiles entirely).
//!
//! Concurrency matches the skiplist's: one externally-serialized writer
//! (`insert` takes `&self`; the commit leader is the only caller for the
//! active memtable), lock-free concurrent readers. Statistics are
//! atomics with sentinel emptiness (`u64::MAX` minima / `0` maxima)
//! resolved against the entry/tombstone counts, which are incremented
//! with `Release` ordering *after* the stat updates they cover.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use acheron_types::{
    Entry, FragmentedRangeTombstones, KeyRangeTombstone, SeekKey, SeqNo, Tick, ValueKind,
};
use bytes::Bytes;

use crate::skiplist::{SkipIter, SkipList};

/// Outcome of a memtable point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupResult {
    /// A put visible at the snapshot; holds the value.
    Found(Bytes),
    /// A point tombstone visible at the snapshot: the key is deleted and
    /// lower levels must NOT be consulted.
    Deleted,
    /// No entry for the key at this snapshot; consult older data.
    NotFound,
}

/// Aggregate statistics maintained incrementally by the memtable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemtableStats {
    /// Number of entries (puts + tombstones).
    pub entries: usize,
    /// Number of point tombstones.
    pub tombstones: usize,
    /// Tick of the oldest (earliest-issued) tombstone, if any.
    pub oldest_tombstone_tick: Option<Tick>,
    /// Minimum secondary delete key across all entries, if non-empty.
    pub min_dkey: Option<u64>,
    /// Maximum secondary delete key across all entries, if non-empty.
    pub max_dkey: Option<u64>,
    /// Number of buffered sort-key range tombstones.
    pub range_tombstones: usize,
    /// Tick of the oldest buffered sort-key range tombstone, if any.
    pub oldest_range_tombstone_tick: Option<Tick>,
}

/// Sort-key range tombstones buffered alongside the skiplist, plus the
/// fragmented index rebuilt after each mutation. Readers clone the `Arc`
/// under a brief read lock; the single writer rebuilds under the write
/// lock. Range deletes are rare, so rebuild cost is irrelevant.
#[derive(Default)]
struct RangeTombstoneBuffer {
    list: Vec<KeyRangeTombstone>,
    index: Arc<FragmentedRangeTombstones>,
}

/// An in-memory write buffer ordered by internal key.
pub struct Memtable {
    list: SkipList,
    tombstones: AtomicUsize,
    /// `u64::MAX` until the first tombstone arrives.
    oldest_tombstone_tick: AtomicU64,
    /// `u64::MAX` / `0` sentinels, valid only while non-empty.
    min_dkey: AtomicU64,
    max_dkey: AtomicU64,
    /// Smallest and largest seqno buffered, for WAL truncation decisions.
    min_seqno: AtomicU64,
    max_seqno: AtomicU64,
    user_bytes: AtomicU64,
    /// Buffered sort-key range tombstones; count mirrored in an atomic so
    /// emptiness checks stay lock-free.
    range_tombstones: RwLock<RangeTombstoneBuffer>,
    range_tombstone_count: AtomicUsize,
    /// `u64::MAX` until the first range tombstone arrives.
    oldest_range_tombstone_tick: AtomicU64,
    range_tombstone_bytes: AtomicUsize,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Memtable {
        Memtable {
            list: SkipList::new(),
            tombstones: AtomicUsize::new(0),
            oldest_tombstone_tick: AtomicU64::new(u64::MAX),
            min_dkey: AtomicU64::new(u64::MAX),
            max_dkey: AtomicU64::new(0),
            min_seqno: AtomicU64::new(u64::MAX),
            max_seqno: AtomicU64::new(0),
            user_bytes: AtomicU64::new(0),
            range_tombstones: RwLock::new(RangeTombstoneBuffer::default()),
            range_tombstone_count: AtomicUsize::new(0),
            oldest_range_tombstone_tick: AtomicU64::new(u64::MAX),
            range_tombstone_bytes: AtomicUsize::new(0),
        }
    }

    /// Insert a put or point tombstone.
    ///
    /// Callers must serialize inserts (single-writer contract, see the
    /// skiplist); readers may run concurrently.
    ///
    /// For tombstones, `entry.dkey` must be the tick the delete was
    /// issued at (the engine guarantees this); it seeds FADE's aging.
    pub fn insert(&self, entry: Entry) {
        debug_assert!(
            entry.kind != ValueKind::RangeTombstone,
            "secondary range tombstones are tracked in the version, not the memtable"
        );
        debug_assert!(
            entry.kind != ValueKind::KeyRangeTombstone,
            "sort-key range tombstones go through add_range_tombstone, not insert"
        );
        // Stat updates land before the counter increments that make
        // them observable (see struct docs).
        self.min_dkey.fetch_min(entry.dkey, Ordering::Relaxed);
        self.max_dkey.fetch_max(entry.dkey, Ordering::Relaxed);
        self.min_seqno.fetch_min(entry.seqno, Ordering::Relaxed);
        self.max_seqno.fetch_max(entry.seqno, Ordering::Relaxed);
        self.user_bytes.fetch_add(
            (entry.key.len() + entry.value.len()) as u64,
            Ordering::Relaxed,
        );
        if entry.is_tombstone() {
            self.oldest_tombstone_tick
                .fetch_min(entry.dkey, Ordering::Relaxed);
            self.tombstones.fetch_add(1, Ordering::Release);
        }
        self.list.insert(entry);
    }

    /// Buffer a sort-key range tombstone and rebuild the fragment index.
    ///
    /// Same single-writer contract as [`Memtable::insert`]; readers pick
    /// up the new index on their next [`Memtable::range_tombstones`]
    /// call. The tombstone's seqno participates in the memtable's seqno
    /// span so WAL truncation and sealing account for it.
    pub fn add_range_tombstone(&self, krt: KeyRangeTombstone) {
        self.min_seqno.fetch_min(krt.seqno, Ordering::Relaxed);
        self.max_seqno.fetch_max(krt.seqno, Ordering::Relaxed);
        self.oldest_range_tombstone_tick
            .fetch_min(krt.dkey, Ordering::Relaxed);
        self.range_tombstone_bytes
            .fetch_add(krt.start.len() + krt.end.len() + 64, Ordering::Relaxed);
        let mut buf = self.range_tombstones.write().expect("krt lock poisoned");
        buf.list.push(krt);
        buf.index = Arc::new(FragmentedRangeTombstones::build(&buf.list));
        drop(buf);
        // Count last: a reader that observes the count sees the index.
        self.range_tombstone_count.fetch_add(1, Ordering::Release);
    }

    /// The fragmented index over buffered sort-key range tombstones.
    pub fn range_tombstones(&self) -> Arc<FragmentedRangeTombstones> {
        self.range_tombstones
            .read()
            .expect("krt lock poisoned")
            .index
            .clone()
    }

    /// The raw buffered sort-key range tombstones (used by flush).
    pub fn range_tombstone_list(&self) -> Vec<KeyRangeTombstone> {
        self.range_tombstones
            .read()
            .expect("krt lock poisoned")
            .list
            .clone()
    }

    /// Number of buffered sort-key range tombstones.
    pub fn range_tombstone_count(&self) -> usize {
        self.range_tombstone_count.load(Ordering::Acquire)
    }

    /// Newest buffered range-tombstone seqno covering `user_key` visible
    /// at `snapshot`, or `None`. Lock-free fast path when no range
    /// tombstones are buffered.
    pub fn range_cover(&self, user_key: &[u8], snapshot: SeqNo) -> Option<SeqNo> {
        if self.range_tombstone_count() == 0 {
            return None;
        }
        self.range_tombstones()
            .max_seqno_covering(user_key, snapshot)
    }

    /// Point lookup at snapshot `snapshot` (visible seqnos are `<= snapshot`).
    pub fn get(&self, user_key: &[u8], snapshot: SeqNo) -> LookupResult {
        let seek_key = SeekKey::new(user_key, snapshot);
        let mut it = self.list.iter();
        it.seek(seek_key.encoded());
        if !it.valid() {
            return LookupResult::NotFound;
        }
        let entry = it.entry();
        if entry.key != user_key {
            return LookupResult::NotFound;
        }
        debug_assert!(entry.seqno <= snapshot);
        match entry.kind {
            ValueKind::Put | ValueKind::ValuePointer => LookupResult::Found(entry.value.clone()),
            ValueKind::Tombstone => LookupResult::Deleted,
            ValueKind::RangeTombstone | ValueKind::KeyRangeTombstone => LookupResult::NotFound,
        }
    }

    /// The newest version of `user_key` visible at `snapshot`, if any.
    ///
    /// Unlike [`Memtable::get`] this returns the raw entry (tombstones
    /// included) so the engine's early-exit lookup can compare its seqno
    /// against other sources and shadow-check range tombstones.
    pub fn newest_visible(&self, user_key: &[u8], snapshot: SeqNo) -> Option<Entry> {
        let seek_key = SeekKey::new(user_key, snapshot);
        let mut it = self.list.iter();
        it.seek(seek_key.encoded());
        if !it.valid() {
            return None;
        }
        let entry = it.entry();
        if entry.key != user_key {
            return None;
        }
        debug_assert!(entry.seqno <= snapshot);
        Some(entry.clone())
    }

    /// All versions of `user_key` visible at `snapshot`, newest first.
    ///
    /// The engine gathers full chains from every source and picks the
    /// globally newest (newest-version-decides semantics); a chain from
    /// one source alone cannot decide, since a newer version may live in
    /// another source.
    pub fn versions(&self, user_key: &[u8], snapshot: SeqNo) -> Vec<Entry> {
        let seek_key = SeekKey::new(user_key, snapshot);
        let mut it = self.list.iter();
        it.seek(seek_key.encoded());
        let mut out = Vec::new();
        while it.valid() {
            let entry = it.entry();
            if entry.key != user_key {
                break;
            }
            debug_assert!(entry.seqno <= snapshot);
            out.push(entry.clone());
            it.next();
        }
        out
    }

    /// A cursor over the memtable in internal-key order.
    pub fn iter(&self) -> SkipIter<'_> {
        self.list.iter()
    }

    /// Entries in internal-key order (used by flush).
    pub fn entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.list.entries()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if empty: no entries *and* no buffered range tombstones (a
    /// range-delete-only memtable still needs sealing and flushing).
    pub fn is_empty(&self) -> bool {
        self.list.is_empty() && self.range_tombstone_count() == 0
    }

    /// Approximate heap footprint in bytes; the engine flushes when this
    /// exceeds the configured write-buffer size.
    pub fn approximate_bytes(&self) -> usize {
        self.list.approximate_bytes() + self.range_tombstone_bytes.load(Ordering::Relaxed)
    }

    /// Total user payload bytes (key+value) accepted, for
    /// write-amplification denominators.
    pub fn user_bytes(&self) -> u64 {
        self.user_bytes.load(Ordering::Relaxed)
    }

    /// Smallest seqno buffered (entries and range tombstones).
    pub fn min_seqno(&self) -> Option<SeqNo> {
        if self.is_empty() {
            None
        } else {
            Some(self.min_seqno.load(Ordering::Relaxed))
        }
    }

    /// Largest seqno buffered (entries and range tombstones).
    pub fn max_seqno(&self) -> Option<SeqNo> {
        if self.is_empty() {
            None
        } else {
            Some(self.max_seqno.load(Ordering::Relaxed))
        }
    }

    /// The incremental statistics.
    pub fn stats(&self) -> MemtableStats {
        // Acquire the counters first: stat stores for every counted
        // entry happened-before the counter increments.
        let entries = self.list.len();
        let tombstones = self.tombstones.load(Ordering::Acquire);
        let range_tombstones = self.range_tombstone_count();
        MemtableStats {
            entries,
            tombstones,
            oldest_tombstone_tick: if tombstones == 0 {
                None
            } else {
                Some(self.oldest_tombstone_tick.load(Ordering::Relaxed))
            },
            min_dkey: if entries == 0 {
                None
            } else {
                Some(self.min_dkey.load(Ordering::Relaxed))
            },
            max_dkey: if entries == 0 {
                None
            } else {
                Some(self.max_dkey.load(Ordering::Relaxed))
            },
            range_tombstones,
            oldest_range_tombstone_tick: if range_tombstones == 0 {
                None
            } else {
                Some(self.oldest_range_tombstone_tick.load(Ordering::Relaxed))
            },
        }
    }
}

impl Default for Memtable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(m: &Memtable, k: &str, v: &str, seq: SeqNo, dkey: u64) {
        m.insert(Entry::put(
            k.as_bytes().to_vec(),
            v.as_bytes().to_vec(),
            seq,
            dkey,
        ));
    }

    fn del(m: &Memtable, k: &str, seq: SeqNo, tick: Tick) {
        m.insert(Entry::tombstone(k.as_bytes().to_vec(), seq, tick));
    }

    #[test]
    fn get_returns_latest_visible_version() {
        let m = Memtable::new();
        put(&m, "k", "v1", 1, 0);
        put(&m, "k", "v2", 5, 0);
        assert_eq!(
            m.get(b"k", 10),
            LookupResult::Found(Bytes::from_static(b"v2"))
        );
        assert_eq!(
            m.get(b"k", 4),
            LookupResult::Found(Bytes::from_static(b"v1"))
        );
        assert_eq!(
            m.get(b"k", 5),
            LookupResult::Found(Bytes::from_static(b"v2"))
        );
    }

    #[test]
    fn get_sees_tombstone_as_deleted() {
        let m = Memtable::new();
        put(&m, "k", "v1", 1, 0);
        del(&m, "k", 2, 100);
        assert_eq!(m.get(b"k", 10), LookupResult::Deleted);
        // The old version is still visible to an older snapshot.
        assert_eq!(
            m.get(b"k", 1),
            LookupResult::Found(Bytes::from_static(b"v1"))
        );
    }

    #[test]
    fn get_missing_key() {
        let m = Memtable::new();
        put(&m, "a", "v", 1, 0);
        put(&m, "c", "v", 2, 0);
        assert_eq!(m.get(b"b", 10), LookupResult::NotFound);
        assert_eq!(m.get(b"", 10), LookupResult::NotFound);
        assert_eq!(m.get(b"zzz", 10), LookupResult::NotFound);
    }

    #[test]
    fn snapshot_older_than_all_writes_sees_nothing() {
        let m = Memtable::new();
        put(&m, "k", "v", 5, 0);
        assert_eq!(m.get(b"k", 4), LookupResult::NotFound);
    }

    #[test]
    fn newest_visible_returns_raw_entry() {
        let m = Memtable::new();
        put(&m, "k", "v1", 1, 7);
        del(&m, "k", 3, 100);
        let e = m.newest_visible(b"k", 10).unwrap();
        assert_eq!(e.seqno, 3);
        assert!(e.is_tombstone());
        let e = m.newest_visible(b"k", 2).unwrap();
        assert_eq!(e.seqno, 1);
        assert_eq!(e.dkey, 7);
        assert!(m.newest_visible(b"zz", 10).is_none());
        assert!(m.newest_visible(b"k", 0).is_none());
    }

    #[test]
    fn versions_returns_full_visible_chain_newest_first() {
        let m = Memtable::new();
        put(&m, "k", "v1", 1, 10);
        put(&m, "k", "v2", 3, 20);
        del(&m, "k", 5, 30);
        put(&m, "j", "x", 2, 0);
        let vs = m.versions(b"k", 10);
        let seqs: Vec<SeqNo> = vs.iter().map(|e| e.seqno).collect();
        assert_eq!(seqs, vec![5, 3, 1]);
        assert!(vs[0].is_tombstone());
        // Snapshot cuts the chain.
        let vs = m.versions(b"k", 3);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].seqno, 3);
        // Missing key.
        assert!(m.versions(b"zz", 10).is_empty());
    }

    #[test]
    fn tombstone_statistics() {
        let m = Memtable::new();
        assert_eq!(m.stats().tombstones, 0);
        assert_eq!(m.stats().oldest_tombstone_tick, None);
        put(&m, "a", "v", 1, 10);
        del(&m, "b", 2, 300);
        del(&m, "c", 3, 200);
        let s = m.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.tombstones, 2);
        assert_eq!(s.oldest_tombstone_tick, Some(200));
    }

    #[test]
    fn delete_key_fences() {
        let m = Memtable::new();
        put(&m, "a", "v", 1, 50);
        put(&m, "b", "v", 2, 10);
        put(&m, "c", "v", 3, 99);
        let s = m.stats();
        assert_eq!(s.min_dkey, Some(10));
        assert_eq!(s.max_dkey, Some(99));
    }

    #[test]
    fn seqno_range_tracked() {
        let m = Memtable::new();
        assert_eq!(m.min_seqno(), None);
        put(&m, "a", "v", 7, 0);
        put(&m, "b", "v", 3, 0);
        put(&m, "c", "v", 9, 0);
        assert_eq!(m.min_seqno(), Some(3));
        assert_eq!(m.max_seqno(), Some(9));
    }

    #[test]
    fn user_bytes_counts_keys_and_values_only() {
        let m = Memtable::new();
        put(&m, "ab", "xyz", 1, 0); // 2 + 3
        del(&m, "cd", 2, 0); // 2 + 0
        assert_eq!(m.user_bytes(), 7);
    }

    fn krt(start: &str, end: &str, seq: SeqNo, tick: Tick) -> KeyRangeTombstone {
        KeyRangeTombstone {
            start: Bytes::copy_from_slice(start.as_bytes()),
            end: Bytes::copy_from_slice(end.as_bytes()),
            seqno: seq,
            dkey: tick,
        }
    }

    #[test]
    fn range_tombstone_buffering_and_cover() {
        let m = Memtable::new();
        assert_eq!(m.range_cover(b"k", u64::MAX), None);
        m.add_range_tombstone(krt("b", "d", 5, 100));
        assert_eq!(m.range_cover(b"c", u64::MAX), Some(5));
        assert_eq!(m.range_cover(b"c", 4), None, "snapshot predates delete");
        assert_eq!(m.range_cover(b"e", u64::MAX), None);
        m.add_range_tombstone(krt("c", "f", 9, 120));
        assert_eq!(m.range_cover(b"c", u64::MAX), Some(9));
        assert_eq!(m.range_cover(b"c", 6), Some(5), "older still covers");
        assert_eq!(m.range_tombstone_count(), 2);
        assert_eq!(m.range_tombstone_list().len(), 2);
    }

    #[test]
    fn range_tombstones_participate_in_emptiness_and_seqno_span() {
        let m = Memtable::new();
        assert!(m.is_empty());
        m.add_range_tombstone(krt("a", "z", 7, 3));
        assert!(!m.is_empty(), "range-delete-only memtable is not empty");
        assert_eq!(m.len(), 0, "len counts entries only");
        assert_eq!(m.min_seqno(), Some(7));
        assert_eq!(m.max_seqno(), Some(7));
        put(&m, "k", "v", 9, 0);
        assert_eq!(m.min_seqno(), Some(7));
        assert_eq!(m.max_seqno(), Some(9));
        assert!(m.approximate_bytes() > 0);
    }

    #[test]
    fn range_tombstone_statistics() {
        let m = Memtable::new();
        let s = m.stats();
        assert_eq!(s.range_tombstones, 0);
        assert_eq!(s.oldest_range_tombstone_tick, None);
        m.add_range_tombstone(krt("a", "c", 1, 50));
        m.add_range_tombstone(krt("x", "z", 2, 20));
        let s = m.stats();
        assert_eq!(s.range_tombstones, 2);
        assert_eq!(s.oldest_range_tombstone_tick, Some(20));
        assert_eq!(s.entries, 0);
        assert_eq!(s.tombstones, 0);
    }

    #[test]
    fn entries_iterate_in_internal_key_order() {
        let m = Memtable::new();
        put(&m, "b", "v1", 1, 0);
        put(&m, "a", "v2", 2, 0);
        del(&m, "a", 3, 0);
        let got: Vec<(Vec<u8>, SeqNo)> = m.entries().map(|e| (e.key.to_vec(), e.seqno)).collect();
        assert_eq!(
            got,
            vec![(b"a".to_vec(), 3), (b"a".to_vec(), 2), (b"b".to_vec(), 1)]
        );
    }
}
