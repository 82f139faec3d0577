//! An arena-backed skiplist ordered by internal key.
//!
//! This is the in-memory sorted structure behind the memtable. Nodes
//! live in a chunked arena of `OnceLock` slots and link by index through
//! `AtomicU32` towers, which keeps the structure in safe Rust, stable in
//! memory (chunks never move once allocated), and trivially droppable.
//!
//! Concurrency model: **single writer, lock-free concurrent readers**.
//! The engine serializes writers externally (the commit leader is the
//! only inserter of the active memtable); readers traverse concurrently
//! with no synchronization beyond the atomics here. Publication follows
//! the classic skiplist protocol: a node is fully constructed — entry
//! and tower pre-linked to its successors — and published
//! into its `OnceLock` slot *before* any predecessor's link is
//! `Release`-stored to point at it, so an `Acquire` traversal can never
//! observe a half-built node. Readers that race an insert either see the
//! new node (fully built) or don't see it yet; the list order is always
//! consistent.
//!
//! Heights are drawn from a deterministic xorshift generator so test
//! runs are reproducible.
//!
//! Ordering invariant: nodes are strictly increasing in
//! [`acheron_types::key::compare_internal`] order. Since sequence numbers
//! are unique per mutation, no two nodes ever compare equal.

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use acheron_types::key::{compare_parts, InternalKeyRef, TAG_LEN};
use acheron_types::seq::pack_tag;
use acheron_types::Entry;

const MAX_HEIGHT: usize = 12;
/// Probability 1/4 of growing a tower by one level, as in LevelDB.
const BRANCHING: u64 = 4;

/// Index of the sentinel head node.
const HEAD: u32 = 0;
/// Null link.
const NIL: u32 = u32::MAX;

/// Nodes in the first chunk; chunk `c` holds `BASE << c` nodes, so the
/// arena grows geometrically without ever moving an allocated node.
const BASE_CHUNK: usize = 1 << 10;
const BASE_SHIFT: u32 = 10;
/// 21 chunks cover `BASE * (2^21 - 1)` ≈ 2.1 billion nodes — beyond any
/// realistic memtable and still within `u32` index space.
const NUM_CHUNKS: usize = 21;

/// A node owns nothing on the heap beyond its entry's key and value:
/// the internal key is compared as `(entry.key, tag)` in place, and the
/// tower is inline (levels above the node's height stay [`NIL`] and are
/// never linked), so an insert allocates nothing.
struct Node {
    /// `None` only for the head sentinel.
    entry: Option<Entry>,
    /// `tower[h]` is the next node at height `h`.
    tower: [AtomicU32; MAX_HEIGHT],
}

/// A skiplist of [`Entry`] values ordered by internal key.
pub struct SkipList {
    /// Chunked arena: slot `idx` lives in chunk `c`, offset `off` per
    /// [`SkipList::locate`]. Chunks allocate lazily and never move.
    chunks: [OnceLock<Box<[OnceLock<Node>]>>; NUM_CHUNKS],
    /// Current tower height in use.
    height: AtomicUsize,
    /// Nodes allocated, including the head sentinel.
    count: AtomicU32,
    /// Entries inserted (excludes the head).
    len: AtomicUsize,
    approx_bytes: AtomicUsize,
    /// Height RNG; only the (single) writer touches it.
    rng_state: AtomicU64,
}

impl SkipList {
    /// An empty list.
    pub fn new() -> SkipList {
        SkipList::with_seed(0x9e37_79b9_7f4a_7c15)
    }

    /// An empty list with an explicit height-RNG seed (tests use this to
    /// exercise degenerate tower shapes).
    pub fn with_seed(seed: u64) -> SkipList {
        let list = SkipList {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            height: AtomicUsize::new(1),
            count: AtomicU32::new(0),
            len: AtomicUsize::new(0),
            approx_bytes: AtomicUsize::new(0),
            rng_state: AtomicU64::new(seed | 1),
        };
        let head = Node {
            entry: None,
            tower: std::array::from_fn(|_| AtomicU32::new(NIL)),
        };
        let ok = list.chunk(0)[0].set(head).is_ok();
        debug_assert!(ok);
        list.count.store(1, Ordering::Release);
        list
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True if no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint of stored entries in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.approx_bytes.load(Ordering::Relaxed)
    }

    /// Map a global node index to `(chunk, offset)`.
    #[inline]
    fn locate(idx: u32) -> (usize, usize) {
        // Chunk c covers indices [(2^c - 1) * BASE, (2^(c+1) - 1) * BASE).
        let b = (idx as usize >> BASE_SHIFT) + 1;
        let c = (usize::BITS - 1 - b.leading_zeros()) as usize;
        let off = idx as usize - (((1usize << c) - 1) << BASE_SHIFT);
        (c, off)
    }

    /// The slot array for chunk `c`, allocating it on first touch.
    fn chunk(&self, c: usize) -> &[OnceLock<Node>] {
        self.chunks[c].get_or_init(|| (0..(BASE_CHUNK << c)).map(|_| OnceLock::new()).collect())
    }

    fn random_height(&self) -> usize {
        // xorshift64*; single writer, so relaxed load/store round-trips.
        let mut state = self.rng_state.load(Ordering::Relaxed);
        let mut h = 1;
        while h < MAX_HEIGHT {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if !state.is_multiple_of(BRANCHING) {
                break;
            }
            h += 1;
        }
        self.rng_state.store(state, Ordering::Relaxed);
        h
    }

    #[inline]
    fn node(&self, idx: u32) -> &Node {
        let (c, off) = Self::locate(idx);
        self.chunks[c]
            .get()
            .expect("chunk allocated before any index into it is published")[off]
            .get()
            .expect("node published before any link to it")
    }

    /// Compare the node at `idx` against the internal key `(user_key,
    /// tag)`. The head sentinel compares less than everything.
    #[inline]
    fn cmp_node(&self, idx: u32, user_key: &[u8], tag: u64) -> CmpOrdering {
        match &self.node(idx).entry {
            None => CmpOrdering::Less,
            Some(e) => compare_parts(&e.key, pack_tag(e.seqno, e.kind as u8), user_key, tag),
        }
    }

    /// Find, for every level, the rightmost node strictly less than
    /// the internal key `(user_key, tag)`, plus the level-0 successor *observed during the walk*
    /// (NIL or the first node `>= key`). Lower-bound callers must use
    /// that observed successor rather than re-loading `preds[0]`'s
    /// link: between the walk and a second load, a concurrent insert
    /// can splice in a node that sorts before `key` (a newer version
    /// of the same user key — seqno-descending order), and the re-load
    /// would return it, breaking the `>= key` contract.
    #[allow(clippy::needless_range_loop)] // descending level walk carries state between levels
    fn find_predecessors(&self, user_key: &[u8], tag: u64) -> ([u32; MAX_HEIGHT], u32) {
        let mut preds = [HEAD; MAX_HEIGHT];
        let mut current = HEAD;
        let mut succ0 = NIL;
        let height = self.height.load(Ordering::Relaxed).max(1);
        for level in (0..height).rev() {
            loop {
                let next = self.node(current).tower[level].load(Ordering::Acquire);
                if next != NIL && self.cmp_node(next, user_key, tag) == CmpOrdering::Less {
                    current = next;
                } else {
                    if level == 0 {
                        succ0 = next;
                    }
                    break;
                }
            }
            preds[level] = current;
        }
        (preds, succ0)
    }

    /// Insert an entry.
    ///
    /// Callers must serialize inserts (single-writer contract); readers
    /// may traverse concurrently.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if an entry with an identical internal key
    /// is already present (sequence numbers must be unique).
    pub fn insert(&self, entry: Entry) {
        let tag = pack_tag(entry.seqno, entry.kind as u8);
        let (preds, succ) = self.find_predecessors(&entry.key, tag);
        debug_assert!(
            succ == NIL || self.cmp_node(succ, &entry.key, tag) != CmpOrdering::Equal,
            "duplicate internal key inserted into skiplist"
        );

        let height = self.random_height();
        if height > self.height.load(Ordering::Relaxed) {
            // Readers seeing the old height just start lower; readers
            // seeing the new height find NIL head links until the node
            // publishes. Either way the walk is correct.
            self.height.store(height, Ordering::Relaxed);
        }

        // Entry payload plus one encoded internal key: what a node cost
        // when it cached that encoding. Flush points are defined by this
        // sum, so it stays the charge now that the cache is gone.
        self.approx_bytes.fetch_add(
            entry.encoded_size() + entry.key.len() + TAG_LEN,
            Ordering::Relaxed,
        );
        let idx = self.count.load(Ordering::Relaxed);
        assert!(idx != NIL, "skiplist arena exhausted");
        // Pre-link the tower to the successors *before* publishing, so
        // the node is fully wired the instant it becomes reachable.
        let tower = std::array::from_fn(|level| {
            AtomicU32::new(if level < height {
                self.node(preds[level]).tower[level].load(Ordering::Relaxed)
            } else {
                NIL
            })
        });
        let (c, off) = Self::locate(idx);
        let published = self.chunk(c)[off]
            .set(Node {
                entry: Some(entry),
                tower,
            })
            .is_ok();
        assert!(published, "skiplist slot reused: writer not serialized");
        self.count.store(idx + 1, Ordering::Release);
        // Bottom-up link order so a reader that finds the node at a high
        // level can always descend through it.
        for (level, &pred) in preds.iter().enumerate().take(height) {
            self.node(pred).tower[level].store(idx, Ordering::Release);
        }
        self.len.fetch_add(1, Ordering::Release);
    }

    /// The first node whose internal key is `>= key`, as an arena
    /// index. This is the successor observed during the predecessor
    /// walk — never a re-load, which could race a concurrent insert of
    /// a smaller key (see [`SkipList::find_predecessors`]).
    fn lower_bound(&self, key: &[u8]) -> u32 {
        debug_assert!(key.len() >= TAG_LEN, "short internal key");
        InternalKeyRef::decode(key).map_or(NIL, |k| self.find_predecessors(k.user_key(), k.tag()).1)
    }

    /// An iterator positioned before the first entry.
    pub fn iter(&self) -> SkipIter<'_> {
        SkipIter {
            list: self,
            current: NIL,
            initialized: false,
        }
    }

    /// Entries in order (convenience for flush paths and tests).
    pub fn entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        let mut idx = self.node(HEAD).tower[0].load(Ordering::Acquire);
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let node = self.node(idx);
            idx = node.tower[0].load(Ordering::Acquire);
            node.entry.as_ref()
        })
    }
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

/// A cursor over a [`SkipList`] in internal-key order.
pub struct SkipIter<'a> {
    list: &'a SkipList,
    current: u32,
    initialized: bool,
}

impl<'a> SkipIter<'a> {
    /// True if positioned at an entry.
    pub fn valid(&self) -> bool {
        self.initialized && self.current != NIL
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) {
        self.current = self.list.node(HEAD).tower[0].load(Ordering::Acquire);
        self.initialized = true;
    }

    /// Position at the first entry with internal key `>= key`.
    pub fn seek(&mut self, key: &[u8]) {
        self.current = self.list.lower_bound(key);
        self.initialized = true;
    }

    /// Advance to the next entry. Must be valid.
    pub fn next(&mut self) {
        debug_assert!(self.valid());
        self.current = self.list.node(self.current).tower[0].load(Ordering::Acquire);
    }

    /// The entry at the cursor. Must be valid.
    pub fn entry(&self) -> &'a Entry {
        debug_assert!(self.valid());
        self.list
            .node(self.current)
            .entry
            .as_ref()
            .expect("non-head node has entry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acheron_types::{InternalKey, ValueKind};

    fn put(k: &str, seq: u64) -> Entry {
        Entry::put(
            k.as_bytes().to_vec(),
            format!("v{seq}").into_bytes(),
            seq,
            0,
        )
    }

    #[test]
    fn empty_list() {
        let l = SkipList::new();
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
        let mut it = l.iter();
        it.seek_to_first();
        assert!(!it.valid());
    }

    #[test]
    fn insert_and_scan_in_order() {
        let l = SkipList::new();
        for (i, k) in ["m", "a", "z", "c", "q"].iter().enumerate() {
            l.insert(put(k, i as u64 + 1));
        }
        let keys: Vec<&[u8]> = l.entries().map(|e| &e.key[..]).collect();
        assert_eq!(keys, vec![&b"a"[..], b"c", b"m", b"q", b"z"]);
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn same_user_key_newest_first() {
        let l = SkipList::new();
        l.insert(put("k", 1));
        l.insert(put("k", 3));
        l.insert(Entry::tombstone(&b"k"[..], 2, 0));
        let seqs: Vec<u64> = l.entries().map(|e| e.seqno).collect();
        assert_eq!(seqs, vec![3, 2, 1]);
    }

    #[test]
    fn seek_finds_lower_bound() {
        let l = SkipList::new();
        for (i, k) in ["b", "d", "f"].iter().enumerate() {
            l.insert(put(k, i as u64 + 1));
        }
        let mut it = l.iter();

        it.seek(InternalKey::for_seek(b"c", u64::MAX >> 8).encoded());
        assert!(it.valid());
        assert_eq!(&it.entry().key[..], b"d");

        it.seek(InternalKey::for_seek(b"d", u64::MAX >> 8).encoded());
        assert!(it.valid());
        assert_eq!(&it.entry().key[..], b"d");

        it.seek(InternalKey::for_seek(b"g", u64::MAX >> 8).encoded());
        assert!(!it.valid());
    }

    #[test]
    fn seek_respects_snapshot_seqno() {
        let l = SkipList::new();
        l.insert(put("k", 5));
        l.insert(put("k", 10));
        // Seeking at snapshot 7 must land on seqno 5, skipping seqno 10.
        let mut it = l.iter();
        it.seek(InternalKey::for_seek(b"k", 7).encoded());
        assert!(it.valid());
        assert_eq!(it.entry().seqno, 5);
        // Seeking at snapshot 10 lands on seqno 10.
        it.seek(InternalKey::for_seek(b"k", 10).encoded());
        assert_eq!(it.entry().seqno, 10);
    }

    #[test]
    fn iteration_via_cursor_matches_entries() {
        let l = SkipList::new();
        for i in 0..100u64 {
            l.insert(put(&format!("key{i:03}"), i + 1));
        }
        let mut it = l.iter();
        it.seek_to_first();
        let mut count = 0;
        let mut last: Option<InternalKey> = None;
        while it.valid() {
            let ik = it.entry().internal_key();
            if let Some(prev) = &last {
                assert!(prev < &ik, "order violated");
            }
            last = Some(ik);
            count += 1;
            it.next();
        }
        assert_eq!(count, 100);
    }

    #[test]
    fn large_random_insert_stays_sorted() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        let l = SkipList::new();
        let mut n = 0u64;
        for _ in 0..5000 {
            n += 1;
            let k: u32 = rng.gen_range(0..100_000);
            l.insert(put(&format!("{k:08}"), n));
        }
        let mut prev: Option<InternalKey> = None;
        for e in l.entries() {
            let ik = e.internal_key();
            if let Some(p) = &prev {
                assert!(p < &ik);
            }
            prev = Some(ik);
        }
        assert_eq!(l.len(), 5000);
    }

    #[test]
    fn crosses_chunk_boundaries() {
        // More entries than the first chunk holds: indices span chunks
        // and every node must remain reachable and ordered.
        let l = SkipList::new();
        let n = (BASE_CHUNK * 3 + 17) as u64;
        for i in 0..n {
            l.insert(put(&format!("{i:08}"), i + 1));
        }
        assert_eq!(l.len(), n as usize);
        let mut prev: Option<InternalKey> = None;
        let mut count = 0usize;
        for e in l.entries() {
            let ik = e.internal_key();
            if let Some(p) = &prev {
                assert!(p < &ik);
            }
            prev = Some(ik);
            count += 1;
        }
        assert_eq!(count, n as usize);
    }

    #[test]
    fn locate_maps_indices_into_chunks() {
        assert_eq!(SkipList::locate(0), (0, 0));
        assert_eq!(
            SkipList::locate((BASE_CHUNK - 1) as u32),
            (0, BASE_CHUNK - 1)
        );
        assert_eq!(SkipList::locate(BASE_CHUNK as u32), (1, 0));
        assert_eq!(
            SkipList::locate((3 * BASE_CHUNK - 1) as u32),
            (1, 2 * BASE_CHUNK - 1)
        );
        assert_eq!(SkipList::locate((3 * BASE_CHUNK) as u32), (2, 0));
        assert_eq!(SkipList::locate((7 * BASE_CHUNK) as u32), (3, 0));
    }

    #[test]
    fn concurrent_readers_during_inserts() {
        // One writer inserting while readers continuously traverse: the
        // readers must always observe a sorted prefix of the inserts.
        use std::sync::atomic::{AtomicBool, Ordering};
        let l = SkipList::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let mut prev: Option<InternalKey> = None;
                        let mut seen = 0usize;
                        for e in l.entries() {
                            let ik = e.internal_key();
                            if let Some(p) = &prev {
                                assert!(p < &ik, "reader saw order violation");
                            }
                            prev = Some(ik);
                            seen += 1;
                        }
                        // len() was incremented for at least the entries
                        // linked before this traversal started.
                        let _ = seen;
                    }
                });
            }
            for i in 0..20_000u64 {
                l.insert(put(&format!("{:08}", (i * 7919) % 100_000), i + 1));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(l.len(), 20_000);
    }

    #[test]
    fn concurrent_seeks_never_see_past_their_snapshot() {
        // Regression: `lower_bound` used to re-load `preds[0]`'s level-0
        // link after the predecessor walk. A writer stacking newer
        // versions of the same key could splice one in between the walk
        // and the re-load, handing the seek a node *before* its target —
        // an entry newer than the reader's snapshot.
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let l = SkipList::new();
        l.insert(put("hot", 1));
        let published = AtomicU64::new(1);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = published.load(Ordering::Acquire);
                        let mut it = l.iter();
                        it.seek(InternalKey::for_seek(b"hot", snapshot).encoded());
                        assert!(it.valid());
                        let e = it.entry();
                        assert_eq!(&e.key[..], b"hot");
                        assert!(
                            e.seqno <= snapshot,
                            "seek at snapshot {snapshot} returned seqno {}",
                            e.seqno
                        );
                    }
                });
            }
            for seq in 2..40_000u64 {
                l.insert(put("hot", seq));
                published.store(seq, Ordering::Release);
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn approximate_bytes_grows_with_content() {
        let l = SkipList::new();
        assert_eq!(l.approximate_bytes(), 0);
        l.insert(put("abc", 1));
        let after_one = l.approximate_bytes();
        assert!(after_one > 0);
        l.insert(put("defghij", 2));
        assert!(l.approximate_bytes() > after_one);
    }

    #[test]
    fn tombstones_coexist_with_puts() {
        let l = SkipList::new();
        l.insert(put("a", 1));
        l.insert(Entry::tombstone(&b"a"[..], 2, 99));
        let entries: Vec<&Entry> = l.entries().collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].kind, ValueKind::Tombstone);
        assert_eq!(entries[0].dkey, 99);
        assert_eq!(entries[1].kind, ValueKind::Put);
    }

    #[test]
    fn different_seeds_same_contents() {
        let a = SkipList::with_seed(1);
        let b = SkipList::with_seed(999_999);
        for i in 0..200u64 {
            let e = put(&format!("{:04}", (i * 7919) % 1000), i + 1);
            a.insert(e.clone());
            b.insert(e);
        }
        let ka: Vec<_> = a.entries().map(|e| e.internal_key()).collect();
        let kb: Vec<_> = b.entries().map(|e| e.internal_key()).collect();
        assert_eq!(ka, kb);
    }
}
