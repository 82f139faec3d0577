//! A sharded, scan-resistant page cache for decoded data pages.
//!
//! Keyed by `(table cache-id, page offset)`. Tables get a process-unique
//! cache id at open, so reusing file numbers across databases cannot
//! alias. Sharding (16 ways by key hash) keeps lock contention off the
//! read path; within a shard, recency is an intrusive doubly-linked
//! list over a slab of nodes (indices, no unsafe) — O(1) per touch,
//! insert, and eviction.
//!
//! # Scan resistance
//!
//! Each shard runs a segmented LRU: new pages enter a *probation*
//! segment and are promoted to the *protected* segment (capped at
//! `PROTECTED_NUM`/`PROTECTED_DEN` of the shard) only on a repeat
//! hit. Evictions drain probation first, so a one-pass scan or a
//! compaction's output stream churns through probation without
//! displacing the hot set that has proven itself with re-references.
//! Overflowing the protected cap demotes its tail back to probation
//! rather than evicting outright, preserving a second chance.
//!
//! # Residency
//!
//! A page is resident only while its table is live, and it is born
//! resident when it is written. A [`CacheLease`] is a table's claim on
//! the cache: the builder writing the table inserts each finished data
//! page under it ([`BlockCache::prepopulate`] — probation, like any new
//! page, so a bulk flush or compaction cannot displace the protected
//! set), the open table inherits it, and dropping it — with the table's
//! last handle, or with a build that never became a table — erases the
//! pages ([`BlockCache::erase`]). Compaction inputs read through
//! [`BlockCache::peek`], which moves nothing.
//!
//! # Dynamic resize
//!
//! [`BlockCache::resize`] retargets the byte budget at runtime and
//! evicts to fit immediately. The memory budget in `acheron-core` uses
//! this to shrink or grow the cache as pinned table metadata grows or
//! shrinks while the database is serving traffic; concurrent gets and
//! inserts see only a per-shard lock, never a global pause.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::block::Block;

const SHARDS: usize = 16;

/// Numerator of the protected segment's share of a shard's capacity.
const PROTECTED_NUM: usize = 4;
/// Denominator of the protected segment's share of a shard's capacity.
const PROTECTED_DEN: usize = 5;

/// Sentinel index terminating an intrusive list.
const NIL: u32 = u32::MAX;

/// Key of one cached page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// The owning table's process-unique cache id.
    pub table: u64,
    /// Byte offset of the page within its file.
    pub offset: u64,
}

/// Which recency segment a node currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

/// One slab slot: a cached page threaded into its segment's list.
struct Node {
    key: PageKey,
    /// `None` while the slot sits on the free list.
    block: Option<Block>,
    size: usize,
    prev: u32,
    next: u32,
    seg: Segment,
}

/// Head/tail of one intrusive list plus its byte accounting.
struct List {
    head: u32,
    tail: u32,
    bytes: usize,
}

impl List {
    fn new() -> List {
        List {
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }
}

/// Eviction work done inside one shard call, reported back so the
/// cache-wide counters can be bumped outside the shard lock.
#[derive(Default, Clone, Copy)]
struct Evicted {
    count: u64,
    bytes: u64,
}

struct Shard {
    map: HashMap<PageKey, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    probation: List,
    protected: List,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            probation: List::new(),
            protected: List::new(),
            capacity,
        }
    }

    fn bytes(&self) -> usize {
        self.probation.bytes + self.protected.bytes
    }

    fn protected_cap(&self) -> usize {
        self.capacity / PROTECTED_DEN * PROTECTED_NUM
    }

    fn list_mut(&mut self, seg: Segment) -> &mut List {
        match seg {
            Segment::Probation => &mut self.probation,
            Segment::Protected => &mut self.protected,
        }
    }

    /// Detach `idx` from whichever list holds it.
    fn unlink(&mut self, idx: u32) {
        let (prev, next, seg, size) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next, n.seg, n.size)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.list_mut(seg).head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.list_mut(seg).tail = prev;
        }
        self.list_mut(seg).bytes -= size;
    }

    /// Attach `idx` at the MRU end of `seg`.
    fn push_front(&mut self, idx: u32, seg: Segment) {
        let size = self.nodes[idx as usize].size;
        let old_head = self.list_mut(seg).head;
        {
            let n = &mut self.nodes[idx as usize];
            n.seg = seg;
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        }
        let list = self.list_mut(seg);
        list.head = idx;
        if list.tail == NIL {
            list.tail = idx;
        }
        list.bytes += size;
    }

    /// Return `idx` to the free list.
    fn release(&mut self, idx: u32) {
        let n = &mut self.nodes[idx as usize];
        n.block = None;
        n.size = 0;
        self.free.push(idx);
    }

    /// Evict one page — probation tail first, protected tail only when
    /// probation is empty. Returns the bytes freed (0 means empty).
    fn evict_one(&mut self) -> usize {
        let victim = if self.probation.tail != NIL {
            self.probation.tail
        } else if self.protected.tail != NIL {
            self.protected.tail
        } else {
            return 0;
        };
        let size = self.nodes[victim as usize].size;
        self.remove(victim);
        size
    }

    /// Evict until the shard fits its capacity (plus `incoming` bytes
    /// about to be inserted).
    fn evict_to_fit(&mut self, incoming: usize) -> Evicted {
        let mut ev = Evicted::default();
        while self.bytes() + incoming > self.capacity {
            let freed = self.evict_one();
            if freed == 0 {
                break;
            }
            ev.count += 1;
            ev.bytes += freed as u64;
        }
        ev
    }

    fn get(&mut self, key: &PageKey) -> Option<Block> {
        let idx = *self.map.get(key)?;
        let block = self.nodes[idx as usize]
            .block
            .clone()
            .expect("mapped node holds a block");
        // A repeat reference earns protection; a protected hit just
        // refreshes recency. Either way the touch is O(1) list surgery.
        self.unlink(idx);
        self.push_front(idx, Segment::Protected);
        // Keep the protected segment inside its cap by demoting its
        // tail — a second chance in probation, not an eviction.
        while self.protected.bytes > self.protected_cap()
            && self.protected.tail != self.protected.head
        {
            let tail = self.protected.tail;
            self.unlink(tail);
            self.push_front(tail, Segment::Probation);
        }
        Some(block)
    }

    /// The page under `key`, leaving recency and segment untouched.
    fn peek(&self, key: &PageKey) -> Option<Block> {
        let idx = *self.map.get(key)?;
        self.nodes[idx as usize].block.clone()
    }

    /// Drop every page of `table`. A full pass over the shard's map:
    /// table deaths are orders of magnitude rarer than page touches, so
    /// the hot paths carry no per-table index for this.
    fn erase(&mut self, table: u64) {
        let doomed: Vec<u32> = self
            .map
            .iter()
            .filter(|(key, _)| key.table == table)
            .map(|(_, &idx)| idx)
            .collect();
        for idx in doomed {
            self.remove(idx);
        }
    }

    /// Unmap `idx` and return its slot to the free list.
    fn remove(&mut self, idx: u32) {
        let key = self.nodes[idx as usize].key;
        self.unlink(idx);
        self.map.remove(&key);
        self.release(idx);
    }

    fn insert(&mut self, key: PageKey, block: Block, size: usize) -> Evicted {
        if size > self.capacity {
            return Evicted::default(); // larger than the whole shard: not cacheable
        }
        if let Some(&old) = self.map.get(&key) {
            self.remove(old);
        }
        let ev = self.evict_to_fit(size);
        let idx = match self.free.pop() {
            Some(i) => {
                let n = &mut self.nodes[i as usize];
                n.key = key;
                n.block = Some(block);
                n.size = size;
                i
            }
            None => {
                let i = self.nodes.len() as u32;
                self.nodes.push(Node {
                    key,
                    block: Some(block),
                    size,
                    prev: NIL,
                    next: NIL,
                    seg: Segment::Probation,
                });
                i
            }
        };
        self.map.insert(key, idx);
        // New pages start on probation; only a repeat hit promotes.
        self.push_front(idx, Segment::Probation);
        ev
    }

    fn resize(&mut self, capacity: usize) -> Evicted {
        self.capacity = capacity;
        let mut ev = self.evict_to_fit(0);
        // Entries that fit the old shard but exceed the new one linger
        // until evicted; a too-small protected cap self-corrects on the
        // next hit. Nothing else to do eagerly.
        if self.bytes() > self.capacity {
            // Capacity below the smallest resident entry: drop all.
            while self.bytes() > 0 {
                let freed = self.evict_one();
                ev.count += 1;
                ev.bytes += freed as u64;
            }
        }
        ev
    }
}

/// A byte-bounded, scan-resistant page cache shared by all tables of a
/// database — or, under sharded deployments, by the whole fleet (the
/// budget is global, not per shard-database).
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    inserted_bytes: AtomicU64,
    prepopulated_bytes: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity", &self.capacity.load(Ordering::Relaxed))
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl BlockCache {
    /// A cache bounded by `capacity_bytes` (split evenly across shards).
    pub fn new(capacity_bytes: usize) -> BlockCache {
        let per_shard = (capacity_bytes / SHARDS).max(1);
        BlockCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            capacity: AtomicUsize::new(capacity_bytes),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            inserted_bytes: AtomicU64::new(0),
            prepopulated_bytes: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &PageKey) -> &Mutex<Shard> {
        // Cheap mix of table and offset; offsets are page-aligned-ish so
        // fold the high bits in.
        let h = key
            .table
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key.offset >> 6);
        &self.shards[(h as usize) % SHARDS]
    }

    fn record_evicted(&self, ev: Evicted) {
        if ev.count > 0 {
            self.evictions.fetch_add(ev.count, Ordering::Relaxed);
            self.evicted_bytes.fetch_add(ev.bytes, Ordering::Relaxed);
        }
    }

    /// Look up a page.
    pub fn get(&self, key: &PageKey) -> Option<Block> {
        let got = self.shard_of(key).lock().get(key);
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Look up a page without touching recency or the hit/miss
    /// counters: for one-pass readers (compaction inputs) that should
    /// use what is resident but must not look like demand.
    pub fn peek(&self, key: &PageKey) -> Option<Block> {
        self.shard_of(key).lock().peek(key)
    }

    /// Insert a page of `size` bytes read on a miss.
    pub fn insert(&self, key: PageKey, block: Block, size: usize) {
        self.insert_counted(key, block, size, &self.inserted_bytes);
    }

    /// Insert a page of `size` bytes that was just written (flush or
    /// compaction output). Same placement as a miss fill — probation —
    /// but counted apart: these bytes follow the write rate, not read
    /// demand, so `inserted_bytes` stays a count of miss fills.
    pub fn prepopulate(&self, key: PageKey, block: Block, size: usize) {
        self.insert_counted(key, block, size, &self.prepopulated_bytes);
    }

    fn insert_counted(&self, key: PageKey, block: Block, size: usize, counter: &AtomicU64) {
        let ev = self.shard_of(&key).lock().insert(key, block, size);
        counter.fetch_add(size as u64, Ordering::Relaxed);
        self.record_evicted(ev);
    }

    /// Drop every page of `table` (its last handle is gone). Not an
    /// eviction: nothing live was displaced, so no counter moves.
    pub fn erase(&self, table: u64) {
        for shard in &self.shards {
            shard.lock().erase(table);
        }
    }

    /// Retarget the total byte budget and evict to fit. Safe to call
    /// while the cache is serving traffic: each shard resizes under its
    /// own lock, so readers at most wait one shard's eviction sweep.
    pub fn resize(&self, capacity_bytes: usize) {
        self.capacity.store(capacity_bytes, Ordering::Relaxed);
        let per_shard = (capacity_bytes / SHARDS).max(1);
        for shard in &self.shards {
            let ev = shard.lock().resize(per_shard);
            self.record_evicted(ev);
        }
    }

    /// The current total byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Pages evicted so far (capacity pressure, not replacement).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Bytes evicted so far.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes.load(Ordering::Relaxed)
    }

    /// Bytes inserted so far (admitted or not; oversized pages count as
    /// offered work on the fill path).
    pub fn inserted_bytes(&self) -> u64 {
        self.inserted_bytes.load(Ordering::Relaxed)
    }

    /// Bytes written through by flushes and compactions so far.
    pub fn prepopulated_bytes(&self) -> u64 {
        self.prepopulated_bytes.load(Ordering::Relaxed)
    }

    /// Total cached bytes (approximate across shards).
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes()).sum()
    }
}

/// Allocate a process-unique table cache id.
pub fn next_table_cache_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One table's claim on a cache: the id its pages are keyed by, held
/// by whoever currently owns the table — the builder writing it, then
/// the open [`Table`](crate::reader::Table). Dropping the lease erases
/// the pages, so an abandoned build, a failed open, and the last handle
/// of a replaced table all leave nothing resident.
pub struct CacheLease {
    cache: Arc<BlockCache>,
    table: u64,
}

impl CacheLease {
    /// Claim a fresh table id in `cache`.
    pub fn new(cache: Arc<BlockCache>) -> CacheLease {
        CacheLease {
            cache,
            table: next_table_cache_id(),
        }
    }

    /// The cache the lease is on.
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// The cache key of this table's page at `offset`.
    pub fn key(&self, offset: u64) -> PageKey {
        PageKey {
            table: self.table,
            offset,
        }
    }
}

impl Drop for CacheLease {
    fn drop(&mut self) {
        self.cache.erase(self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use acheron_types::{InternalKey, ValueKind};
    use bytes::Bytes;

    fn block(tag: u8) -> (Block, usize) {
        let mut b = BlockBuilder::new(4);
        let ik = InternalKey::new(&[tag], 1, ValueKind::Put);
        b.add(ik.encoded(), 0, &[tag; 100]);
        let raw = b.finish();
        let size = raw.len();
        (Block::new(Bytes::from(raw)).unwrap(), size)
    }

    /// Keys guaranteed to land in one shard: same table, offsets strided
    /// by `64 * SHARDS` so the shard index is identical.
    fn same_shard_key(table: u64, i: u64) -> PageKey {
        PageKey {
            table,
            offset: i * 64 * (SHARDS as u64),
        }
    }

    #[test]
    fn hit_and_miss() {
        let cache = BlockCache::new(1 << 20);
        let key = PageKey {
            table: 1,
            offset: 0,
        };
        assert!(cache.get(&key).is_none());
        let (b, size) = block(7);
        cache.insert(key, b, size);
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.inserted_bytes(), size as u64);
    }

    #[test]
    fn distinct_tables_do_not_alias() {
        let cache = BlockCache::new(1 << 20);
        let (b, size) = block(1);
        cache.insert(
            PageKey {
                table: 1,
                offset: 64,
            },
            b,
            size,
        );
        assert!(cache
            .get(&PageKey {
                table: 2,
                offset: 64
            })
            .is_none());
        assert!(cache
            .get(&PageKey {
                table: 1,
                offset: 64
            })
            .is_some());
    }

    #[test]
    fn eviction_prefers_cold_entries() {
        // Single-shard-sized cache: keep it deterministic by using keys
        // that land in the same shard.
        let cache = BlockCache::new(16 * 200); // per-shard capacity 200
        let base = same_shard_key(3, 0);
        let (b, size) = block(0);
        assert!(
            size > 100 && size < 200,
            "one block fits, two must overflow a shard: {size}"
        );
        cache.insert(base, b, size);
        let second = same_shard_key(3, 1);
        let (b2, s2) = block(1);
        // Touch the first so it is most-recent, then insert a second
        // that overflows the shard; only one of them can remain.
        cache.get(&base);
        cache.insert(second, b2, s2);
        assert!(
            cache.get(&base).is_some() ^ cache.get(&second).is_some(),
            "exactly one of the two blocks fits"
        );
        assert!(cache.evictions() >= 1);
        assert!(cache.evicted_bytes() >= size.min(s2) as u64);
    }

    #[test]
    fn repeat_hits_survive_a_cold_scan() {
        // Scan resistance: a page with repeat hits sits in the protected
        // segment, and a one-pass stream of cold pages (each inserted
        // and never touched again) churns probation without displacing
        // it.
        let (b, size) = block(0);
        let cache = BlockCache::new(16 * (size * 4)); // shard holds ~4 blocks
        let hot = same_shard_key(5, 0);
        cache.insert(hot, b, size);
        assert!(cache.get(&hot).is_some(), "promote to protected");
        for i in 1..50u64 {
            let (cold, s) = block((i % 250) as u8);
            cache.insert(same_shard_key(5, i), cold, s);
        }
        assert!(
            cache.get(&hot).is_some(),
            "a 50-block cold scan must not evict the re-referenced page"
        );
    }

    #[test]
    fn resize_evicts_to_fit() {
        let (_b, size) = block(0);
        let cache = BlockCache::new(16 * (size * 8));
        for i in 0..8u64 {
            let (blk, s) = block(i as u8);
            cache.insert(same_shard_key(7, i), blk, s);
        }
        let before = cache.used_bytes();
        assert!(before >= size * 8);
        cache.resize(16 * (size * 2));
        assert!(
            cache.used_bytes() <= cache.capacity_bytes(),
            "resize must evict to fit: {} used vs {} capacity",
            cache.used_bytes(),
            cache.capacity_bytes()
        );
        assert!(cache.evictions() >= 6);
        // Growing back does not resurrect evicted pages.
        cache.resize(16 * (size * 8));
        assert!(cache.used_bytes() <= size * 2 * 16);
        // And the cache still works.
        let (blk, s) = block(42);
        let key = same_shard_key(7, 99);
        cache.insert(key, blk, s);
        assert!(cache.get(&key).is_some());
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = BlockCache::new(16); // per-shard capacity 1
        let key = PageKey {
            table: 1,
            offset: 0,
        };
        let (b, size) = block(9);
        cache.insert(key, b, size);
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_and_keeps_accounting() {
        let cache = BlockCache::new(1 << 20);
        let key = PageKey {
            table: 1,
            offset: 0,
        };
        let (b1, s1) = block(1);
        let (b2, s2) = block(2);
        cache.insert(key, b1, s1);
        cache.insert(key, b2, s2);
        assert_eq!(cache.used_bytes(), s2);
        let got = cache.get(&key).unwrap();
        let mut it = got.iter();
        it.seek_to_first().unwrap();
        assert_eq!(&it.value()[..], &[2u8; 100][..]);
    }

    #[test]
    fn accounting_stays_exact_under_churn() {
        // Slab reuse, promotion, demotion, and eviction must keep the
        // byte ledger exact: at quiescence, used == sum of live sizes.
        let (probe, size) = block(0);
        drop(probe);
        let cache = BlockCache::new(16 * (size * 3));
        for round in 0..20u64 {
            for i in 0..6u64 {
                let (blk, s) = block(((round * 6 + i) % 250) as u8);
                cache.insert(same_shard_key(9, i), blk, s);
                cache.get(&same_shard_key(9, (i + round) % 6));
            }
        }
        assert!(cache.used_bytes() <= cache.capacity_bytes());
        // Every resident key must still be readable.
        let mut live = 0;
        for i in 0..6u64 {
            if cache.get(&same_shard_key(9, i)).is_some() {
                live += 1;
            }
        }
        assert!(live >= 1, "churn must not empty the shard");
    }

    #[test]
    fn peek_neither_promotes_nor_counts() {
        let (b, size) = block(0);
        let cache = BlockCache::new(16 * (size * 4)); // shard holds ~4 blocks
        let peeked = same_shard_key(5, 0);
        cache.insert(peeked, b, size);
        for _ in 0..3 {
            assert!(cache.peek(&peeked).is_some());
        }
        assert!(cache.peek(&same_shard_key(5, 999)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // Still on probation: the cold stream that spares a page with a
        // repeat hit (`repeat_hits_survive_a_cold_scan`) pushes this one out.
        for i in 1..50u64 {
            let (cold, s) = block((i % 250) as u8);
            cache.insert(same_shard_key(5, i), cold, s);
        }
        assert!(cache.peek(&peeked).is_none());
    }

    #[test]
    fn erase_takes_one_table_and_nothing_else() {
        let cache = BlockCache::new(1 << 20);
        let mut live_bytes = 0;
        for i in 0..40u64 {
            for table in [1u64, 2] {
                let (b, size) = block(i as u8);
                // Spread over every shard.
                let key = PageKey {
                    table,
                    offset: i * 4096,
                };
                cache.insert(key, b, size);
                if i % 2 == 0 {
                    cache.get(&key); // some pages protected, some not
                }
                if table == 2 {
                    live_bytes += size;
                }
            }
        }
        cache.erase(1);
        for i in 0..40u64 {
            let off = i * 4096;
            assert!(cache
                .peek(&PageKey {
                    table: 1,
                    offset: off
                })
                .is_none());
            assert!(cache
                .peek(&PageKey {
                    table: 2,
                    offset: off
                })
                .is_some());
        }
        assert_eq!(cache.used_bytes(), live_bytes);
        assert_eq!(cache.evictions(), 0, "an erase displaces nothing live");
        // Freed slots are reused and the ledger stays exact.
        let (b, size) = block(7);
        cache.insert(
            PageKey {
                table: 3,
                offset: 0,
            },
            b,
            size,
        );
        assert_eq!(cache.used_bytes(), live_bytes + size);
        cache.erase(1); // idempotent
        cache.erase(3);
        assert_eq!(cache.used_bytes(), live_bytes);
    }

    #[test]
    fn prepopulated_bytes_stay_out_of_the_fill_signal() {
        let cache = BlockCache::new(1 << 20);
        let key = PageKey {
            table: 1,
            offset: 0,
        };
        let (b, size) = block(1);
        cache.prepopulate(key, b, size);
        assert_eq!(cache.inserted_bytes(), 0);
        assert_eq!(cache.prepopulated_bytes(), size as u64);
        assert!(cache.get(&key).is_some(), "a written-through page is a hit");
    }

    #[test]
    fn dropping_a_lease_erases_its_pages() {
        let cache = Arc::new(BlockCache::new(1 << 20));
        let keep = CacheLease::new(Arc::clone(&cache));
        let gone = CacheLease::new(Arc::clone(&cache));
        for lease in [&keep, &gone] {
            let (b, size) = block(1);
            cache.insert(lease.key(0), b, size);
        }
        let gone_key = gone.key(0);
        drop(gone);
        assert!(cache.peek(&gone_key).is_none());
        assert!(cache.peek(&keep.key(0)).is_some());
    }

    #[test]
    fn unique_ids_are_unique() {
        let a = next_table_cache_id();
        let b = next_table_cache_id();
        assert_ne!(a, b);
    }
}
