//! Heap-allocation budgets for the entry data path.
//!
//! Timing bounds in `BENCHMARK.json` are 25% wide; allocation counts
//! repeat exactly, so they are the regression gate the timings cannot
//! be. A counting `#[global_allocator]` (per-thread, so parallel tests
//! do not see each other) measures whole operations against `MemFs`
//! with `background_threads = 0`, where every allocation an op causes
//! happens on the calling thread.
//!
//! Counts at the parent of the PR that introduced this file (commit
//! 0884f9e, same harness, allocations + reallocations per operation):
//!
//! | operation                                   | parent | budget |
//! |---------------------------------------------|-------:|-------:|
//! | `put` (20 B key, 100 B value)               | 14.006 |    2.1 |
//! | `delete`                                    | 12.001 |    1.1 |
//! | `get`, memtable hit                         |  2.000 |   half |
//! | `get`, cached-table hit                     | 10.000 |   half |
//! | row of a 50-key `scan` over a cached table  |  3.389 |   half |
//! | entry of `compact_all()` (50k, one version) | 10.933 |      3 |
//! | the same, outputs written through a cache   |      — |      3 |
//!
//! The write budgets are what the path costs today plus its amortized
//! growth (not the 6 and 5 the change set out to reach): a gate looser
//! than the code lets allocations creep back in unnoticed. "half" is
//! half the parent's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use acheron::{Db, DbOptions};
use acheron_vfs::MemFs;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PARENT_GET_MEMTABLE: f64 = 2.0;
const PARENT_GET_TABLE: f64 = 10.0;
const PARENT_SCAN_ROW: f64 = 3.389;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn key(i: u32) -> [u8; 20] {
    let mut k = *b"user0000000000000000";
    let mut n = i;
    for slot in k.iter_mut().rev() {
        if n == 0 {
            break;
        }
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
    k
}

/// A deterministic engine whose write buffer never fills on its own, so
/// a measured loop holds foreground work only. Two levels, so that
/// `compact_all` is exactly one merge of L0 into the bottom.
fn open(cache_bytes: usize) -> Db {
    let opts = DbOptions {
        write_buffer_bytes: 256 << 20,
        block_cache_bytes: cache_bytes,
        max_levels: 2,
        background_threads: 0,
        ..DbOptions::default()
    };
    Db::open(Arc::new(MemFs::new()), "db", opts).expect("open")
}

const VALUE: [u8; 100] = [7u8; 100];

/// Mean allocations per call of `f` over `n` calls, after one warm-up
/// call that pays for lazily created state. The mean carries what
/// amortized growth (the WAL file's buffer, the skiplist's slot chunks)
/// adds: a few thousandths per call.
fn per_op(n: u32, mut f: impl FnMut(u32)) -> f64 {
    f(0);
    allocations(|| (1..=n).for_each(&mut f)) as f64 / f64::from(n)
}

#[track_caller]
fn assert_within(what: &str, measured: f64, budget: f64) {
    eprintln!("{what}: {measured:.3} allocations (budget {budget})");
    assert!(
        measured <= budget,
        "{what}: {measured:.3} allocations, budget {budget}"
    );
}

#[test]
fn writes_and_memtable_reads() {
    let db = open(0);
    let wakeups = db.commit_wakeups();
    let put = per_op(2_000, |i| db.put(&key(i), &VALUE).expect("put"));
    let delete = per_op(2_000, |i| db.delete(&key(10_000 + i)).expect("delete"));
    // One copy of the key, one of the value; nothing for the op list, the
    // WAL record, the internal key, the skiplist node or its tower.
    assert_within("put", put, 2.1);
    assert_within("delete", delete, 1.1);
    assert_eq!(
        db.commit_wakeups(),
        wakeups,
        "an uncontended commit has nobody to wake: no condvar notify, no futex call"
    );
    let get = per_op(2_000, |i| {
        assert!(db.get(&key(i)).expect("get").is_some());
    });
    assert_within("get, memtable hit", get, PARENT_GET_MEMTABLE / 2.0);
}

#[test]
fn table_reads() {
    let db = open(64 << 20);
    for i in 0..50_000 {
        db.put(&key(i), &VALUE).expect("put");
    }
    db.flush().expect("flush");
    for i in 0..50_000 {
        db.get(&key(i)).expect("get");
    }
    let get = per_op(2_000, |i| {
        assert!(db.get(&key(i * 7)).expect("get").is_some());
    });
    assert_within("get, cached-table hit", get, PARENT_GET_TABLE / 2.0);
    let scan = per_op(200, |i| {
        let rows = db.scan(&key(i * 100), &key(i * 100 + 49)).expect("scan");
        assert_eq!(rows.len(), 50);
    });
    assert_within("scan row", scan / 50.0, PARENT_SCAN_ROW / 2.0);
}

/// Allocations per entry of a `compact_all()` that merges four 12,500-
/// entry L0 files into the bottom level.
fn compacted_entry(cache_bytes: usize) -> f64 {
    let db = open(cache_bytes);
    for i in 0..50_000 {
        db.put(&key(i), &VALUE).expect("put");
        if i % 12_500 == 12_499 {
            db.flush().expect("flush");
        }
    }
    let merged = allocations(|| db.compact_all().expect("compact")) as f64 / 50_000.0;
    assert_eq!(
        db.get(&key(49_999)).expect("get").as_deref(),
        Some(&VALUE[..])
    );
    merged
}

#[test]
fn compaction() {
    // One for the surviving key; the rest is per page, not per entry.
    assert_within("compacted entry", compacted_entry(0), 3.0);
    // With a cache each output page is also written through: one copy of
    // the page's bytes, +0.03 per entry at ~30 entries a page. The inputs
    // are read from the cache (no file read, so no buffer for one), which
    // gives most of that back: 1.218 without a cache, 1.226 with.
    assert_within(
        "compacted entry, written through",
        compacted_entry(64 << 20),
        3.0,
    );
}
