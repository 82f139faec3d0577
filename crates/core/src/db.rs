//! The Acheron database: a delete-aware LSM engine.
//!
//! # Concurrency model
//!
//! Neither hot path holds the global state lock across I/O.
//!
//! **Writes** go through a group-commit queue: each committer enqueues
//! its op batch; the first to find no leader active drains the queue,
//! appends one WAL record per batch, fsyncs once for the whole group
//! (outside the state lock), publishes the group's memtable inserts and
//! sequence numbers, and hands every follower its result through a
//! condvar. Memtable sealing and secondary range deletes take the same
//! commit-exclusion token the leader holds, so the WAL writer and the
//! seqno allocator are single-owner without a long-held lock.
//!
//! **Reads** never touch the state lock at all: every structural change
//! publishes an immutable `ReadView` (active memtable handle, sealed
//! queue, version pointer, visible seqno, range tombstones) behind an
//! `Arc` swap; `get`/`scan`/`snapshot` clone the current view in O(1)
//! and run entirely against it. Lookups early-exit: sources are probed
//! newest-first (memtable, sealed queue, L0 by max seqno, deeper
//! levels) and a source whose seqno ceiling cannot beat the best
//! version found so far is skipped without I/O.
//!
//! Maintenance — memtable flushes and compactions, including FADE's
//! TTL-driven ones — runs on a pool of background worker threads sized
//! by [`DbOptions::background_threads`]. When the L0 file count or the
//! sealed queue exceeds its configured limit, writes are first slowed
//! and then stalled on a condition variable until the workers catch up.
//! With `background_threads = 0` the committing thread is the worker:
//! it runs the same maintenance step (the `maintenance` submodule)
//! inside the write path, so a given op sequence always produces the
//! same tree — the deterministic mode the experiments use
//! (`DbOptions::small`). The full lock hierarchy, task-claiming
//! protocol, and crash-safety invariants are documented in
//! `ARCHITECTURE.md` at the repository root.
//!
//! # Secondary range-delete semantics
//!
//! `range_delete_secondary(lo, hi)` erases every entry whose delete key
//! lies in `[lo, hi]` as of the call, under **newest-version-decides**
//! visibility: a key whose newest visible version is erased reads as
//! deleted (older versions do *not* resurface — their visibility is
//! decided once, independent of when compaction physically removes
//! bytes). Physical reclamation happens at bottommost compactions,
//! which purge covered entries and — under KiWi — drop fully covered
//! pages without reading them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use acheron_memtable::Memtable;
use acheron_types::{
    DeleteKeyRange, Entry, Error, RangeTombstone, Result, SeqNo, Tick, ValuePointer, MAX_SEQNO,
};
use acheron_vfs::Vfs;
use acheron_vlog::{VlogReader, VlogWriter};
use acheron_wal::{LogWriter, WalOp};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::manifest::{EditBatch, ManifestWriter, VersionEdit};
use crate::memory::{MemoryBudget, TunerSample};
use crate::obs::trace::{
    DeleteAudit, DeleteLedger, OpTrace, TraceBuf, TraceOp, TraceStage, Tracer,
};
use crate::obs::{min_tick, Event, EventLog, EventSnapshot, TombstoneGauges};
use crate::options::DbOptions;
use crate::picker::{entry_hull, CompactionReason, CompactionTask, Picker};
use crate::stats::DbStats;
use crate::version::Version;

mod maintenance;
mod recovery;
use maintenance::{MaintTask, FLUSH, TREE, VLOG_GC};
use recovery::Bootstrap;

/// A sealed (immutable) memtable queued for flush, together with the
/// WAL segment that made it durable.
struct ImmMemtable {
    mem: Arc<Memtable>,
    /// The WAL segment holding exactly this memtable's records; it can
    /// be retired once the memtable's flush is installed.
    wal_number: u64,
    /// Highest sequence number in the memtable (it is non-empty).
    max_seqno: SeqNo,
}

/// Per-segment byte accounting for the value log.
#[derive(Debug, Default, Clone, Copy)]
struct VlogSegmentAcct {
    /// Frame bytes whose tree reference is still live (or still pending
    /// in the write buffer / WAL).
    live_bytes: u64,
    /// Frame bytes whose last tree reference has been dropped.
    dead_bytes: u64,
    /// Stamp of the earliest dead extent: the covering tombstone's
    /// delete tick when a delete forced the drop, else the compaction
    /// tick. Vlog GC must reclaim the extent within `D_th` of this.
    oldest_dead_tick: Option<Tick>,
    /// Fully rewritten by GC but kept on disk because registered
    /// snapshots may still dereference into it; deleted once the
    /// snapshot set drains.
    retired: bool,
}

/// Value-log accounting across segments. Guarded by a leaf mutex: taken
/// after any other lock, never held across I/O.
#[derive(Default)]
struct VlogState {
    segments: BTreeMap<u64, VlogSegmentAcct>,
    /// Segments GC deleted whose (shadowed) pointers may still sit in
    /// live tables until compaction rewrites them. Mirrored into the
    /// manifest as [`VersionEdit::DropVlogSegment`] so recovery and
    /// `doctor` can tell expected-stale references from dangling ones;
    /// pruned at recovery once no table or WAL names the segment.
    dropped: BTreeSet<u64>,
}

impl VlogState {
    fn add_live(&mut self, segment: u64, bytes: u64) {
        self.segments.entry(segment).or_default().live_bytes += bytes;
    }

    /// Move `bytes` of `segment` from live to dead, stamped `stamp`.
    /// A segment GC already deleted is silently ignored — the drop that
    /// reports it is an older shadowed version whose bytes were already
    /// reclaimed wholesale.
    fn mark_dead(&mut self, segment: u64, bytes: u64, stamp: Tick) {
        if let Some(acct) = self.segments.get_mut(&segment) {
            acct.live_bytes = acct.live_bytes.saturating_sub(bytes);
            acct.dead_bytes += bytes;
            acct.oldest_dead_tick = Some(acct.oldest_dead_tick.map_or(stamp, |t| t.min(stamp)));
        }
    }
}

struct State {
    mem: Arc<Memtable>,
    /// Sealed memtables awaiting flush, oldest first. Flushes install in
    /// queue order so `persisted_seqno` advances monotonically.
    imms: VecDeque<ImmMemtable>,
    /// WAL segments that may still hold unflushed data (the active one
    /// last; one segment per queued sealed memtable before it).
    live_wals: Vec<u64>,
    version: Arc<Version>,
    persisted_seqno: SeqNo,
    manifest: ManifestWriter,
    /// Earliest tick at which a FADE TTL expires somewhere in the tree
    /// (None = nothing expires / FADE off). Maintained incrementally so
    /// the write path checks it in O(1).
    ttl_deadline: Option<Tick>,
}

/// Everything the read paths need, captured immutably. Structural
/// mutations (seal, flush install, compaction install, range delete)
/// build a fresh view under the state lock and swap the shared `Arc`;
/// readers clone the `Arc` in O(1) and run against it with no further
/// synchronization — in particular, no lock is held across SSTable
/// block reads, and a view outlives any concurrent compaction (the
/// `Arc<Table>`s pin the files).
///
/// Plain commits do **not** republish the view: they insert into the
/// concurrently readable `mem` the view already references and advance
/// [`DbCore::visible_seqno`]. The ordering rule for latest-state reads
/// is *load `visible_seqno` first, then the view*: every write counted
/// by the loaded seqno already sits in a memtable / table `Arc` that is
/// carried into whichever view the subsequent load observes, so the
/// ceiling can never name an entry the view lacks. (The reverse order
/// could: a seal between the two loads would strand fresh writes in a
/// memtable the stale view does not reference.)
struct ReadView {
    mem: Arc<Memtable>,
    /// Sealed memtables, newest first (the probe order for lookups).
    imms: Vec<Arc<Memtable>>,
    version: Arc<Version>,
    /// All live range tombstones; readers filter by seqno in place
    /// rather than allocating a filtered copy per lookup.
    rts: Arc<[RangeTombstone]>,
}

/// One committer's entry in the group-commit queue. The enqueuer parks
/// on [`DbCore::commit_cv`] until a leader fills `result`.
#[derive(Default)]
struct CommitRequest {
    /// Set (under no lock but before the leader's wakeup notify) once
    /// the group's fate is decided. Errors are distributed as strings
    /// (one failure fails the whole group) because [`Error`] is not
    /// `Clone`.
    result: Mutex<Option<std::result::Result<(), String>>>,
}

/// A queued (request, ops) pair the next leader will commit.
struct PendingCommit {
    req: Arc<CommitRequest>,
    ops: Vec<WalOp>,
}

/// Group-commit coordination state. Guarded by [`DbCore::commit`].
#[derive(Default)]
struct CommitQueue {
    queue: Vec<PendingCommit>,
    /// True while a commit leader (or an exclusive section: memtable
    /// seal, range delete) owns the WAL writer + seqno allocator.
    exclusive: bool,
    /// Threads parked on [`DbCore::commit_cv`]. Releasing the exclusion
    /// notifies only when this is non-zero: a condvar notify is a futex
    /// syscall even with nobody to wake, and an uncontended writer would
    /// otherwise pay it on every commit.
    waiters: usize,
}

/// RAII token for the commit-exclusion domain: while held, no commit
/// leader runs and no other exclusive section is active, so the holder
/// may seal the memtable (swap the WAL writer) or allocate seqnos.
/// Acquired *before* the state lock (see the lock hierarchy in
/// ARCHITECTURE.md).
struct CommitExclusion<'a> {
    core: &'a DbCore,
}

impl Drop for CommitExclusion<'_> {
    fn drop(&mut self) {
        self.core.release_commit_exclusion();
    }
}

/// Executor control state. Guarded by `DbCore::maint`, which is never
/// held while `DbCore::state` is held (see ARCHITECTURE.md for the lock
/// hierarchy).
#[derive(Default)]
struct MaintState {
    /// Set once at teardown; workers exit their loop when they see it.
    shutdown: bool,
    /// Number of outstanding [`Db::pause_maintenance`] / internal pause
    /// guards. Workers do not start new steps while it is non-zero.
    pause_depth: usize,
    /// Workers currently inside a maintenance step. A pause waits for
    /// this to drain to zero before its guard is returned.
    in_flight: usize,
    /// Bumped by [`DbCore::kick_workers`]; lets a worker detect a kick
    /// that arrived while it was running (so it re-polls instead of
    /// sleeping).
    kicks: u64,
    /// First background failure, sticky until the DB is reopened.
    /// Surfaced by `maintain`/`flush`/`compact_all`/`wait_idle` and by
    /// stalled writes.
    error: Option<String>,
}

/// Everything shared between user handles and background workers.
struct DbCore {
    fs: Arc<dyn Vfs>,
    dir: String,
    opts: DbOptions,
    picker: Picker,
    stats: DbStats,
    cache: Option<Arc<acheron_sstable::BlockCache>>,
    /// Unified memory arbiter, present when
    /// [`DbOptions::memory_budget_bytes`] is non-zero or a sharded
    /// fleet injected a shared budget. Owns the memtable/cache split;
    /// `cache` is resized to its cache share when the tuner moves.
    memory: Option<Arc<MemoryBudget>>,
    /// Whether `cache`/`memory` are shared with sibling engines (one
    /// fleet-wide instance). Shared-scope cache and budget stats are
    /// then reported once by the fleet router, not per shard.
    cache_is_shared: bool,
    /// This engine's last-reported pinned-bytes contribution (filters +
    /// tile metadata of its open tables) to the memory budget. The view
    /// publish path reports deltas against it.
    pinned_contrib: AtomicUsize,
    snapshots: Mutex<BTreeMap<SeqNo, usize>>,
    state: RwLock<State>,
    /// The active WAL writer. Its own mutex (not part of `state`) so a
    /// group fsync never blocks readers or maintenance installs. Only
    /// commit leaders and exclusive sections touch it.
    wal: Mutex<LogWriter>,
    /// Group-commit queue + exclusion flag.
    commit: Mutex<CommitQueue>,
    /// Wakes queued committers (their result arrived, or leadership is
    /// free) and exclusion waiters.
    commit_cv: Condvar,
    /// Times `commit_cv` was notified (see [`Db::commit_wakeups`]).
    commit_wakeups: AtomicU64,
    /// The current read view. Writers to this lock only ever *store* a
    /// prebuilt `Arc` (never hold it across work), so readers observe a
    /// few-instruction critical section — an `Arc` swap in effect.
    view: RwLock<Arc<ReadView>>,
    /// Highest sequence number handed out (WAL-ordered). Advanced only
    /// inside the commit-exclusion domain.
    seq_alloc: AtomicU64,
    /// Highest sequence number published to readers (memtable inserts
    /// complete, result about to be acknowledged).
    visible_seqno: AtomicU64,
    /// File-id allocator, shared lock-free so workers can name output
    /// tables without holding the state lock during a merge.
    next_file_id: AtomicU64,
    maint: Mutex<MaintState>,
    /// Signalled when new work may exist (kicks, unpause, shutdown).
    work_cv: Condvar,
    /// Signalled when a worker finishes a step (pauses and stalled
    /// writers wait on this).
    done_cv: Condvar,
    /// Single-flusher ticket: flushes must install in queue order, so
    /// only one worker owns the front of the sealed queue at a time.
    flush_claimed: AtomicBool,
    /// Flight recorder: lock-free ring of typed maintenance events.
    /// Emission is one atomic seqno plus one slot write, so the hooks
    /// stay on unconditionally.
    obs: EventLog,
    /// Delete-persistence gauges for the installed tree, recomputed by
    /// [`DbCore::publish_view_locked`] (the single version-install
    /// point). A leaf mutex: only ever held for a pointer store/load,
    /// never while any other lock is taken.
    gauges: Mutex<Arc<TombstoneGauges>>,
    /// Value-log append head, created lazily on the first separated
    /// value so separation-off databases (and restarts that never write
    /// a large value) never churn empty segments. Touched only inside
    /// the WAL critical section of a commit leader or by vlog GC; lock
    /// order is `wal` before `vlog`.
    vlog: Mutex<Option<VlogWriter>>,
    /// The segment id a lazily created writer starts at; recovery
    /// bounds it past every segment on disk.
    vlog_next_segment: AtomicU64,
    /// Shared pointer-dereference path with a per-segment fd cache.
    vlog_reader: Arc<VlogReader>,
    /// Per-segment value-log live/dead accounting (leaf mutex).
    vlog_state: Mutex<VlogState>,
    /// Per-op trace sampler + retention buffer. With sampling off its
    /// entire cost is one untaken branch per operation.
    tracer: Tracer,
    /// Delete-lifecycle cohort ledger. Every mutation site already runs
    /// serialized (commit leader, state-lock installs), so this leaf
    /// mutex is uncontended; it is never held across another lock.
    ledger: Mutex<DeleteLedger>,
}

struct DbInner {
    core: Arc<DbCore>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for DbInner {
    fn drop(&mut self) {
        self.core.request_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Handle to an open database. Cheap to clone; all clones share state.
/// Dropping the last handle stops the background workers (joining any
/// in-flight flush/compaction first).
#[derive(Clone)]
pub struct Db {
    inner: Arc<DbInner>,
}

/// A consistent read point. Readers holding a snapshot see exactly the
/// data visible at its sequence number; compactions preserve the
/// versions it needs. Unregisters itself on drop.
pub struct Snapshot {
    core: Arc<DbCore>,
    seqno: SeqNo,
}

impl Snapshot {
    /// The snapshot's sequence number.
    pub fn seqno(&self) -> SeqNo {
        self.seqno
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut snaps = self.core.snapshots.lock();
        if let Some(count) = snaps.get_mut(&self.seqno) {
            *count -= 1;
            if *count == 0 {
                snaps.remove(&self.seqno);
            }
        }
    }
}

/// RAII guard from [`Db::pause_maintenance`]: background workers are
/// quiesced (no step in flight, none will start) until it is dropped.
/// Pauses nest.
pub struct MaintenancePause {
    core: Arc<DbCore>,
}

impl Drop for MaintenancePause {
    fn drop(&mut self) {
        self.core.unpause_raw();
    }
}

/// Internal pause guard used by foreground maintenance entry points.
struct PauseGuard<'a> {
    core: &'a DbCore,
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        self.core.unpause_raw();
    }
}

/// A group of writes applied atomically via [`Db::write_batch`]: they
/// become durable (one WAL record) and visible (consecutive sequence
/// numbers committed together) as a unit.
///
/// ```
/// # use acheron::{Db, DbOptions, db::WriteBatch};
/// # use acheron_vfs::MemFs;
/// # use std::sync::Arc;
/// # let db = Db::open(Arc::new(MemFs::new()), "db", DbOptions::small()).unwrap();
/// let mut batch = WriteBatch::new();
/// batch.put(b"debit:alice", b"-10");
/// batch.put(b"credit:bob", b"+10");
/// batch.delete(b"pending:tx17");
/// db.write_batch(batch).unwrap();
/// ```
#[derive(Debug, Default)]
pub struct WriteBatch {
    ops: Vec<WalOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Queue an insert/update (delete key = 0; use
    /// [`WriteBatch::put_with_dkey`] to tag one).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.ops.push(WalOp::Put {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            dkey: acheron_types::DELETE_KEY_NONE,
        });
        self
    }

    /// Queue an insert/update with an explicit secondary delete key.
    pub fn put_with_dkey(&mut self, key: &[u8], value: &[u8], dkey: u64) -> &mut Self {
        self.ops.push(WalOp::Put {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            dkey,
        });
        self
    }

    /// Queue a point delete. The tombstone's age starts at the tick the
    /// batch commits.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        // Tick 0 placeholder; stamped at commit time below.
        self.ops.push(WalOp::Delete {
            key: Bytes::copy_from_slice(key),
            tick: u64::MAX,
        });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A streaming range scan (see [`Db::range_iter`]): yields live
/// key/value pairs in sort-key order without materializing the range.
pub struct RangeIter {
    merge: crate::merge::MergeIterator,
    hi: Vec<u8>,
    snapshot: SeqNo,
    rts: Vec<RangeTombstone>,
    krts: Arc<acheron_types::FragmentedRangeTombstones>,
    /// The user key whose newest visible version has been judged (its
    /// older versions are skipped); `None` before the first key.
    decided_key: Option<Vec<u8>>,
    core: Arc<DbCore>,
    /// The read point's registration, when [`Db::range_iter`] took it
    /// itself rather than borrowing the caller's.
    pinned: Option<Snapshot>,
}

impl RangeIter {
    /// The next live key/value pair, or `None` at the end of the range.
    ///
    /// (A fallible, streaming cursor — not `std::iter::Iterator` —
    /// because each step can hit I/O errors.)
    pub fn next_entry(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        while self.merge.valid() {
            // Judge from the borrowed key; only a key's deciding version
            // is materialized.
            let (key, kind) = crate::merge::decode_key(self.merge.key())?;
            if key.user_key() > &self.hi[..] {
                return Ok(None);
            }
            if self.decided_key.as_deref() == Some(key.user_key()) || key.seqno() > self.snapshot {
                self.merge.advance()?;
                continue;
            }
            let decided = self.decided_key.get_or_insert_with(Vec::new);
            decided.clear();
            decided.extend_from_slice(key.user_key());
            // Newest visible version decides the key: a put that is not
            // range-erased (by either tombstone flavor) yields the
            // value; anything else hides the key. The sort-key check is
            // one binary search over the pre-fragmented index.
            let (seqno, dkey) = (key.seqno(), self.merge.dkey());
            let live = kind.is_put_like()
                && !self.rts.iter().any(|rt| rt.shadows(seqno, dkey))
                && self
                    .krts
                    .max_seqno_covering(key.user_key(), self.snapshot)
                    .is_none_or(|cover| seqno >= cover);
            let row = live.then(|| self.merge.entry()).transpose()?;
            self.merge.advance()?;
            if let Some(e) = row {
                // Separated values are dereferenced lazily, at yield
                // time: skipped keys never touch the vlog.
                if e.kind == acheron_types::ValueKind::ValuePointer {
                    let value = self.core.deref_value_pointer(&e)?;
                    return Ok(Some((e.key, value)));
                }
                return Ok(Some((e.key, e.value)));
            }
        }
        Ok(None)
    }
}

/// Instantaneous write-pressure gauges (see [`Db::write_pressure`]):
/// what the engine's own throttle consults, exported so a service layer
/// in front of the engine can shed load *before* a write would block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritePressure {
    /// Live files in level 0.
    pub l0_files: usize,
    /// Sealed memtables queued for flush.
    pub sealed_memtables: usize,
    /// L0 has reached the soft limit: the write path injects a small
    /// per-write delay.
    pub slowdown: bool,
    /// A hard limit is reached (L0 stall files or sealed-queue depth):
    /// the next write blocks until background maintenance catches up.
    pub stall: bool,
}

impl WritePressure {
    /// The worst-case composition of several engines' pressure (max
    /// gauges, OR flags): what a write touching all of them must
    /// respect. Panics on an empty slice.
    pub fn worst(all: &[WritePressure]) -> WritePressure {
        all.iter()
            .copied()
            .reduce(|a, b| WritePressure {
                l0_files: a.l0_files.max(b.l0_files),
                sealed_memtables: a.sealed_memtables.max(b.sealed_memtables),
                slowdown: a.slowdown || b.slowdown,
                stall: a.stall || b.stall,
            })
            .expect("at least one engine")
    }
}

/// Summary of one level for stats displays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelInfo {
    /// Level index.
    pub level: usize,
    /// Live files.
    pub files: usize,
    /// Distinct runs.
    pub runs: usize,
    /// Total bytes.
    pub bytes: u64,
    /// Live entries.
    pub entries: u64,
    /// Live point tombstones.
    pub tombstones: u64,
}

impl Db {
    /// Open (creating or recovering) a database under `dir`.
    pub fn open(fs: Arc<dyn Vfs>, dir: &str, opts: DbOptions) -> Result<Db> {
        Self::open_with_shared(fs, dir, opts, None, None, None)
    }

    /// Open with an optionally injected fleet-shared block cache and
    /// memory budget (how [`crate::ShardedDb`] gives every shard one
    /// cache instance and one arbiter instead of N private copies).
    ///
    /// Resolution order for the cache/budget pair:
    /// 1. injected shared instances (the caller owns their sizing);
    /// 2. `opts.memory_budget_bytes > 0`: a private budget plus a cache
    ///    sized to its cache share (even if `block_cache_bytes` is 0);
    /// 3. legacy: a private cache of `block_cache_bytes` if non-zero,
    ///    no budget.
    pub(crate) fn open_with_shared(
        fs: Arc<dyn Vfs>,
        dir: &str,
        opts: DbOptions,
        shared_cache: Option<Arc<acheron_sstable::BlockCache>>,
        shared_budget: Option<Arc<MemoryBudget>>,
        shard_identity: Option<(usize, Arc<AtomicU64>)>,
    ) -> Result<Db> {
        opts.validate()?;
        // A sharded fleet names each engine's ledger shard and shares
        // one trace-id allocator so ids stay fleet-unique; a standalone
        // engine is shard 0 with a private allocator.
        let (shard, trace_ids) = shard_identity.unwrap_or_else(|| (0, Arc::new(AtomicU64::new(1))));
        fs.mkdir_all(dir)?;
        let cache_is_shared = shared_cache.is_some();
        let (cache, memory) = match (shared_cache, shared_budget) {
            (Some(c), budget) => (Some(c), budget),
            (None, _) if opts.memory_budget_bytes > 0 => {
                let budget = Arc::new(MemoryBudget::new(opts.memory_budget_bytes));
                let cache = Arc::new(acheron_sstable::BlockCache::new(budget.cache_share_bytes()));
                (Some(cache), Some(budget))
            }
            (None, _) => (
                (opts.block_cache_bytes > 0)
                    .then(|| Arc::new(acheron_sstable::BlockCache::new(opts.block_cache_bytes))),
                None,
            ),
        };
        if let Some(m) = &memory {
            m.register_writer();
        }
        let Bootstrap {
            state,
            wal,
            last_seqno,
            next_file_id,
            events: boot_events,
            vlog_state,
            vlog_next_segment,
        } = recovery::open_image(fs.as_ref(), dir, &opts, cache.as_ref())?;
        let view = Arc::new(ReadView {
            mem: Arc::clone(&state.mem),
            imms: Vec::new(),
            version: Arc::clone(&state.version),
            rts: state.version.range_tombstones.clone().into(),
        });
        let gauges = Arc::new(TombstoneGauges::from_version(&state.version));
        let core = Arc::new(DbCore {
            picker: Picker::new(&opts),
            obs: EventLog::new(opts.event_log_capacity),
            gauges: Mutex::new(gauges),
            tracer: Tracer::new(opts.trace_sample_every, trace_ids),
            ledger: Mutex::new(DeleteLedger::new(shard)),
            vlog: Mutex::new(None),
            vlog_next_segment: AtomicU64::new(vlog_next_segment),
            vlog_reader: Arc::new(VlogReader::new(Arc::clone(&fs), dir)),
            vlog_state: Mutex::new(vlog_state),
            fs,
            dir: dir.to_string(),
            opts,
            stats: DbStats::default(),
            cache,
            memory,
            cache_is_shared,
            pinned_contrib: AtomicUsize::new(0),
            snapshots: Mutex::new(BTreeMap::new()),
            state: RwLock::new(state),
            wal: Mutex::new(wal),
            commit: Mutex::new(CommitQueue::default()),
            commit_cv: Condvar::new(),
            commit_wakeups: AtomicU64::new(0),
            view: RwLock::new(view),
            seq_alloc: AtomicU64::new(last_seqno),
            visible_seqno: AtomicU64::new(last_seqno),
            next_file_id: AtomicU64::new(next_file_id),
            maint: Mutex::new(MaintState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            flush_claimed: AtomicBool::new(false),
        });
        // Replay the recovery milestones into the ring now that it
        // exists, before any live traffic can interleave with them.
        for ev in boot_events {
            core.obs.log(ev);
        }
        // Report the recovered table set's pinned bytes before any
        // traffic: a freshly opened tree already taxes the budget.
        core.refresh_pinned(&core.state.read());
        let mut workers = Vec::with_capacity(core.opts.background_threads);
        for i in 0..core.opts.background_threads {
            let c = Arc::clone(&core);
            match std::thread::Builder::new()
                .name(format!("acheron-maint-{i}"))
                .spawn(move || DbCore::worker_loop(c))
            {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    core.request_shutdown();
                    for w in workers {
                        let _ = w.join();
                    }
                    return Err(Error::Internal(format!("spawn maintenance worker: {e}")));
                }
            }
        }
        let db = Db {
            inner: Arc::new(DbInner { core, workers }),
        };
        // Recovery may leave the tree over its triggers.
        db.maintain()?;
        Ok(db)
    }

    fn core(&self) -> &DbCore {
        &self.inner.core
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Insert or update `key`, tagging it with the current tick as its
    /// secondary delete key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let dkey = self.core().opts.clock.now();
        self.put_with_dkey(key, value, dkey)
    }

    /// Insert or update `key` with an explicit secondary delete key.
    pub fn put_with_dkey(&self, key: &[u8], value: &[u8], dkey: u64) -> Result<()> {
        self.write(WalOp::Put {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            dkey,
        })
    }

    /// Point-delete `key` (inserts a tombstone; physical erasure follows
    /// within the persistence threshold when FADE is enabled).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let tick = self.core().opts.clock.now();
        self.write(WalOp::Delete {
            key: Bytes::copy_from_slice(key),
            tick,
        })
    }

    /// Range-delete every sort key in `[start, end]` (inclusive) with a
    /// single WAL-logged range tombstone — O(1) writes regardless of how
    /// many keys the range covers. The tombstone shadows older versions
    /// immediately, travels through flush into SSTable metadata, and is
    /// purged by bottommost compactions within the FADE persistence
    /// threshold, exactly like a point tombstone.
    pub fn range_delete_keys(&self, start: &[u8], end: &[u8]) -> Result<()> {
        if start > end {
            return Err(Error::invalid_argument("range_delete_keys: start > end"));
        }
        let tick = self.core().opts.clock.now();
        self.write(WalOp::RangeDeleteKeys {
            start: Bytes::copy_from_slice(start),
            end: Bytes::copy_from_slice(end),
            tick,
        })
    }

    /// Apply a [`WriteBatch`] atomically: all of its operations become
    /// durable and visible together (one WAL record, consecutive
    /// sequence numbers), or none do.
    pub fn write_batch(&self, batch: WriteBatch) -> Result<()> {
        if batch.ops.is_empty() {
            return Ok(());
        }
        // Stamp queued deletes with the commit tick (their FADE age
        // starts now, not when they were queued).
        let now = self.core().opts.clock.now();
        let ops = batch
            .ops
            .into_iter()
            .map(|op| match op {
                WalOp::Delete { key, tick } if tick == u64::MAX => WalOp::Delete { key, tick: now },
                other => other,
            })
            .collect();
        self.write_ops::<Vec<WalOp>>(ops)
    }

    fn write(&self, op: WalOp) -> Result<()> {
        self.write_ops([op])
    }

    /// Group commit. The calling thread enqueues its ops and either
    /// becomes the leader (drains the whole queue, appends + fsyncs the
    /// WAL once outside the state lock, publishes the group) or parks
    /// until a leader hands it the group's result.
    ///
    /// `ops` is an array for a lone put or delete — the common case, which
    /// then never allocates a list to hold its one op — or a batch's `Vec`.
    fn write_ops<O: AsMut<[WalOp]> + Into<Vec<WalOp>>>(&self, mut ops: O) -> Result<()> {
        let trace = self.core().tracer.sample(trace_op_for(ops.as_mut()));
        self.write_ops_traced(ops, trace).map(|_| ())
    }

    /// [`Db::write_ops`] with an optional in-flight trace; returns the
    /// finished trace when one was supplied. A rider (a thread whose
    /// batch a leader committed for it) attributes only its queue wait
    /// — the leader's trace owns the WAL/vlog/memtable spans.
    fn write_ops_traced<O: AsMut<[WalOp]> + Into<Vec<WalOp>>>(
        &self,
        mut ops: O,
        mut trace: Option<TraceBuf>,
    ) -> Result<Option<OpTrace>> {
        let core = self.core();
        // Backpressure first, before any lock: stalled writers hold
        // nothing, so workers, readers, and commit leaders proceed
        // freely.
        if let Some(t) = trace.as_mut() {
            let started = Instant::now();
            core.throttle_writes()?;
            t.add(
                TraceStage::ThrottleWait,
                started.elapsed().as_micros() as u64,
            );
        } else {
            core.throttle_writes()?;
        }
        let mut q = core.commit.lock();
        if !q.exclusive && q.queue.is_empty() {
            // Uncontended fast path: commit alone as a group of one,
            // borrowing the ops — no request, no list, no result
            // round-trip, and (nobody waiting) no wakeup.
            let excl = core.enter_exclusion(q);
            core.commit_group_inner(&excl, &mut [ops.as_mut()], trace.as_mut())?;
            drop(excl);
            return Ok(trace.map(|t| core.finish_trace(t)));
        }
        let req = Arc::new(CommitRequest::default());
        q.queue.push(PendingCommit {
            req: Arc::clone(&req),
            ops: ops.into(),
        });
        let queued_at = trace.as_ref().map(|_| Instant::now());
        loop {
            // A previous leader may have committed us while we waited
            // for the queue lock or the condvar.
            if let Some(res) = req.result.lock().take() {
                if let (Some(t), Some(at)) = (trace.as_mut(), queued_at) {
                    t.add(TraceStage::CommitQueueWait, at.elapsed().as_micros() as u64);
                }
                res.map_err(Error::Internal)?;
                return Ok(trace.map(|t| core.finish_trace(t)));
            }
            if !q.exclusive {
                // Become the leader for everything queued so far.
                if let (Some(t), Some(at)) = (trace.as_mut(), queued_at) {
                    t.add(TraceStage::CommitQueueWait, at.elapsed().as_micros() as u64);
                }
                let group = std::mem::take(&mut q.queue);
                let excl = core.enter_exclusion(q);
                core.commit_group(&excl, group, trace.as_mut());
                drop(excl);
                let res = req.result.lock().take().expect("leader result is set");
                res.map_err(Error::Internal)?;
                return Ok(trace.map(|t| core.finish_trace(t)));
            }
            core.wait_for_commit_turn(&mut q);
        }
    }

    /// Secondary range delete: physically erase every entry whose delete
    /// key falls in `[lo, hi]` (inclusive). Takes effect immediately for
    /// reads; storage is reclaimed by compactions (which drop fully
    /// covered KiWi pages without reading them).
    pub fn range_delete_secondary(&self, lo: u64, hi: u64) -> Result<()> {
        let range = DeleteKeyRange::new(lo, hi);
        if range.is_empty() {
            return Err(Error::invalid_argument("range_delete_secondary: lo > hi"));
        }
        let core = self.core();
        // Seqno allocation requires the commit-exclusion domain (no
        // leader may interleave an allocation with ours).
        let _excl = core.commit_exclusive();
        let mut st = core.state.write();
        let seqno = core.seq_alloc.load(Ordering::Relaxed) + 1;
        if seqno > MAX_SEQNO {
            return Err(Error::Internal("sequence number space exhausted".into()));
        }
        core.seq_alloc.store(seqno, Ordering::Relaxed);
        let rt = RangeTombstone { seqno, range };
        st.manifest.append(&EditBatch {
            edits: vec![VersionEdit::AddRangeTombstone { seqno, range }],
        })?;
        st.version = Arc::new(st.version.apply(vec![], &[], &[rt], &[]));
        core.visible_seqno.store(seqno, Ordering::Release);
        core.stats.range_deletes.fetch_add(1, Ordering::Relaxed);
        if core.opts.auto_advance_clock {
            core.opts.clock_advance(1);
        }
        core.publish_view_locked(&st);
        Ok(())
    }

    /// Force-flush the memtable (and any queued sealed memtables) to L0;
    /// a no-op when everything is empty. Quiesces background workers for
    /// the duration so the flush is complete on return.
    pub fn flush(&self) -> Result<()> {
        let core = self.core();
        let (_pause, excl) = core.quiesce()?;
        core.seal_memtable_locked(&excl, &mut core.state.write())?;
        core.drive(&FLUSH, Some(&excl))
    }

    /// Full manual compaction: flush, then merge every level down until
    /// all data rests in a single bottom-level run. (The manual
    /// counterpart of RocksDB's full `CompactRange`.) Runs with
    /// background workers quiesced.
    pub fn compact_all(&self) -> Result<()> {
        let core = self.core();
        let (_pause, excl) = core.quiesce()?;
        core.seal_memtable_locked(&excl, &mut core.state.write())?;
        core.drive(&TREE, Some(&excl))?;
        // Writers and workers are held off: a version read here is still
        // current when the task built from it installs.
        let run_manual = |version: Arc<Version>, task: CompactionTask| {
            core.run_task(MaintTask::Compact(task, None, version), Some(&excl))
        };
        let bottom = core.opts.max_levels - 1;
        for level in 0..bottom {
            loop {
                let version = Arc::clone(&core.state.read().version);
                let inputs = version.levels[level].clone();
                if inputs.is_empty() {
                    break;
                }
                let next = match entry_hull(&inputs) {
                    Some((lo, hi)) => version.overlapping_files(level + 1, &lo, &hi),
                    None => Vec::new(),
                };
                let task = CompactionTask {
                    level,
                    inputs,
                    next_level_inputs: next,
                    output_level: level + 1,
                    output_run: 0,
                    reason: CompactionReason::Manual,
                };
                run_manual(version, task)?;
            }
        }
        // Reclaim pass: bottom-level files still overlapping a live
        // range tombstone (secondary *or* sort-key) are rewritten in
        // place so the erased entries (and, under KiWi, whole covered
        // pages) are physically dropped and the tombstone can retire or
        // purge. Bounded passes: snapshots may legitimately pin covered
        // entries, leaving the tombstone live; don't spin on it.
        for _ in 0..4 {
            let version = Arc::clone(&core.state.read().version);
            let rts = &version.range_tombstones;
            let krts = version.collect_key_range_tombstones();
            if rts.is_empty() && krts.is_empty() {
                break;
            }
            let mut victims: Vec<_> = version.levels[bottom]
                .iter()
                .filter(|f| {
                    f.has_key_range_tombstones()
                        || (f.stats.entry_count > 0
                            && (rts.iter().any(|rt| {
                                f.stats.min_seqno < rt.seqno
                                    && rt.range.overlaps(f.stats.min_dkey, f.stats.max_dkey)
                            }) || krts.iter().any(|k| {
                                f.stats.min_seqno < k.seqno && f.overlaps_keys(&k.start, &k.end)
                            })))
                })
                .cloned()
                .collect();
            if victims.is_empty() {
                break;
            }
            // Close the victim set over entry-hull overlap so the merge
            // stays bottommost (required for any physical drop).
            while let Some((lo, hi)) = entry_hull(&victims) {
                let before = victims.len();
                for f in version.levels[bottom].iter() {
                    if f.overlaps_keys(&lo, &hi) && !victims.iter().any(|v| v.id == f.id) {
                        victims.push(Arc::clone(f));
                    }
                }
                if victims.len() == before {
                    break;
                }
            }
            let task = CompactionTask {
                level: bottom,
                inputs: victims,
                next_level_inputs: Vec::new(),
                output_level: bottom,
                output_run: 0,
                reason: CompactionReason::Manual,
            };
            run_manual(version, task)?;
        }
        core.drive(&TREE, Some(&excl))
    }

    /// Advance the engine's logical clock by `n` ticks (no-op when the
    /// configured clock is not a [`acheron_types::LogicalClock`]).
    /// Experiments use this to age tombstones without issuing writes.
    /// Wakes background workers so TTL expiries are acted on promptly.
    pub fn advance_clock(&self, n: u64) {
        self.core().opts.clock_advance(n);
        self.core().kick_workers();
    }

    /// Run pending maintenance (flushes, FADE TTL expirations,
    /// saturation compactions) inline until quiescent. Call after
    /// advancing an external clock. Background workers are quiesced for
    /// the duration; any sticky background error is surfaced here.
    pub fn maintain(&self) -> Result<()> {
        let core = self.core();
        let (_pause, excl) = core.quiesce()?;
        core.drive(&TREE, Some(&excl))?;
        drop(excl);
        // One arbiter sample per quiescent pass: this is the inline
        // analogue of the background workers' per-step tick.
        core.memory_tick();
        // Vlog GC runs after the tree is quiescent — compaction installs
        // above are what turn frames dead — and outside the exclusion,
        // which each rewrite takes for itself.
        core.drive(&VLOG_GC, None)
    }

    /// Block until background maintenance has nothing left to do: no
    /// sealed memtables queued, no expired write buffer, no pickable
    /// compaction, and no worker mid-step. With `background_threads = 0`
    /// this simply runs [`Db::maintain`] inline. Surfaces any sticky
    /// background error.
    pub fn wait_idle(&self) -> Result<()> {
        let core = self.core();
        if !core.background() {
            return self.maintain();
        }
        loop {
            core.check_background_error()?;
            core.kick_workers();
            if !core.has_pending_work() {
                let idle = core.maint.lock().in_flight == 0;
                // A worker may have installed new work between the two
                // checks, so re-verify emptiness after seeing in-flight
                // drain.
                if idle && !core.has_pending_work() {
                    return Ok(());
                }
            }
            let mut maint = core.maint.lock();
            core.done_cv.wait_for(&mut maint, maintenance::WORKER_TICK);
        }
    }

    /// Quiesce background maintenance until the returned guard is
    /// dropped: in-flight steps finish, and no new ones start. Useful
    /// for tests and for taking consistent external backups. Pauses
    /// nest; writes continue (and may stall if pressure builds while
    /// maintenance is paused).
    pub fn pause_maintenance(&self) -> MaintenancePause {
        let core = Arc::clone(&self.inner.core);
        core.pause_raw();
        MaintenancePause { core }
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Point lookup at the latest state. Lock-free: one atomic load for
    /// the read point, one `Arc` clone for the view, then the lookup
    /// runs entirely against the immutable view.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let core = self.core();
        let mut trace = core.tracer.sample(TraceOp::Get);
        let res = self.get_latest(key, trace.as_mut());
        if let Some(t) = trace {
            core.finish_trace(t);
        }
        res
    }

    /// Point lookup at a snapshot.
    pub fn get_at(&self, snap: &Snapshot, key: &[u8]) -> Result<Option<Bytes>> {
        let core = self.core();
        core.stats.gets.fetch_add(1, Ordering::Relaxed);
        let view = core.current_view();
        match core.newest_live_in_view(&view, key, snap.seqno, None)? {
            Some(newest) => core.resolve_value(newest, None),
            None => Ok(None),
        }
    }

    /// Lookup from a fresh read point. The seqno MUST be loaded before
    /// the view — see the ordering rule on `ReadView`.
    ///
    /// No registered snapshot pins the pointers this read point sees, so
    /// value-log GC may rewrite a value and delete the segment its old
    /// pointer names between the view clone and the dereference. GC
    /// commits the rewrite (the visible seqno advances) before it
    /// deletes, so a dereference that fails at a read point that is no
    /// longer current is retried once from a fresh one; at the current
    /// read point the failure is real and is surfaced.
    fn get_latest(&self, key: &[u8], mut trace: Option<&mut TraceBuf>) -> Result<Option<Bytes>> {
        let core = self.core();
        core.stats.gets.fetch_add(1, Ordering::Relaxed);
        let mut retried = false;
        loop {
            let started = trace.as_ref().map(|_| Instant::now());
            let snapshot = core.visible_seqno.load(Ordering::Acquire);
            let view = core.current_view();
            if let (Some(t), Some(s)) = (trace.as_deref_mut(), started) {
                t.add(TraceStage::ViewClone, s.elapsed().as_micros() as u64);
            }
            let Some(newest) =
                core.newest_live_in_view(&view, key, snapshot, trace.as_deref_mut())?
            else {
                return Ok(None);
            };
            let moved = || {
                core.visible_seqno.load(Ordering::Acquire) != snapshot
                    || !Arc::ptr_eq(&view, &core.current_view())
            };
            match core.resolve_value(newest, trace.as_deref_mut()) {
                Err(_) if !retried && moved() => retried = true,
                res => return res,
            }
        }
    }

    /// Register a read snapshot at the current sequence number.
    pub fn snapshot(&self) -> Snapshot {
        let core = self.core();
        // No state lock needed: the visible seqno is always at or above
        // every seqno inside any in-flight compaction's inputs (file
        // seqnos <= persisted <= visible), so a compaction that picked
        // its snapshot list before this registration cannot drop a
        // version this snapshot needs — the newest version <= seqno it
        // keeps anyway is the decider. See ARCHITECTURE.md for the full
        // ordering argument.
        let seqno = core.visible_seqno.load(Ordering::Acquire);
        *core.snapshots.lock().entry(seqno).or_insert(0) += 1;
        Snapshot {
            core: Arc::clone(&self.inner.core),
            seqno,
        }
    }

    /// Range scan over user keys `[lo, hi]` (inclusive) at the latest
    /// state. Returns key/value pairs in order.
    pub fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>> {
        let mut it = self.range_iter(lo, hi)?;
        let mut out = Vec::new();
        while let Some(kv) = it.next_entry()? {
            out.push(kv);
        }
        Ok(out)
    }

    /// Range scan at a snapshot.
    pub fn scan_at(&self, snap: &Snapshot, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>> {
        let mut it = self.range_iter_at(snap, lo, hi)?;
        let mut out = Vec::new();
        while let Some(kv) = it.next_entry()? {
            out.push(kv);
        }
        Ok(out)
    }

    /// A streaming iterator over user keys `[lo, hi]` (inclusive) at the
    /// latest state — use instead of [`Db::scan`] when the range may be
    /// large and you want to stop early or avoid materializing it.
    ///
    /// The iterator reads from the version current at creation; writes
    /// issued afterwards are not visible to it. It holds a [`Snapshot`]
    /// of its read point for as long as it lives: separated values are
    /// dereferenced lazily, a stream cannot retry rows it has already
    /// yielded, and value-log GC defers deleting a rewritten segment
    /// while a snapshot may still point into it.
    pub fn range_iter(&self, lo: &[u8], hi: &[u8]) -> Result<RangeIter> {
        let snap = self.snapshot();
        let mut it = self.range_iter_at(&snap, lo, hi)?;
        it.pinned = Some(snap);
        Ok(it)
    }

    /// A streaming range iterator at a snapshot.
    pub fn range_iter_at(&self, snap: &Snapshot, lo: &[u8], hi: &[u8]) -> Result<RangeIter> {
        use crate::merge::{KvSource, MergeIterator, VecSource};
        let core = self.core();
        // Seqno (the snapshot's) before view — see the ordering rule on
        // `ReadView`.
        let (snapshot, view) = (snap.seqno, core.current_view());
        core.stats.scans.fetch_add(1, Ordering::Relaxed);
        let visible_rts: Vec<RangeTombstone> = view
            .rts
            .iter()
            .filter(|rt| rt.seqno <= snapshot)
            .copied()
            .collect();
        // Sort-key range tombstones from every source. When only the
        // tree holds any, the version's prebuilt index is shared as-is;
        // buffered ones (rare) force a combined rebuild. Visibility is
        // filtered per-probe via the snapshot argument.
        let buffered_krts: Vec<acheron_types::KeyRangeTombstone> = std::iter::once(&view.mem)
            .chain(view.imms.iter())
            .filter(|m| m.range_tombstone_count() > 0)
            .flat_map(|m| m.range_tombstone_list())
            .collect();
        let krts = if buffered_krts.is_empty() {
            Arc::clone(&view.version.key_range_tombstones)
        } else {
            let mut all = view.version.collect_key_range_tombstones();
            all.extend(buffered_krts);
            Arc::new(acheron_types::FragmentedRangeTombstones::build(&all))
        };

        let seek_key = acheron_types::SeekKey::new(lo, MAX_SEQNO);
        let mut sources: Vec<Box<dyn KvSource>> = Vec::new();

        // Memtables (active + sealed): materialize the range (all
        // versions; filtered below). Bounded by the write-buffer size,
        // so this is cheap even for huge on-disk ranges.
        for mem in std::iter::once(&view.mem).chain(view.imms.iter()) {
            let mut it = mem.iter();
            it.seek(seek_key.encoded());
            let mut buf = Vec::new();
            while it.valid() {
                let e = it.entry();
                if &e.key[..] > hi {
                    break;
                }
                buf.push(e.clone());
                it.next();
            }
            if !buf.is_empty() {
                sources.push(Box::new(VecSource::new(buf)));
            }
        }
        for f in view.version.all_files() {
            if f.overlaps_keys(lo, hi) {
                // No page skipping on reads: chain heads must be seen
                // (newest-version-decides).
                let mut it = f.table.iter(Vec::new());
                it.seek(seek_key.encoded())?;
                if acheron_sstable::TableIterator::valid(&it) {
                    sources.push(Box::new(it));
                }
            }
        }
        // The iterator holds Arc'd tables and owned entries, so it stays
        // valid however long it lives; compactions cannot delete the
        // files out from under it (Arc<Table> pins them, and MemFs/StdFs
        // handles stay readable after unlink).
        Ok(RangeIter {
            merge: MergeIterator::new(sources),
            hi: hi.to_vec(),
            snapshot,
            rts: visible_rts,
            krts,
            decided_key: None,
            core: Arc::clone(&self.inner.core),
            pinned: None,
        })
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Engine statistics counters.
    pub fn stats(&self) -> &DbStats {
        &self.core().stats
    }

    /// Times the commit condvar has been notified. Test hook for the
    /// allocation/syscall budget (`tests/alloc_budget.rs`): an
    /// uncontended commit must leave it unchanged.
    #[doc(hidden)]
    pub fn commit_wakeups(&self) -> u64 {
        self.core().commit_wakeups.load(Ordering::Relaxed)
    }

    /// The current write-pressure gauges, evaluated against the
    /// configured slowdown/stall limits. With `background_threads = 0`
    /// maintenance runs inline and writes never block, so the flags are
    /// advisory only in that mode.
    pub fn write_pressure(&self) -> WritePressure {
        let core = self.core();
        let (l0_files, sealed_memtables) = core.pressure();
        WritePressure {
            l0_files,
            sealed_memtables,
            slowdown: l0_files >= core.opts.l0_slowdown_files,
            stall: l0_files >= core.opts.l0_stall_files
                || sealed_memtables >= core.opts.max_imm_memtables,
        }
    }

    /// The configured options.
    pub fn options(&self) -> &DbOptions {
        &self.core().opts
    }

    /// The filesystem the database lives on (for I/O accounting).
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.core().fs)
    }

    /// Current clock tick.
    pub fn now(&self) -> Tick {
        self.core().opts.clock.now()
    }

    /// Page-cache hit/miss counters, if a cache is configured.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.core().cache.as_ref().map(|c| (c.hits(), c.misses()))
    }

    /// A snapshot of the engine's counters with the cache and
    /// memory-budget gauges filled in.
    ///
    /// Shared-scope fields (cache counters, total budget) are left zero
    /// when the cache is fleet-shared — the router reports the single
    /// shared instance once, so summing shard snapshots stays correct.
    /// Per-engine fields (memtable allowance, pinned bytes) are always
    /// filled.
    pub fn stats_snapshot(&self) -> crate::stats::StatsSnapshot {
        let core = self.core();
        let mut s = core.stats.snapshot();
        if !core.cache_is_shared {
            s.fill_shared(core.cache.as_deref(), core.memory.as_deref());
        }
        s.memtable_budget_bytes = core.write_buffer_limit() as u64;
        s.pinned_bytes = core.pinned_contrib.load(Ordering::Relaxed) as u64;
        s
    }

    /// The engine's memory arbiter, when one is configured (either via
    /// [`DbOptions::memory_budget_bytes`] or injected by a sharded
    /// fleet). Exposed for observability and experiments.
    pub fn memory_budget(&self) -> Option<Arc<MemoryBudget>> {
        self.core().memory.clone()
    }

    /// The block cache the engine reads through (private or
    /// fleet-shared), when caching is enabled.
    pub(crate) fn block_cache(&self) -> Option<Arc<acheron_sstable::BlockCache>> {
        self.core().cache.clone()
    }

    /// Per-level summary of the current tree.
    pub fn level_summary(&self) -> Vec<LevelInfo> {
        let view = self.core().current_view();
        (0..view.version.levels.len())
            .map(|level| LevelInfo {
                level,
                files: view.version.level_files(level),
                runs: view.version.level_runs(level),
                bytes: view.version.level_bytes(level),
                entries: view.version.levels[level]
                    .iter()
                    .map(|f| f.stats.entry_count)
                    .sum(),
                tombstones: view.version.levels[level]
                    .iter()
                    .map(|f| f.stats.tombstone_count)
                    .sum(),
            })
            .collect()
    }

    /// Point tombstones currently alive anywhere (memtables + tree).
    pub fn live_tombstones(&self) -> u64 {
        let view = self.core().current_view();
        let buffered: u64 = std::iter::once(&view.mem)
            .chain(view.imms.iter())
            .map(|m| m.stats().tombstones as u64)
            .sum();
        view.version.live_tombstones() + buffered
    }

    /// Total table bytes on storage.
    pub fn table_bytes(&self) -> u64 {
        self.core().current_view().version.total_bytes()
    }

    /// Live secondary range tombstones.
    pub fn live_range_tombstones(&self) -> Vec<RangeTombstone> {
        self.core().current_view().rts.to_vec()
    }

    /// Live sort-key range tombstones (buffered + on disk). Buffered
    /// tombstones are read from the active and sealed memtables; disk
    /// tombstones from the installed version's per-file metadata.
    pub fn live_key_range_tombstones(&self) -> u64 {
        let view = self.core().current_view();
        let buffered: u64 = std::iter::once(&view.mem)
            .chain(view.imms.iter())
            .map(|m| m.range_tombstone_count() as u64)
            .sum();
        view.version.live_key_range_tombstones() + buffered
    }

    /// Age (at `now`) of the oldest live sort-key range tombstone, if
    /// any — FADE bounds it by the same `D_th` as point deletes.
    pub fn oldest_live_key_range_tombstone_age(&self) -> Option<Tick> {
        let view = self.core().current_view();
        let now = self.core().opts.clock.now();
        let file_oldest = view
            .version
            .all_files()
            .filter_map(|f| f.stats.oldest_range_tombstone_tick())
            .min();
        let buffered_oldest = std::iter::once(&view.mem)
            .chain(view.imms.iter())
            .filter_map(|m| m.stats().oldest_range_tombstone_tick)
            .min();
        file_oldest
            .into_iter()
            .chain(buffered_oldest)
            .min()
            .map(|t| now.saturating_sub(t))
    }

    /// Age (at `now`) of the oldest live point tombstone, if any — the
    /// quantity FADE bounds by `D_th`.
    pub fn oldest_live_tombstone_age(&self) -> Option<Tick> {
        let view = self.core().current_view();
        let now = self.core().opts.clock.now();
        let file_oldest = view
            .version
            .all_files()
            .filter_map(|f| f.stats.oldest_tombstone_tick)
            .min();
        let buffered_oldest = std::iter::once(&view.mem)
            .chain(view.imms.iter())
            .filter_map(|m| m.stats().oldest_tombstone_tick)
            .min();
        file_oldest
            .into_iter()
            .chain(buffered_oldest)
            .min()
            .map(|t| now.saturating_sub(t))
    }

    /// Drain the flight recorder: a consistent snapshot of the newest
    /// retained events plus emission/drop totals. Never blocks or
    /// delays the writers feeding the ring.
    pub fn events(&self) -> EventSnapshot {
        self.core().obs.snapshot()
    }

    /// Put with an unconditional trace (bypasses the sampler; used by
    /// the wire `traced` command). `trace_id` overrides the allocated
    /// id so a client-chosen id survives the round trip.
    pub fn put_traced(&self, key: &[u8], value: &[u8], trace_id: Option<u64>) -> Result<OpTrace> {
        let core = self.core();
        let dkey = core.opts.clock.now();
        let mut buf = core.tracer.begin(TraceOp::Put);
        if let Some(id) = trace_id {
            buf.trace_id = id;
        }
        let trace = self.write_ops_traced(
            [WalOp::Put {
                key: Bytes::copy_from_slice(key),
                value: Bytes::copy_from_slice(value),
                dkey,
            }],
            Some(buf),
        )?;
        Ok(trace.expect("trace supplied"))
    }

    /// Point delete with an unconditional trace.
    pub fn delete_traced(&self, key: &[u8], trace_id: Option<u64>) -> Result<OpTrace> {
        let core = self.core();
        let tick = core.opts.clock.now();
        let mut buf = core.tracer.begin(TraceOp::Delete);
        if let Some(id) = trace_id {
            buf.trace_id = id;
        }
        let trace = self.write_ops_traced(
            [WalOp::Delete {
                key: Bytes::copy_from_slice(key),
                tick,
            }],
            Some(buf),
        )?;
        Ok(trace.expect("trace supplied"))
    }

    /// Point lookup with an unconditional trace.
    pub fn get_traced(
        &self,
        key: &[u8],
        trace_id: Option<u64>,
    ) -> Result<(Option<Bytes>, OpTrace)> {
        let core = self.core();
        let mut buf = core.tracer.begin(TraceOp::Get);
        if let Some(id) = trace_id {
            buf.trace_id = id;
        }
        let value = self.get_latest(key, Some(&mut buf))?;
        Ok((value, core.finish_trace(buf)))
    }

    /// Traces retained by the sampler and by wire-traced ops, oldest
    /// first (bounded buffer, newest win).
    pub fn recent_traces(&self) -> Vec<OpTrace> {
        self.core().tracer.recent()
    }

    /// The delete-lifecycle compliance report: the ledger's cohorts
    /// plus the live gauges' unresolved delete-family ages (which also
    /// cover state predating this process), judged against the
    /// configured `D_th`.
    pub fn delete_audit(&self) -> DeleteAudit {
        let core = self.core();
        let now = core.opts.clock.now();
        let d_th = core
            .opts
            .fade
            .as_ref()
            .map(|f| f.delete_persistence_threshold);
        // Fold point + sort-key-range families into one oldest birth
        // tick (ages come from the same clock, so the max age is the
        // min tick).
        let oldest_live = self
            .oldest_live_tombstone_age()
            .into_iter()
            .chain(self.oldest_live_key_range_tombstone_age())
            .max()
            .map(|age| now.saturating_sub(age));
        let oldest_vlog = {
            let vs = core.vlog_state.lock();
            vs.segments
                .values()
                .filter_map(|a| a.oldest_dead_tick)
                .min()
        };
        DeleteAudit {
            now,
            d_th,
            cohorts: core.ledger.lock().snapshot(),
            oldest_live_tombstone_tick: oldest_live,
            oldest_vlog_dead_tick: oldest_vlog,
        }
    }

    /// Live delete-persistence gauges. Disk-level state is the copy
    /// recomputed at the last version install; the write-buffer and
    /// range-tombstone fields are filled here from the current read
    /// view, because buffer contents change without a version install.
    pub fn tombstone_gauges(&self) -> TombstoneGauges {
        let core = self.core();
        let mut gauges = (**core.gauges.lock()).clone();
        let view = core.current_view();
        let mut buffered = 0u64;
        let mut oldest: Option<Tick> = None;
        let mut buffered_krts = 0u64;
        let mut oldest_krt: Option<Tick> = None;
        for m in std::iter::once(&view.mem).chain(view.imms.iter()) {
            let s = m.stats();
            buffered += s.tombstones as u64;
            oldest = min_tick(oldest, s.oldest_tombstone_tick);
            buffered_krts += s.range_tombstones as u64;
            oldest_krt = min_tick(oldest_krt, s.oldest_range_tombstone_tick);
        }
        gauges.buffer_tombstones = buffered;
        gauges.buffer_oldest_tick = oldest;
        gauges.buffer_key_range_tombstones = buffered_krts;
        gauges.buffer_oldest_key_range_tick = oldest_krt;
        gauges.range_tombstones = view.rts.len() as u64;
        {
            let vs = core.vlog_state.lock();
            for acct in vs.segments.values() {
                gauges.vlog_live_bytes += acct.live_bytes;
                gauges.vlog_dead_bytes += acct.dead_bytes;
                gauges.vlog_oldest_dead_tick =
                    min_tick(gauges.vlog_oldest_dead_tick, acct.oldest_dead_tick);
            }
        }
        gauges
    }

    /// Check structural invariants of the current tree (I1/I6): level
    /// ordering, per-file metadata consistency with actual contents.
    pub fn verify_integrity(&self) -> Result<()> {
        let view = self.core().current_view();
        view.version.check_invariants()?;
        // Always the files' bytes: a resident page would hide exactly
        // the damage this scan exists to find (and a one-pass scan must
        // not wipe out the cache either).
        for f in view.version.all_files() {
            crate::doctor::verify_table(&f.table, f.id)?;
        }
        Ok(())
    }
}

impl DbCore {
    /// Whether maintenance runs on background workers (vs inline in the
    /// write path).
    fn background(&self) -> bool {
        self.opts.background_threads > 0
    }

    /// Allocate a globally unique file id (tables, WALs, manifests).
    fn alloc_file_id(&self) -> u64 {
        self.next_file_id.fetch_add(1, Ordering::SeqCst)
    }

    fn snapshot_list(&self) -> Vec<SeqNo> {
        self.snapshots.lock().keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Group commit + read views
    // ------------------------------------------------------------------

    /// The newest visible version of `key` at `snapshot` that is not
    /// erased by either range-tombstone flavor — the version that
    /// decides the key. `None` when no version is visible or the newest
    /// one is range-erased; the caller maps the surviving entry's kind
    /// (a point tombstone here still means "deleted").
    ///
    /// An early-exit newest-wins lookup: sources are probed in recency
    /// order — active memtable, sealed memtables newest-first, L0
    /// newest-first, then deeper levels — and each source is skipped
    /// outright when its seqno ceiling cannot beat the best version
    /// found so far. Correctness does not depend on the probe order:
    /// the per-file `max_seqno` bound is what allows a skip, which also
    /// stays sound when FADE's TTL descents sink newer versions below
    /// older runs. Table probes consult the per-page bloom filters
    /// internally before any block read.
    fn newest_live_in_view(
        &self,
        view: &ReadView,
        key: &[u8],
        snapshot: SeqNo,
        mut trace: Option<&mut TraceBuf>,
    ) -> Result<Option<Entry>> {
        let mem_started = trace.as_ref().map(|_| Instant::now());
        let mut best: Option<Entry> = view.mem.newest_visible(key, snapshot);
        if let (Some(t), Some(s)) = (trace.as_deref_mut(), mem_started) {
            t.add(TraceStage::MemtableProbe, s.elapsed().as_micros() as u64);
        }

        // Sealed memtables, newest first: their ceilings are strictly
        // decreasing, so once the best beats one it beats the rest.
        let mut imm_probes = 0u64;
        for imm in &view.imms {
            let ceiling = imm.max_seqno().unwrap_or(0);
            if best.as_ref().is_some_and(|b| b.seqno >= ceiling) {
                break;
            }
            imm_probes += 1;
            if let Some(e) = imm.newest_visible(key, snapshot) {
                if best.as_ref().is_none_or(|b| e.seqno > b.seqno) {
                    best = Some(e);
                }
            }
        }

        // L0 files in reverse install order (newest flush last), then
        // deeper levels. `Table::get` passes no range tombstones (`&[]`)
        // deliberately: the newest version must be seen even when
        // range-erased, because it is what decides the key's visibility.
        let cache_before = match (&trace, &self.cache) {
            (Some(_), Some(c)) => Some((c.hits(), c.misses())),
            _ => None,
        };
        let mut seqno_skips = 0u64;
        let mut bloom_skips = 0u64;
        let mut table_probes = 0u64;
        let l0 = view.version.levels[0].iter().rev();
        let deeper = view.version.levels[1..].iter().flatten();
        for f in l0.chain(deeper) {
            if f.stats.min_seqno > snapshot
                || best.as_ref().is_some_and(|b| b.seqno >= f.stats.max_seqno)
            {
                seqno_skips += 1;
                continue;
            }
            if !f.contains_key(key) {
                bloom_skips += 1;
                continue;
            }
            table_probes += 1;
            if let Some(e) = f.table.get(key, snapshot, &[])? {
                if best.as_ref().is_none_or(|b| e.seqno > b.seqno) {
                    best = Some(e);
                }
            }
        }
        if let Some(t) = trace {
            if imm_probes > 0 {
                t.add(TraceStage::ImmProbes, imm_probes);
            }
            if seqno_skips > 0 {
                t.add(TraceStage::SeqnoSkips, seqno_skips);
            }
            if bloom_skips > 0 {
                t.add(TraceStage::BloomPrescreenSkips, bloom_skips);
            }
            t.add(TraceStage::TableProbes, table_probes);
            if let (Some(c), Some((h0, m0))) = (&self.cache, cache_before) {
                // Global counter deltas: concurrent readers can bleed
                // in, so these are attribution hints, not exact counts.
                t.add(TraceStage::CacheHitPages, c.hits().saturating_sub(h0));
                t.add(TraceStage::CacheMissPages, c.misses().saturating_sub(m0));
            }
        }

        // Newest-version-decides: the single newest visible version
        // determines the outcome. The range-tombstone shadow check runs
        // in place over the view's shared slice — no per-get allocation.
        let Some(newest) = best else {
            return Ok(None);
        };
        if view
            .rts
            .iter()
            .any(|rt| rt.seqno <= snapshot && rt.shadows(newest.seqno, newest.dkey))
        {
            return Ok(None); // range-erased
        }
        // Sort-key range tombstones: the newest visible cover across the
        // buffers and the tree hides any older best. Each probe is a
        // binary search over a fragment index (empty-index fast path
        // short-circuits without taking a lock).
        let cover = std::iter::once(&view.mem)
            .chain(view.imms.iter())
            .filter_map(|m| m.range_cover(key, snapshot))
            .chain(
                view.version
                    .key_range_tombstones
                    .max_seqno_covering(key, snapshot),
            )
            .max();
        if cover.is_some_and(|c| newest.seqno < c) {
            return Ok(None); // inside a deleted sort-key range
        }
        Ok(Some(newest))
    }

    /// The user value of a lookup's deciding version: inline for a put,
    /// through the value log for a pointer, none for a tombstone.
    fn resolve_value(&self, newest: Entry, trace: Option<&mut TraceBuf>) -> Result<Option<Bytes>> {
        Ok(match newest.kind {
            acheron_types::ValueKind::Put => Some(newest.value),
            acheron_types::ValueKind::ValuePointer => {
                let started = trace.as_ref().map(|_| Instant::now());
                let value = self.deref_value_pointer(&newest)?;
                if let (Some(t), Some(s)) = (trace, started) {
                    t.add(TraceStage::VlogDeref, s.elapsed().as_micros() as u64);
                }
                Some(value)
            }
            _ => None,
        })
    }

    /// Resolve a `ValuePointer` entry to the user value it references.
    ///
    /// Fails loudly (never returns wrong data) on a malformed pointer,
    /// a missing segment, or a frame whose embedded key does not match:
    /// every frame carries its key precisely so a stale pointer can be
    /// detected at read time.
    fn deref_value_pointer(&self, entry: &Entry) -> Result<Bytes> {
        let Some(ptr) = ValuePointer::decode(&entry.value) else {
            return Err(Error::Corruption(format!(
                "malformed value pointer for key {:?}",
                entry.key
            )));
        };
        self.stats.vlog_reads.fetch_add(1, Ordering::Relaxed);
        self.vlog_reader.get(&ptr, &entry.key)
    }

    /// The current read view (an O(1) `Arc` clone; the lock is only ever
    /// write-held for a pointer store).
    fn current_view(&self) -> Arc<ReadView> {
        Arc::clone(&self.view.read())
    }

    /// Build and swap in a fresh read view from `st`. Called (with the
    /// state write lock held) by every *structural* mutation — memtable
    /// seal, flush install, compaction install, range delete. Plain
    /// commits do not republish: they insert into the `mem` the current
    /// view already shares and advance `visible_seqno` (see the
    /// ordering rule on [`ReadView`]).
    fn publish_view_locked(&self, st: &State) {
        let view = Arc::new(ReadView {
            mem: Arc::clone(&st.mem),
            imms: st.imms.iter().rev().map(|i| Arc::clone(&i.mem)).collect(),
            version: Arc::clone(&st.version),
            rts: st.version.range_tombstones.clone().into(),
        });
        *self.view.write() = view;
        self.stats.read_view_swaps.fetch_add(1, Ordering::Relaxed);
        // Structural mutations are the only moment the installed file
        // set changes, so recomputing the delete-persistence gauges
        // here (O(files) over metadata only) keeps reads free and the
        // gauges incapable of drifting from the tree.
        *self.gauges.lock() = Arc::new(TombstoneGauges::from_version(&st.version));
        self.refresh_pinned(st);
    }

    /// The active memtable's seal threshold: the arbiter's per-writer
    /// allowance when a memory budget is configured, else the static
    /// [`DbOptions::write_buffer_bytes`].
    fn write_buffer_limit(&self) -> usize {
        self.memory
            .as_ref()
            .map(|m| m.memtable_bytes_per_writer())
            .unwrap_or(self.opts.write_buffer_bytes)
    }

    /// Recompute this engine's pinned filter/tile-metadata bytes (same
    /// install points as the gauges: the file set only changes here).
    /// The gauge is maintained whether or not a budget is configured —
    /// it is exported as `db_memory_pinned_bytes` either way. Under a
    /// budget, pinned growth additionally squeezes the arbitrated
    /// pool, so a material change re-applies the cache share too.
    fn refresh_pinned(&self, st: &State) {
        let pinned: usize = st.version.all_files().map(|f| f.table.pinned_bytes()).sum();
        let old = self.pinned_contrib.swap(pinned, Ordering::Relaxed);
        if old == pinned {
            return;
        }
        if let Some(m) = &self.memory {
            m.adjust_pinned(old, pinned);
            if let Some(c) = &self.cache {
                m.apply_cache_share(c);
            }
        }
    }

    /// Feed one cumulative sample to the memory arbiter and re-apply
    /// the cache share if the split moved. Cheap when idle (the tuner
    /// differences its inputs, so an unchanged window classifies as
    /// hold); called from both the inline and background maintenance
    /// paths.
    fn memory_tick(&self) {
        let (Some(m), Some(c)) = (&self.memory, &self.cache) else {
            return;
        };
        let sample = TunerSample {
            cache_fill_bytes: c.inserted_bytes(),
            write_bytes: self.stats.user_bytes.load(Ordering::Relaxed),
            write_stalls: self.stats.write_stalls.load(Ordering::Relaxed),
        };
        if m.tick(sample) {
            m.apply_cache_share(c);
        }
    }

    /// Close a trace: emit each span into the event ring, count it, and
    /// retain the whole trace for the `traces` command.
    fn finish_trace(&self, buf: TraceBuf) -> OpTrace {
        let trace = buf.finish();
        for (stage, value) in &trace.spans {
            self.obs.log(Event::TraceSpan {
                trace_id: trace.trace_id,
                op: trace.op,
                stage: *stage,
                value: *value,
            });
        }
        self.stats.traces_sampled.fetch_add(1, Ordering::Relaxed);
        self.tracer.record(trace.clone());
        trace
    }

    /// Enter the commit-exclusion domain: wait out any commit leader or
    /// other exclusive section, then own the WAL writer + seqno
    /// allocator until the token drops. Must be acquired *before* the
    /// state lock.
    fn commit_exclusive(&self) -> CommitExclusion<'_> {
        let mut q = self.commit.lock();
        while q.exclusive {
            self.wait_for_commit_turn(&mut q);
        }
        self.enter_exclusion(q)
    }

    /// Take the exclusion, which `q` shows to be free. How a commit
    /// leader enters the domain: it already holds the queue lock and
    /// has just seen that nobody else is in.
    fn enter_exclusion<'a>(
        &'a self,
        mut q: parking_lot::MutexGuard<'_, CommitQueue>,
    ) -> CommitExclusion<'a> {
        debug_assert!(!q.exclusive, "the exclusion has one holder");
        q.exclusive = true;
        CommitExclusion { core: self }
    }

    /// Park on `commit_cv`, registered as a waiter so whoever releases
    /// the exclusion knows a wakeup is owed.
    fn wait_for_commit_turn(&self, q: &mut parking_lot::MutexGuard<'_, CommitQueue>) {
        q.waiters += 1;
        self.commit_cv.wait(q);
        q.waiters -= 1;
    }

    /// Leave the commit-exclusion domain, waking the parked threads if
    /// there are any. Waiters register under the `commit` mutex before
    /// they park, so a zero count here means nobody can miss this
    /// release: a thread not yet counted has not yet looked at
    /// `exclusive`, and will find it clear.
    fn release_commit_exclusion(&self) {
        let mut q = self.commit.lock();
        q.exclusive = false;
        if q.waiters > 0 {
            self.commit_wakeups.fetch_add(1, Ordering::Relaxed);
            self.commit_cv.notify_all();
        }
    }

    /// Commit a drained group as its leader: one WAL record per request
    /// (so per-batch atomicity and recovery framing are unchanged), one
    /// fsync for the whole group — both outside the state lock — then
    /// publish the memtable inserts, seqnos, and a fresh read view under
    /// a short state critical section. Distributes the result to every
    /// request.
    fn commit_group(
        &self,
        excl: &CommitExclusion<'_>,
        mut group: Vec<PendingCommit>,
        trace: Option<&mut TraceBuf>,
    ) {
        let mut op_lists: Vec<&mut [WalOp]> = group.iter_mut().map(|p| &mut p.ops[..]).collect();
        let outcome = self.commit_group_inner(excl, &mut op_lists, trace);
        let failure = outcome.err().map(|e| e.to_string());
        for p in &group {
            *p.req.result.lock() = Some(failure.clone().map_or(Ok(()), Err));
        }
    }

    /// The commit itself. `excl` — the caller's hold on the exclusion,
    /// which makes it the only WAL appender and seqno allocator — is
    /// what lets it seal a full memtable and hand the work that (or a
    /// crossed TTL deadline) leaves behind to [`DbCore::announce_work`].
    fn commit_group_inner(
        &self,
        excl: &CommitExclusion<'_>,
        group: &mut [&mut [WalOp]],
        mut trace: Option<&mut TraceBuf>,
    ) -> Result<()> {
        // Phase 1: durability. WAL append + one group fsync under the
        // WAL mutex only — readers and background installs proceed.
        // The group's seqnos are consecutive (only the leader allocates),
        // so its first one is all phase 2 needs to re-derive the rest.
        let first_seqno = self.seq_alloc.load(Ordering::Relaxed) + 1;
        let separation = self.opts.value_separation_threshold;
        // (segment, frame bytes) per value separated in this group,
        // folded into the live accounting once the WAL section ends.
        let mut separated: Vec<(u64, u64)> = Vec::new();
        let wal_started = trace.as_ref().map(|_| Instant::now());
        let mut vlog_micros = 0u64;
        {
            let mut wal = self.wal.lock();
            let mut vlog = self.vlog.lock();
            for ops in group.iter_mut() {
                // Key-value separation: a large put moves its value into
                // the vlog *before* the WAL record referencing it is
                // appended (and the vlog head is synced before the WAL
                // sync below), so a durable pointer always has durable
                // bytes behind it. Recovery relies on this ordering.
                if separation > 0 {
                    let sep_started = trace.as_ref().map(|_| Instant::now());
                    for op in ops.iter_mut() {
                        let WalOp::Put { key, value, dkey } = op else {
                            continue;
                        };
                        if value.len() < separation {
                            continue;
                        }
                        if vlog.is_none() {
                            let seg = self.vlog_next_segment.load(Ordering::Relaxed);
                            *vlog = Some(VlogWriter::create(
                                Arc::clone(&self.fs),
                                &self.dir,
                                seg,
                                self.opts.vlog_segment_bytes,
                            )?);
                        }
                        let writer = vlog.as_mut().expect("writer just created");
                        let ptr = writer.append(key, value)?;
                        separated.push((ptr.segment, u64::from(ptr.len)));
                        self.stats.vlog_appends.fetch_add(1, Ordering::Relaxed);
                        self.stats
                            .vlog_bytes_written
                            .fetch_add(u64::from(ptr.len), Ordering::Relaxed);
                        *op = WalOp::PutPtr {
                            key: std::mem::take(key),
                            ptr,
                            dkey: *dkey,
                        };
                    }
                    if let Some(s) = sep_started {
                        vlog_micros += s.elapsed().as_micros() as u64;
                    }
                }
                debug_assert!(!ops.is_empty(), "a commit carries at least one op");
                let base = self.seq_alloc.load(Ordering::Relaxed) + 1;
                if base > MAX_SEQNO {
                    return Err(Error::Internal("sequence number space exhausted".into()));
                }
                // Advance the allocator before the append: on an append
                // error the consumed seqnos are never reused, so a
                // durably written record from earlier in the group can
                // never collide with a later retry's seqnos.
                self.seq_alloc
                    .store(base + ops.len() as u64 - 1, Ordering::Relaxed);
                wal.add_batch(base, ops)?;
            }
            if let Some(w) = vlog.as_mut() {
                self.vlog_next_segment
                    .store(w.segment() + 1, Ordering::Relaxed);
            }
            if self.opts.wal_sync {
                // Vlog before WAL: a synced WAL record must never
                // reference unsynced frames.
                if let Some(w) = vlog.as_mut() {
                    w.sync()?;
                }
                wal.sync()?;
                self.stats.wal_syncs.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .wal_syncs_saved
                    .fetch_add(group.len() as u64 - 1, Ordering::Relaxed);
            }
        }
        if let Some(t) = trace.as_deref_mut() {
            // The vlog appends happen inside the WAL critical section;
            // report them as their own stage and the remainder as the
            // WAL append + fsync.
            let section = wal_started
                .expect("timed when traced")
                .elapsed()
                .as_micros() as u64;
            t.add(
                TraceStage::WalAppendFsync,
                section.saturating_sub(vlog_micros),
            );
            if !separated.is_empty() {
                t.add(TraceStage::VlogAppend, vlog_micros);
                t.add(TraceStage::VlogFramesAppended, separated.len() as u64);
            }
        }
        if !separated.is_empty() {
            let mut vs = self.vlog_state.lock();
            for (segment, bytes) in &separated {
                vs.add_live(*segment, *bytes);
            }
        }
        self.stats.commit_groups.fetch_add(1, Ordering::Relaxed);
        let total_ops: u64 = group.iter().map(|ops| ops.len() as u64).sum();
        self.stats.commit_group_ops.record(total_ops);
        self.obs.log(Event::WalGroupCommit {
            ops: total_ops,
            commits: group.len() as u64,
            synced: self.opts.wal_sync,
        });

        // Phase 2: visibility. Publish the whole group's inserts and the
        // new visible seqno, then swap the read view.
        let mem_started = trace.as_ref().map(|_| Instant::now());
        let mut st = self.state.write();
        // Delete-lifecycle ledger inputs, gathered while the entries
        // stream by so the ledger lock is taken at most once per group.
        let mut point_deletes = 0u64;
        let mut krt_deletes = 0u64;
        let mut first_delete_tick: Option<Tick> = None;
        let mut seqno = first_seqno;
        for ops in group.iter() {
            for op in ops.iter() {
                // The entry shares the op's key and value allocations:
                // the copy made when the write entered the engine is the
                // one the memtable keeps.
                let user_bytes = match op {
                    WalOp::Put { key, value, .. } => {
                        self.stats.puts.fetch_add(1, Ordering::Relaxed);
                        key.len() + value.len()
                    }
                    WalOp::PutPtr { key, ptr, .. } => {
                        // Separated put: account the user's original value
                        // length, not the 20-byte pointer the tree stores.
                        self.stats.puts.fetch_add(1, Ordering::Relaxed);
                        key.len()
                            + (ptr.len as usize)
                                .saturating_sub(acheron_vlog::FRAME_HEADER + 4 + key.len())
                    }
                    WalOp::Delete { key, tick } => {
                        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
                        point_deletes += 1;
                        first_delete_tick = Some(first_delete_tick.map_or(*tick, |t| t.min(*tick)));
                        key.len()
                    }
                    WalOp::RangeDeleteKeys { start, end, tick } => {
                        self.stats
                            .sort_range_deletes
                            .fetch_add(1, Ordering::Relaxed);
                        krt_deletes += 1;
                        first_delete_tick = Some(first_delete_tick.map_or(*tick, |t| t.min(*tick)));
                        st.mem
                            .add_range_tombstone(acheron_types::KeyRangeTombstone {
                                start: start.clone(),
                                end: end.clone(),
                                seqno,
                                dkey: *tick,
                            });
                        start.len() + end.len()
                    }
                };
                self.stats
                    .user_bytes
                    .fetch_add(user_bytes as u64, Ordering::Relaxed);
                if let Some(entry) = op.entry(seqno) {
                    st.mem.insert(entry);
                }
                seqno += 1;
            }
            if self.opts.auto_advance_clock {
                self.opts.clock_advance(ops.len() as u64);
            }
        }
        if point_deletes > 0 || krt_deletes > 0 {
            // Fold this group's deletes into the open cohort; the tick
            // is each delete's own stamp (its FADE age already runs).
            self.ledger.lock().note_deletes(
                point_deletes,
                krt_deletes,
                first_delete_tick.expect("deletes carry ticks"),
            );
        }
        let last = seqno - 1;
        // This store is the entire visibility publish for a plain
        // commit: the inserts above went into the memtable every current
        // and future view shares, so advancing the ceiling (Release,
        // paired with the readers' Acquire load) makes them readable
        // without rebuilding the view.
        self.visible_seqno.store(last, Ordering::Release);
        if let Some(t) = trace.as_deref_mut() {
            let started = mem_started.expect("timed when traced");
            t.add(
                TraceStage::MemtableInsert,
                started.elapsed().as_micros() as u64,
            );
        }
        let maint_started = trace.as_ref().map(|_| Instant::now());

        // Tighten the cached TTL deadline when a tombstone — point or
        // sort-key range — enters the buffer (the buffer's oldest
        // tombstone only gets older, so the first one fixes the buffer
        // deadline until the next flush).
        if let Some(ttl) = self.picker.ttl_schedule() {
            if let Some(mem_deadline) = ttl.buffer_deadline(&st.mem) {
                st.ttl_deadline = Some(
                    st.ttl_deadline
                        .map_or(mem_deadline, |d| d.min(mem_deadline)),
                );
            }
        }
        let work = if st.mem.approximate_bytes() >= self.write_buffer_limit() {
            self.seal_memtable_locked(excl, &mut st)?;
            true
        } else {
            // Exact FADE trigger: something's residency budget ran out.
            st.ttl_deadline
                .is_some_and(|deadline| self.opts.clock.now() > deadline)
        };
        drop(st);
        if work {
            self.announce_work(excl)?;
        }
        if let Some(t) = trace {
            // Nonzero only in synchronous mode, where the seal/flush/
            // compaction this commit triggered ran inside the op.
            let micros = maint_started
                .expect("timed when traced")
                .elapsed()
                .as_micros() as u64;
            if micros > 0 {
                t.add(TraceStage::InlineMaintenance, micros);
            }
        }
        Ok(())
    }
}

/// The trace-op classification of a WAL op list: a lone put or delete
/// keeps its identity, anything else is a batch write.
fn trace_op_for(ops: &[WalOp]) -> TraceOp {
    match ops {
        [WalOp::Put { .. }] | [WalOp::PutPtr { .. }] => TraceOp::Put,
        [WalOp::Delete { .. }] => TraceOp::Delete,
        _ => TraceOp::Write,
    }
}

impl DbOptions {
    fn clock_advance(&self, n: u64) {
        if let Some(lc) = self.clock.as_logical() {
            lc.advance(n);
        }
    }

    fn clock_advance_to(&self, t: Tick) {
        if let Some(lc) = self.clock.as_logical() {
            lc.advance_to(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CompactionLayout;
    use acheron_vfs::MemFs;

    fn open_mem(opts: DbOptions) -> (Arc<MemFs>, Db) {
        let fs = Arc::new(MemFs::new());
        let db = Db::open(fs.clone() as Arc<dyn Vfs>, "db", opts).unwrap();
        (fs, db)
    }

    pub(super) fn small() -> DbOptions {
        DbOptions::small()
    }

    #[test]
    fn put_get_delete_round_trip() {
        let (_fs, db) = open_mem(small());
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        assert_eq!(db.get(b"a").unwrap().unwrap().as_ref(), b"1");
        db.put(b"a", b"1bis").unwrap();
        assert_eq!(db.get(b"a").unwrap().unwrap().as_ref(), b"1bis");
        db.delete(b"a").unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
        assert_eq!(db.get(b"b").unwrap().unwrap().as_ref(), b"2");
        assert_eq!(db.get(b"missing").unwrap(), None);
    }

    #[test]
    fn reads_span_memtable_and_levels() {
        let (_fs, db) = open_mem(small());
        for i in 0..2000u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'v'; 64])
                .unwrap();
        }
        // The tree must have flushed at least once by now.
        assert!(
            db.stats()
                .flushes
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
        for i in (0..2000u32).step_by(97) {
            let got = db.get(format!("key{i:05}").as_bytes()).unwrap();
            assert!(got.is_some(), "key{i:05} lost");
        }
        db.verify_integrity().unwrap();
    }

    #[test]
    fn overwrites_survive_compaction() {
        let (_fs, db) = open_mem(small());
        for round in 0..5u32 {
            for i in 0..500u32 {
                db.put(
                    format!("key{i:04}").as_bytes(),
                    format!("r{round}-{i}").as_bytes(),
                )
                .unwrap();
            }
        }
        db.compact_all().unwrap();
        for i in (0..500u32).step_by(13) {
            let got = db.get(format!("key{i:04}").as_bytes()).unwrap().unwrap();
            assert_eq!(got.as_ref(), format!("r4-{i}").as_bytes());
        }
        db.verify_integrity().unwrap();
    }

    #[test]
    fn deletes_survive_flush_and_compaction() {
        let (_fs, db) = open_mem(small());
        for i in 0..1000u32 {
            db.put(format!("key{i:04}").as_bytes(), &[b'x'; 32])
                .unwrap();
        }
        db.compact_all().unwrap();
        for i in 0..1000u32 {
            if i % 3 == 0 {
                db.delete(format!("key{i:04}").as_bytes()).unwrap();
            }
        }
        db.compact_all().unwrap();
        for i in 0..1000u32 {
            let got = db.get(format!("key{i:04}").as_bytes()).unwrap();
            assert_eq!(got.is_none(), i % 3 == 0, "key{i:04}");
        }
    }

    #[test]
    fn scan_merges_all_sources() {
        let (_fs, db) = open_mem(small());
        for i in 0..300u32 {
            db.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        // Updates and deletes land in the memtable.
        db.put(b"key0010", b"updated").unwrap();
        db.delete(b"key0011").unwrap();
        let got = db.scan(b"key0009", b"key0013").unwrap();
        let rendered: Vec<(String, String)> = got
            .iter()
            .map(|(k, v)| {
                (
                    String::from_utf8_lossy(k).into_owned(),
                    String::from_utf8_lossy(v).into_owned(),
                )
            })
            .collect();
        assert_eq!(
            rendered,
            vec![
                ("key0009".into(), "v9".into()),
                ("key0010".into(), "updated".into()),
                ("key0012".into(), "v12".into()),
                ("key0013".into(), "v13".into()),
            ]
        );
    }

    #[test]
    fn scan_bounds_are_inclusive() {
        let (_fs, db) = open_mem(small());
        for k in ["a", "b", "c", "d"] {
            db.put(k.as_bytes(), b"v").unwrap();
        }
        let got = db.scan(b"b", b"c").unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.as_ref(), b"b");
        assert_eq!(got[1].0.as_ref(), b"c");
        assert!(db.scan(b"x", b"z").unwrap().is_empty());
    }

    #[test]
    fn snapshot_isolation_for_gets() {
        let (_fs, db) = open_mem(small());
        db.put(b"k", b"old").unwrap();
        let snap = db.snapshot();
        db.put(b"k", b"new").unwrap();
        db.delete(b"j").unwrap();
        assert_eq!(db.get_at(&snap, b"k").unwrap().unwrap().as_ref(), b"old");
        assert_eq!(db.get(b"k").unwrap().unwrap().as_ref(), b"new");
        drop(snap);
    }

    #[test]
    fn snapshot_survives_compaction() {
        let (_fs, db) = open_mem(small());
        db.put(b"pinned", b"v1").unwrap();
        let snap = db.snapshot();
        for i in 0..3000u32 {
            db.put(format!("fill{i:05}").as_bytes(), &[b'f'; 64])
                .unwrap();
        }
        db.put(b"pinned", b"v2").unwrap();
        db.compact_all().unwrap();
        assert_eq!(
            db.get_at(&snap, b"pinned").unwrap().unwrap().as_ref(),
            b"v1"
        );
        assert_eq!(db.get(b"pinned").unwrap().unwrap().as_ref(), b"v2");
    }

    #[test]
    fn range_delete_secondary_erases_by_dkey() {
        let (_fs, db) = open_mem(small());
        for i in 0..100u32 {
            db.put_with_dkey(format!("key{i:03}").as_bytes(), b"v", u64::from(i))
                .unwrap();
        }
        db.range_delete_secondary(10, 19).unwrap();
        for i in 0..100u32 {
            let got = db.get(format!("key{i:03}").as_bytes()).unwrap();
            assert_eq!(got.is_none(), (10..20).contains(&i), "key{i:03}");
        }
        // Scans agree.
        let got = db.scan(b"key000", b"key099").unwrap();
        assert_eq!(got.len(), 90);
        // And the erasure persists through compaction.
        db.compact_all().unwrap();
        for i in 0..100u32 {
            let got = db.get(format!("key{i:03}").as_bytes()).unwrap();
            assert_eq!(
                got.is_none(),
                (10..20).contains(&i),
                "key{i:03} after compact"
            );
        }
    }

    #[test]
    fn range_delete_on_newest_version_hides_the_key() {
        // Newest-version-decides semantics: erasing the newest version
        // deletes the key; older versions do not resurface, no matter
        // when compaction physically reclaims the bytes.
        let (_fs, db) = open_mem(small());
        db.put_with_dkey(b"k", b"v-old", 5).unwrap();
        db.put_with_dkey(b"k", b"v-new", 50).unwrap();
        db.range_delete_secondary(40, 60).unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        db.compact_all().unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        // An older version *is* still readable through a range that does
        // not cover the newest one.
        db.put_with_dkey(b"j", b"j-old", 5).unwrap();
        db.put_with_dkey(b"j", b"j-new", 100).unwrap();
        db.range_delete_secondary(0, 10).unwrap();
        assert_eq!(db.get(b"j").unwrap().unwrap().as_ref(), b"j-new");
    }

    #[test]
    fn range_delete_rejects_inverted_range() {
        let (_fs, db) = open_mem(small());
        assert!(db.range_delete_secondary(10, 5).is_err());
    }

    #[test]
    fn range_tombstones_retire_once_applied() {
        let (_fs, db) = open_mem(small());
        for i in 0..500u32 {
            db.put_with_dkey(format!("key{i:04}").as_bytes(), &[b'v'; 32], u64::from(i))
                .unwrap();
        }
        db.range_delete_secondary(0, 100).unwrap();
        assert_eq!(db.live_range_tombstones().len(), 1);
        db.compact_all().unwrap();
        assert!(
            db.live_range_tombstones().is_empty(),
            "fully applied range tombstone must retire"
        );
        db.verify_integrity().unwrap();
    }

    #[test]
    fn fade_bounds_tombstone_age() {
        let d_th = 2_000u64;
        let (_fs, db) = open_mem(small().with_fade(d_th));
        for i in 0..800u32 {
            db.put(format!("key{i:04}").as_bytes(), &[b'v'; 32])
                .unwrap();
        }
        for i in 0..400u32 {
            db.delete(format!("key{i:04}").as_bytes()).unwrap();
        }
        // Drive the clock well past the threshold with unrelated writes.
        for i in 0..6000u32 {
            db.put(format!("other{i:05}").as_bytes(), &[b'w'; 32])
                .unwrap();
        }
        db.maintain().unwrap();
        let age = db.oldest_live_tombstone_age();
        assert!(
            age.is_none_or(|a| a <= d_th),
            "oldest tombstone age {age:?} exceeds D_th {d_th}"
        );
        assert_eq!(
            db.stats()
                .persistence_violations
                .load(std::sync::atomic::Ordering::Relaxed),
            0,
            "FADE must never violate the threshold"
        );
        assert!(
            db.stats()
                .ttl_compactions
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0,
            "TTL trigger should have fired"
        );
    }

    #[test]
    fn baseline_accumulates_tombstones_fade_purges_them() {
        // The scenario the paper motivates: a cold key range is deleted
        // and then the workload goes quiet. The baseline has no trigger
        // left, so its tombstones linger forever; FADE's TTL trigger
        // purges them as the clock advances.
        let d_th = 3_000u64;
        let run = |fade: bool| -> u64 {
            let opts = if fade {
                small().with_fade(d_th)
            } else {
                small()
            };
            let (_fs, db) = open_mem(opts);
            for i in 0..1000u32 {
                db.put(format!("key{i:04}").as_bytes(), &[b'v'; 32])
                    .unwrap();
            }
            for i in 0..1000u32 {
                db.delete(format!("key{i:04}").as_bytes()).unwrap();
            }
            db.flush().unwrap();
            // Quiet period: time passes, no writes.
            db.advance_clock(10 * d_th);
            db.maintain().unwrap();
            db.live_tombstones()
        };
        let baseline = run(false);
        let fade = run(true);
        assert_eq!(fade, 0, "FADE must purge every expired tombstone");
        assert!(
            baseline > 0,
            "delete-blind baseline has no reason to purge: {baseline}"
        );
    }

    #[test]
    fn tiering_layout_works_end_to_end() {
        let opts = DbOptions {
            layout: CompactionLayout::Tiering,
            ..small()
        };
        let (_fs, db) = open_mem(opts);
        for i in 0..4000u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'v'; 48])
                .unwrap();
        }
        db.compact_all().unwrap();
        for i in (0..4000u32).step_by(211) {
            assert!(db.get(format!("key{i:05}").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn lazy_leveling_layout_works_end_to_end() {
        let opts = DbOptions {
            layout: CompactionLayout::LazyLeveling,
            ..small()
        };
        let (_fs, db) = open_mem(opts);
        for i in 0..4000u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'v'; 48])
                .unwrap();
        }
        db.compact_all().unwrap();
        for i in (0..4000u32).step_by(211) {
            assert!(db.get(format!("key{i:05}").as_bytes()).unwrap().is_some());
        }
        db.verify_integrity().unwrap();
    }

    #[test]
    fn kiwi_tiles_preserve_correctness() {
        let opts = small().with_tile(8);
        let (_fs, db) = open_mem(opts);
        for i in 0..3000u32 {
            db.put_with_dkey(
                format!("key{i:05}").as_bytes(),
                format!("v{i}").as_bytes(),
                u64::from(i % 256),
            )
            .unwrap();
        }
        db.compact_all().unwrap();
        for i in (0..3000u32).step_by(173) {
            let got = db.get(format!("key{i:05}").as_bytes()).unwrap().unwrap();
            assert_eq!(got.as_ref(), format!("v{i}").as_bytes());
        }
        let scanned = db.scan(b"key00100", b"key00200").unwrap();
        assert_eq!(scanned.len(), 101);
    }

    #[test]
    fn stats_track_operations() {
        let (_fs, db) = open_mem(small());
        db.put(b"a", b"1").unwrap();
        db.delete(b"a").unwrap();
        db.get(b"a").unwrap();
        db.scan(b"a", b"z").unwrap();
        db.range_delete_secondary(0, 1).unwrap();
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(db.stats().puts.load(Relaxed), 1);
        assert_eq!(db.stats().deletes.load(Relaxed), 1);
        assert_eq!(db.stats().gets.load(Relaxed), 1);
        assert_eq!(db.stats().scans.load(Relaxed), 1);
        assert_eq!(db.stats().range_deletes.load(Relaxed), 1);
    }

    #[test]
    fn level_summary_shape() {
        let (_fs, db) = open_mem(small());
        for i in 0..2000u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'v'; 64])
                .unwrap();
        }
        db.compact_all().unwrap();
        let summary = db.level_summary();
        assert_eq!(summary.len(), db.options().max_levels);
        let total: u64 = summary.iter().map(|l| l.entries).sum();
        assert!(total > 0);
        assert!(
            summary.iter().any(|l| l.level > 0 && l.files > 0),
            "data should reach L1+"
        );
    }

    #[test]
    fn write_batch_is_atomic_and_visible_together() {
        let (_fs, db) = open_mem(small());
        db.put(b"victim", b"old").unwrap();
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.put_with_dkey(b"b", b"2", 77);
        batch.delete(b"victim");
        assert_eq!(batch.len(), 3);
        db.write_batch(batch).unwrap();
        assert_eq!(db.get(b"a").unwrap().unwrap().as_ref(), b"1");
        assert_eq!(db.get(b"b").unwrap().unwrap().as_ref(), b"2");
        assert_eq!(db.get(b"victim").unwrap(), None);
        // Empty batches are a no-op.
        db.write_batch(WriteBatch::new()).unwrap();
        // dkey-tagged member is range-deletable.
        db.range_delete_secondary(77, 77).unwrap();
        assert_eq!(db.get(b"b").unwrap(), None);
        assert_eq!(db.get(b"a").unwrap().unwrap().as_ref(), b"1");
    }

    #[test]
    fn batched_delete_age_starts_at_commit() {
        let (_fs, db) = open_mem(small().with_fade(5_000));
        db.put(b"k", b"v").unwrap();
        let mut batch = WriteBatch::new();
        batch.delete(b"k");
        db.write_batch(batch).unwrap();
        // The tombstone's tick must be a real clock value (not the
        // u64::MAX placeholder), or FADE aging breaks.
        let age = db.oldest_live_tombstone_age().expect("tombstone live");
        assert!(age < 1_000, "tombstone age {age} implies a bad commit tick");
    }

    #[test]
    fn block_cache_serves_repeated_reads() {
        let mut opts = small();
        opts.block_cache_bytes = 4 << 20;
        let (_fs, db) = open_mem(opts);
        for i in 0..3000u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'v'; 64])
                .unwrap();
        }
        db.compact_all().unwrap();
        let (h0, m0) = db.cache_stats().expect("cache configured");
        for _round in 0..3 {
            for i in (0..3000u32).step_by(17) {
                assert!(db.get(format!("key{i:05}").as_bytes()).unwrap().is_some());
            }
        }
        let (h1, m1) = db.cache_stats().expect("cache configured");
        let (hits, misses) = (h1 - h0, m1 - m0);
        assert!(
            hits > misses,
            "repeated reads should hit the cache: {hits} hits / {misses} misses"
        );
        // Without a cache the stats accessor reports None.
        let (_fs2, db2) = open_mem(small());
        assert!(db2.cache_stats().is_none());
    }

    /// The calls `results_identical_with_and_without_cache` drives, so
    /// one op stream runs against a `Db` and against a fleet.
    trait CacheSubject {
        fn write(&self, key: &[u8], value: Option<&[u8]>);
        fn read(&self, key: &[u8]) -> Option<Vec<u8>>;
        fn scan_all(&self) -> Vec<(Vec<u8>, Vec<u8>)>;
        fn flush_and_maintain(&self);
        fn compact(&self);
    }

    impl CacheSubject for Db {
        fn write(&self, key: &[u8], value: Option<&[u8]>) {
            match value {
                Some(v) => self.put(key, v).unwrap(),
                None => self.delete(key).unwrap(),
            }
        }
        fn read(&self, key: &[u8]) -> Option<Vec<u8>> {
            self.get(key).unwrap().map(|v| v.to_vec())
        }
        fn scan_all(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
            let rows = self.scan(b"", b"\xff").unwrap();
            rows.into_iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect()
        }
        fn flush_and_maintain(&self) {
            self.flush().unwrap();
            self.maintain().unwrap();
        }
        fn compact(&self) {
            self.compact_all().unwrap();
        }
    }

    impl CacheSubject for crate::sharded::ShardedDb {
        fn write(&self, key: &[u8], value: Option<&[u8]>) {
            match value {
                Some(v) => self.put(key, v).unwrap(),
                None => self.delete(key).unwrap(),
            }
        }
        fn read(&self, key: &[u8]) -> Option<Vec<u8>> {
            self.get(key).unwrap()
        }
        fn scan_all(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
            self.scan(b"", b"\xff").unwrap()
        }
        fn flush_and_maintain(&self) {
            self.flush().unwrap();
            self.maintain().unwrap();
        }
        fn compact(&self) {
            for s in 0..self.shard_count() {
                self.shard(s).compact_all().unwrap();
            }
        }
    }

    /// Every answer of a read stream interleaved with the maintenance
    /// that replaces tables under it: flushes, picked and manual
    /// compactions, and vlog GC (a third of the values are separated,
    /// overwritten and deleted, so segments pass the dead ratio).
    fn answers_under_table_churn(db: &dyn CacheSubject) -> Vec<Option<Vec<u8>>> {
        let key = |i: u32| format!("key{i:05}").into_bytes();
        let value = |i: u32| match i % 3 {
            0 => big_value(i),
            _ => format!("v{i}").into_bytes(),
        };
        let mut answers = Vec::new();
        for i in 0..2000u32 {
            db.write(&key(i % 700), Some(&value(i)));
            if i % 3 == 0 {
                db.write(&key((i / 2) % 700), None);
            }
            // Reads trail the writes: some land in the memtable, most in
            // tables a flush or compaction has just written or replaced.
            answers.push(db.read(&key((i * 7) % 700)));
            match i % 400 {
                150 | 350 => db.flush_and_maintain(),
                399 => db.compact(),
                _ => {}
            }
            if i % 250 == 249 {
                answers.extend(db.scan_all().into_iter().map(|(_, v)| Some(v)));
            }
        }
        answers.extend(db.scan_all().into_iter().map(|(k, _)| Some(k)));
        answers
    }

    #[test]
    fn results_identical_with_and_without_cache() {
        let single = |cache: usize| {
            let mut opts = vlog_opts();
            opts.block_cache_bytes = cache;
            let (_fs, db) = open_mem(opts);
            let answers = answers_under_table_churn(&db);
            let stats = db.stats_snapshot();
            assert!(stats.flushes > 5 && stats.compactions > 5 && stats.vlog_gc_rewrites > 0);
            db.verify_integrity().unwrap();
            answers
        };
        // One cache shared by four shards: each shard's table deaths
        // erase pages next to the other shards' live ones.
        let fleet = |cache: usize| {
            let mut opts = vlog_opts();
            opts.block_cache_bytes = cache;
            let fs = Arc::new(MemFs::new());
            let db = crate::sharded::ShardedDb::open(fs as Arc<dyn Vfs>, "db", opts, 4).unwrap();
            let answers = answers_under_table_churn(&db);
            db.verify_integrity().unwrap();
            answers
        };
        let expected = single(0);
        assert_eq!(expected, fleet(0), "sharding changes no answer");
        // A roomy cache, and a pathologically tiny one.
        for cache in [1 << 20, 64] {
            assert_eq!(expected, single(cache), "Db, cache {cache}");
            assert_eq!(expected, fleet(cache), "fleet, cache {cache}");
        }
    }

    #[test]
    fn range_iter_streams_and_stops_early() {
        let (_fs, db) = open_mem(small());
        for i in 0..1000u32 {
            db.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.delete(b"key0003").unwrap();
        db.flush().unwrap();
        // Stream only the first five live rows of a huge range.
        let mut it = db.range_iter(b"key0000", b"key9999").unwrap();
        let mut got = Vec::new();
        for _ in 0..5 {
            got.push(it.next_entry().unwrap().expect("more rows"));
        }
        let keys: Vec<String> = got
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect();
        assert_eq!(
            keys,
            vec!["key0000", "key0001", "key0002", "key0004", "key0005"]
        );
        drop(it);
        // The streaming result equals the materialized scan.
        let mut it = db.range_iter(b"key0100", b"key0110").unwrap();
        let mut streamed = Vec::new();
        while let Some(kv) = it.next_entry().unwrap() {
            streamed.push(kv);
        }
        assert_eq!(streamed, db.scan(b"key0100", b"key0110").unwrap());
        // End-of-range is stable.
        assert!(it.next_entry().unwrap().is_none());
        assert!(it.next_entry().unwrap().is_none());
    }

    #[test]
    fn range_iter_survives_concurrent_compaction() {
        let (_fs, db) = open_mem(small());
        for i in 0..500u32 {
            db.put(format!("key{i:04}").as_bytes(), &[b'v'; 32])
                .unwrap();
        }
        db.flush().unwrap();
        let mut it = db.range_iter(b"key0000", b"key9999").unwrap();
        // Pull a few rows, then compact everything underneath it.
        for _ in 0..10 {
            it.next_entry().unwrap().unwrap();
        }
        db.compact_all().unwrap();
        for i in 0..200u32 {
            db.put(format!("new{i:04}").as_bytes(), &[b'w'; 32])
                .unwrap();
        }
        // The iterator keeps serving its frozen view.
        let mut remaining = 10;
        while let Some((k, _)) = it.next_entry().unwrap() {
            assert!(
                k.starts_with(b"key"),
                "iterator view must not see new writes"
            );
            remaining += 1;
        }
        assert_eq!(remaining, 500);
    }

    #[test]
    fn empty_db_operations() {
        let (_fs, db) = open_mem(small());
        assert_eq!(db.get(b"nothing").unwrap(), None);
        assert!(db.scan(b"a", b"z").unwrap().is_empty());
        db.flush().unwrap();
        db.compact_all().unwrap();
        db.verify_integrity().unwrap();
        assert_eq!(db.live_tombstones(), 0);
    }

    // ------------------------------------------------------------------
    // Key-value separation (value log)
    // ------------------------------------------------------------------

    use std::sync::atomic::Ordering::Relaxed;

    pub(super) fn vlog_opts() -> DbOptions {
        let mut opts = small().with_value_separation(64);
        // Small segments so workloads span several files and the GC has
        // non-head segments to work on.
        opts.vlog_segment_bytes = 2048;
        opts
    }

    pub(super) fn big_value(i: u32) -> Vec<u8> {
        format!("value-{i:04}-")
            .into_bytes()
            .into_iter()
            .cycle()
            .take(300)
            .collect()
    }

    #[test]
    fn separated_values_round_trip_everywhere() {
        let (_fs, db) = open_mem(vlog_opts());
        db.put(b"small", b"tiny").unwrap();
        for i in 0..200u32 {
            db.put(format!("big{i:04}").as_bytes(), &big_value(i))
                .unwrap();
        }
        assert!(db.stats().vlog_appends.load(Relaxed) >= 200);
        // Memtable read resolves through the pointer.
        assert_eq!(db.get(b"big0000").unwrap().unwrap(), big_value(0));
        db.flush().unwrap();
        db.compact_all().unwrap();
        // Table read resolves through the pointer.
        assert_eq!(db.get(b"big0123").unwrap().unwrap(), big_value(123));
        // Scans dereference at yield time.
        let got = db.scan(b"big0000", b"big0003").unwrap();
        assert_eq!(got.len(), 4);
        for (idx, (k, v)) in got.iter().enumerate() {
            assert_eq!(k.as_ref(), format!("big{idx:04}").as_bytes());
            assert_eq!(v, &big_value(idx as u32));
        }
        // Small values stay inline.
        assert_eq!(db.get(b"small").unwrap().unwrap().as_ref(), b"tiny");
        let gauges = db.tombstone_gauges();
        assert!(gauges.vlog_live_bytes > 0);
        db.verify_integrity().unwrap();
    }

    #[test]
    fn vlog_gc_drains_dead_extents_within_deadline() {
        let d_th = 2_000u64;
        let mut opts = vlog_opts().with_fade(d_th);
        // Disable the ratio trigger so only the deadline can drive GC.
        opts.vlog_gc_dead_ratio_percent = 0;
        let (_fs, db) = open_mem(opts);
        for i in 0..150u32 {
            db.put(format!("big{i:04}").as_bytes(), &big_value(i))
                .unwrap();
        }
        db.flush().unwrap();
        for i in 0..150u32 {
            db.delete(format!("big{i:04}").as_bytes()).unwrap();
        }
        // Compaction drops the shadowed pointers, turning their frames
        // dead (stamped with the tombstone's dkey).
        db.compact_all().unwrap();
        assert!(
            db.tombstone_gauges().vlog_dead_bytes > 0,
            "purged pointers must surface as dead vlog bytes"
        );
        db.advance_clock(2 * d_th);
        db.maintain().unwrap();
        let gauges = db.tombstone_gauges();
        assert_eq!(gauges.vlog_dead_bytes, 0, "overdue dead extents must drain");
        assert_eq!(gauges.vlog_oldest_dead_tick, None);
        assert!(db.stats().vlog_segments_deleted.load(Relaxed) > 0);
        for i in 0..150u32 {
            assert_eq!(db.get(format!("big{i:04}").as_bytes()).unwrap(), None);
        }
    }

    #[test]
    fn vlog_gc_rewrites_live_values_and_preserves_reads() {
        let (_fs, db) = open_mem(vlog_opts());
        for i in 0..150u32 {
            db.put(format!("big{i:04}").as_bytes(), &big_value(i))
                .unwrap();
        }
        db.flush().unwrap();
        // Kill most values so the dead ratio fires; survivors must be
        // carried to the vlog head by the rewrite.
        for i in 0..150u32 {
            if i % 5 != 0 {
                db.delete(format!("big{i:04}").as_bytes()).unwrap();
            }
        }
        db.compact_all().unwrap();
        db.maintain().unwrap();
        assert!(db.stats().vlog_gc_rewrites.load(Relaxed) > 0);
        assert!(db.stats().vlog_segments_deleted.load(Relaxed) > 0);
        for i in 0..150u32 {
            let got = db.get(format!("big{i:04}").as_bytes()).unwrap();
            if i % 5 == 0 {
                assert_eq!(got.unwrap(), big_value(i), "survivor big{i:04} lost by GC");
            } else {
                assert_eq!(got, None);
            }
        }
        db.verify_integrity().unwrap();
    }

    #[test]
    fn vlog_gc_defers_deletion_while_snapshot_reads_old_pointers() {
        let (_fs, db) = open_mem(vlog_opts());
        for i in 0..100u32 {
            db.put(format!("big{i:04}").as_bytes(), &big_value(i))
                .unwrap();
        }
        db.flush().unwrap();
        for i in 0..100u32 {
            if i % 4 != 0 {
                db.delete(format!("big{i:04}").as_bytes()).unwrap();
            }
        }
        db.compact_all().unwrap();
        // The snapshot's pointers into the rewritten segments must stay
        // dereferenceable until it is dropped.
        let snap = db.snapshot();
        db.maintain().unwrap();
        assert!(db.stats().vlog_gc_rewrites.load(Relaxed) > 0);
        assert_eq!(
            db.stats().vlog_segments_deleted.load(Relaxed),
            0,
            "no segment may be deleted while a snapshot is registered"
        );
        for i in 0..100u32 {
            if i % 4 == 0 {
                assert_eq!(
                    db.get_at(&snap, format!("big{i:04}").as_bytes())
                        .unwrap()
                        .unwrap(),
                    big_value(i),
                    "snapshot read of big{i:04} through retired segment"
                );
            }
        }
        drop(snap);
        db.maintain().unwrap();
        assert!(
            db.stats().vlog_segments_deleted.load(Relaxed) > 0,
            "retired segments must be reclaimed once the snapshot drops"
        );
        for i in (0..100u32).step_by(4) {
            assert_eq!(
                db.get(format!("big{i:04}").as_bytes()).unwrap().unwrap(),
                big_value(i)
            );
        }
    }

    #[test]
    fn separation_on_and_off_agree() {
        let run = |threshold: usize| -> Vec<(Bytes, Bytes)> {
            let mut opts = small();
            if threshold > 0 {
                opts = opts.with_value_separation(threshold);
                opts.vlog_segment_bytes = 2048;
            }
            let (_fs, db) = open_mem(opts);
            for i in 0..120u32 {
                db.put(format!("key{i:04}").as_bytes(), &big_value(i))
                    .unwrap();
            }
            for i in 0..120u32 {
                if i % 3 == 0 {
                    db.delete(format!("key{i:04}").as_bytes()).unwrap();
                }
            }
            for i in 0..120u32 {
                if i % 4 == 0 {
                    db.put(format!("key{i:04}").as_bytes(), &big_value(i + 1000))
                        .unwrap();
                }
            }
            db.compact_all().unwrap();
            db.maintain().unwrap();
            db.scan(b"key0000", b"key9999").unwrap()
        };
        assert_eq!(run(0), run(64), "separation must not change results");
    }
}
