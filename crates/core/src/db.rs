//! The Acheron database: a delete-aware LSM engine.
//!
//! # Concurrency model
//!
//! Neither hot path holds the global state lock across I/O.
//!
//! **Writes** go through a group-commit queue (the `commit` submodule;
//! traced or not, every write enters it through one function): each
//! committer enqueues
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
//! queue, version pointer) behind an `Arc` swap; a read loads the
//! visible seqno — a `DbCore` atomic a plain commit advances without
//! republishing — then clones the current view in O(1) and runs
//! entirely against it. Range tombstones of both kinds, and every
//! tombstone gauge, are read from the view's version and buffers in
//! place; no copy of either is kept beside the view. Lookups early-exit: sources are probed
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

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use acheron_memtable::Memtable;
use acheron_types::{Error, LogicalClock, RangeTombstone, Result, SeqNo, Tick};
use acheron_vfs::Vfs;
use acheron_vlog::{VlogReader, VlogWriter};
use acheron_wal::{LogWriter, WalOp};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::fade::DueIndex;
use crate::manifest::ManifestWriter;
use crate::memory::MemoryBudget;
use crate::obs::trace::{
    DeleteAudit, DeleteLedger, OpTrace, TraceBuf, TraceOp, TraceStage, Tracer,
};
use crate::obs::{min_tick, Event, EventLog, EventSnapshot, TombstoneGauges};
use crate::options::DbOptions;
use crate::picker::Picker;
use crate::stats::DbStats;
use crate::version::Version;

mod commit;
mod maintenance;
mod read;
mod recovery;
use commit::{CommitExclusion, CommitQueue};
use maintenance::{MaintTask, FLUSH, TREE, VLOG_GC};
pub use read::RangeIter;
use read::ReadView;
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

/// Value-log accounting across segments, part of [`State`]: it changes
/// only under the state write lock.
#[derive(Default)]
struct VlogState {
    segments: BTreeMap<u64, VlogSegmentAcct>,
}

impl VlogState {
    fn add_live(&mut self, segment: u64, bytes: u64) {
        self.segments.entry(segment).or_default().live_bytes += bytes;
    }

    /// Move `bytes` of `segment` from live to dead, stamped `stamp`,
    /// and say whether the segment still exists. A segment GC already
    /// deleted is left alone — the drop that reports it is an older
    /// shadowed version whose bytes were already reclaimed wholesale.
    fn mark_dead(&mut self, segment: u64, bytes: u64, stamp: Tick) -> bool {
        let Some(acct) = self.segments.get_mut(&segment) else {
            return false;
        };
        acct.live_bytes = acct.live_bytes.saturating_sub(bytes);
        acct.dead_bytes += bytes;
        acct.oldest_dead_tick = Some(acct.oldest_dead_tick.map_or(stamp, |t| t.min(stamp)));
        true
    }

    /// Add the value-log family to `gauges`.
    fn add_to(&self, gauges: &mut TombstoneGauges) {
        for acct in self.segments.values() {
            gauges.vlog_live_bytes += acct.live_bytes;
            gauges.vlog_dead_bytes += acct.dead_bytes;
            gauges.vlog_oldest_dead_tick =
                min_tick(gauges.vlog_oldest_dead_tick, acct.oldest_dead_tick);
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
    /// The delete obligations of `version` and when each is due, built
    /// with every view publish.
    due: DueIndex,
    /// Value-log live/dead accounting per segment.
    vlog: VlogState,
    /// Delete-lifecycle cohort ledger, fed at the same installs that
    /// change the tree and the accounting.
    ledger: DeleteLedger,
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
    /// `cache` is resized to its cache share when pinned bytes change.
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
    /// Single-rewriter ticket for value-log GC: two passes over one
    /// segment would race on its file (one deletes what the other is
    /// about to read or delete).
    vlog_gc_claimed: AtomicBool,
    /// Flight recorder: ring of typed maintenance events behind one
    /// leaf lock. Emission copies one event into preallocated memory,
    /// so the hooks stay on unconditionally.
    obs: EventLog,
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
    /// Per-op trace sampler + retention buffer. With sampling off its
    /// entire cost is one untaken branch per operation.
    tracer: Tracer,
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
                // Under the lock: a futile rewrite it pinned is noted
                // either before this or not at all.
                self.core.picker.snapshot_released(self.seqno);
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
        self.put_with_dkey(key, value, acheron_types::DELETE_KEY_NONE)
    }

    /// Queue an insert/update with an explicit secondary delete key.
    pub fn put_with_dkey(&mut self, key: &[u8], value: &[u8], dkey: u64) -> &mut Self {
        self.ops.push(put_op(key, value, dkey));
        self
    }

    /// Queue a point delete. The tombstone's age starts at the tick the
    /// batch commits.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.ops.push(delete_op(key, UNSTAMPED));
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

/// The tick of a batched delete until [`Db::write_batch`] stamps it with
/// the commit tick.
const UNSTAMPED: Tick = u64::MAX;

/// A put of `key`, its value copied once: the memtable keeps this copy.
fn put_op(key: &[u8], value: &[u8], dkey: u64) -> WalOp {
    WalOp::Put {
        key: Bytes::copy_from_slice(key),
        value: Bytes::copy_from_slice(value),
        dkey,
    }
}

/// A point delete of `key`, its tombstone born at `tick`.
fn delete_op(key: &[u8], tick: Tick) -> WalOp {
    WalOp::Delete {
        key: Bytes::copy_from_slice(key),
        tick,
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

impl Db {
    /// Open (creating or recovering) a database under `dir`.
    ///
    /// A logical clock is replaced by the engine's own, started at its
    /// tick: clones of one options value share one clock, and engines
    /// opened from them must not tick each other.
    pub fn open(fs: Arc<dyn Vfs>, dir: &str, mut opts: DbOptions) -> Result<Db> {
        if opts.clock.as_logical().is_some() {
            opts.clock = Arc::new(LogicalClock::starting_at(opts.clock.now()));
        }
        Self::open_with_shared(fs, dir, opts, None, None, None)
    }

    /// Open with an optionally injected fleet-shared block cache and
    /// memory budget (how [`crate::ShardedDb`] gives every shard one
    /// cache instance and one arbiter instead of N private copies).
    ///
    /// An injected shared cache comes with the caller's budget (the
    /// caller owns their sizing); without one the engine makes its own
    /// pair, as [`crate::memory::cache_and_budget`] resolves `opts`.
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
        let (cache, memory) = match shared_cache {
            Some(c) => (Some(c), shared_budget),
            None => crate::memory::cache_and_budget(&opts),
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
            vlog_next_segment,
        } = recovery::open_image(fs.as_ref(), dir, &opts, cache.as_ref(), shard)?;
        let view = Arc::new(ReadView {
            mem: Arc::clone(&state.mem),
            imms: Vec::new(),
            version: Arc::clone(&state.version),
        });
        let core = Arc::new(DbCore {
            picker: Picker::new(&opts),
            obs: EventLog::new(opts.event_log_capacity),
            tracer: Tracer::new(opts.trace_sample_every, trace_ids),
            vlog: Mutex::new(None),
            vlog_next_segment: AtomicU64::new(vlog_next_segment),
            vlog_reader: Arc::new(VlogReader::new(Arc::clone(&fs), dir)),
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
            vlog_gc_claimed: AtomicBool::new(false),
        });
        // Replay the recovery milestones into the ring now that it
        // exists, before any live traffic can interleave with them.
        for ev in boot_events {
            core.obs.log(ev);
        }
        // Index the recovered obligations and report the recovered
        // table set's pinned bytes before any traffic.
        core.index_version_locked(&mut core.state.write());
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
        // The open runs no maintenance, so a one-shot open reads the
        // tree the directory holds. Recovery may leave it over its
        // triggers: the workers act on that now, an inline engine at
        // the next commit that seals or passes the TTL deadline.
        core.kick_workers();
        Ok(Db {
            inner: Arc::new(DbInner { core, workers }),
        })
    }

    fn core(&self) -> &DbCore {
        &self.inner.core
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

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
        // current when the task picked from it installs. A snapshot may
        // pin what a reclaim pass would drop and so leave the same pass
        // to be picked again: run at most four.
        let mut reclaim_passes = 0;
        loop {
            let version = Arc::clone(&core.state.read().version);
            let Some(task) = core.picker.pick_manual(&version) else {
                break;
            };
            reclaim_passes += usize::from(task.level == task.output_level);
            if reclaim_passes > 4 {
                break;
            }
            core.run_task(MaintTask::Compact(task, None, version), Some(&excl))?;
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

    /// Point tombstones currently alive anywhere (memtables + tree).
    pub fn live_tombstones(&self) -> u64 {
        self.tombstone_gauges().live_tombstones()
    }

    /// Total table bytes on storage.
    pub fn table_bytes(&self) -> u64 {
        self.core().current_view().version.total_bytes()
    }

    /// Live secondary range tombstones.
    pub fn live_range_tombstones(&self) -> Vec<RangeTombstone> {
        self.core().current_view().version.range_tombstones.clone()
    }

    /// Live sort-key range tombstones (buffered + on disk).
    pub fn live_key_range_tombstones(&self) -> u64 {
        self.tombstone_gauges().live_key_range_tombstones()
    }

    /// Age (at `now`) of the oldest live sort-key range tombstone, if
    /// any — FADE bounds it by the same `D_th` as point deletes.
    pub fn oldest_live_key_range_tombstone_age(&self) -> Option<Tick> {
        self.age_of(self.tombstone_gauges().oldest_live_key_range_tick())
    }

    /// Age (at `now`) of the oldest live point tombstone, if any — the
    /// quantity FADE bounds by `D_th`.
    pub fn oldest_live_tombstone_age(&self) -> Option<Tick> {
        self.age_of(self.tombstone_gauges().oldest_point_tick())
    }

    /// The age at the current tick of whatever was born at `birth`.
    fn age_of(&self, birth: Option<Tick>) -> Option<Tick> {
        birth.map(|t| self.now().saturating_sub(t))
    }

    /// Drain the flight recorder: a consistent snapshot of the newest
    /// retained events plus emission/drop totals. Never blocks or
    /// delays the writers feeding the ring.
    pub fn events(&self) -> EventSnapshot {
        self.core().obs.snapshot()
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
        let mut gauges = core.view_gauges();
        // The ledger and the value-log accounting, under one state read.
        let st = core.state.read();
        st.vlog.add_to(&mut gauges);
        DeleteAudit {
            now: self.now(),
            d_th: core.opts.d_th(),
            cohorts: st.ledger.snapshot(),
            oldest_live_tombstone_tick: gauges.oldest_live_tick(),
            oldest_vlog_dead_tick: gauges.vlog_oldest_dead_tick,
        }
    }

    /// Live delete-persistence gauges, every family read from one read
    /// view — the tree's files, the write buffers it holds and the
    /// secondary range tombstones of its version — plus the value-log
    /// accounting. `O(files)` over metadata; nothing is cached between
    /// calls, so no copy can lag the view.
    pub fn tombstone_gauges(&self) -> TombstoneGauges {
        let core = self.core();
        let mut gauges = core.view_gauges();
        core.state.read().vlog.add_to(&mut gauges);
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
    /// The tombstone gauges of the current view, read without the state
    /// lock: every family but the value log's.
    fn view_gauges(&self) -> TombstoneGauges {
        let view = self.current_view();
        let mut gauges = TombstoneGauges::from_version(&view.version);
        for m in std::iter::once(&view.mem).chain(&view.imms) {
            let s = m.stats();
            gauges.buffer_tombstones += s.tombstones as u64;
            gauges.buffer_oldest_tick =
                min_tick(gauges.buffer_oldest_tick, s.oldest_tombstone_tick);
            gauges.buffer_key_range_tombstones += s.range_tombstones as u64;
            gauges.buffer_oldest_key_range_tick = min_tick(
                gauges.buffer_oldest_key_range_tick,
                s.oldest_range_tombstone_tick,
            );
        }
        gauges
    }

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

    /// The active memtable's seal threshold: the arbiter's per-writer
    /// allowance when a memory budget is configured, else the static
    /// [`DbOptions::write_buffer_bytes`].
    fn write_buffer_limit(&self) -> usize {
        self.memory
            .as_ref()
            .map(|m| m.memtable_bytes_per_writer())
            .unwrap_or(self.opts.write_buffer_bytes)
    }

    /// Recompute this engine's pinned filter/tile-metadata bytes (at
    /// each view publish: the file set only changes there).
    /// The gauge is maintained whether or not a budget is configured —
    /// it is exported as `db_memory_pinned_bytes` either way. Under a
    /// budget, pinned growth additionally squeezes the split pool, so
    /// a change re-applies the cache share too.
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

    /// Begin a trace that bypasses the sampler (the wire `traced`
    /// command), under the caller's id when it chose one.
    fn forced_trace(&self, op: TraceOp, trace_id: Option<u64>) -> TraceBuf {
        let mut buf = self.tracer.begin(op);
        if let Some(id) = trace_id {
            buf.trace_id = id;
        }
        buf
    }
}

/// The clock of one span of a traced op. It is read only when the op is
/// traced: an untraced op pays one branch per span and no clock read.
#[derive(Clone, Copy)]
struct Span(Option<Instant>);

impl Span {
    fn start(trace: Option<&TraceBuf>) -> Span {
        Span(trace.map(|_| Instant::now()))
    }

    /// Microseconds since the start; zero for an untraced op.
    fn micros(self) -> u64 {
        self.0.map_or(0, |s| s.elapsed().as_micros() as u64)
    }

    /// Add the span's time to `stage` of the op's trace, if it has one.
    fn end(self, trace: Option<&mut TraceBuf>, stage: TraceStage) {
        if let Some(t) = trace {
            t.add(stage, self.micros());
        }
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
    fn level_gauges_shape() {
        let (_fs, db) = open_mem(small());
        for i in 0..2000u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'v'; 64])
                .unwrap();
        }
        db.compact_all().unwrap();
        let levels = db.tombstone_gauges().levels;
        assert!(
            levels.iter().all(|l| l.files > 0),
            "empty levels are omitted"
        );
        let total: u64 = levels.iter().map(|l| l.entries).sum();
        assert!(total > 0);
        assert!(
            levels.iter().any(|l| l.level > 0 && l.runs > 0),
            "data should reach L1+"
        );
        assert!(
            levels.iter().all(|l| l.woven_files == 0),
            "h = 1 weaves nothing"
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

    /// A compaction that drops a deleted value's pointer into a segment
    /// GC has already deleted (the delete was still buffered when GC
    /// judged the frame dead) leaves no cohort waiting on that segment:
    /// its bytes are gone, and no later reclaim would release the wait.
    #[test]
    fn a_deleted_segment_leaves_no_cohort_waiting() {
        let (fs, db) = open_mem(vlog_opts().with_fade(1_000_000));
        let key = |i: u32| format!("big{i:04}");
        for i in 0..150u32 {
            db.put(key(i).as_bytes(), &big_value(i)).unwrap();
        }
        db.flush().unwrap();
        // Overwrites turn two thirds of every segment dead; the deletes
        // of the last third stay in the write buffer while GC rewrites
        // nothing and deletes the segments.
        for i in (0..150u32).filter(|i| i % 3 != 0) {
            db.put(key(i).as_bytes(), b"small").unwrap();
        }
        db.compact_all().unwrap();
        for i in (0..150u32).filter(|i| i % 3 == 0) {
            db.delete(key(i).as_bytes()).unwrap();
        }
        db.maintain().unwrap();
        assert!(db.stats().vlog_segments_deleted.load(Relaxed) > 0);
        // The tree still holds the deleted values' pointers into the
        // deleted segments; this compaction drops them.
        db.flush().unwrap();
        db.compact_all().unwrap();
        let gone = |segment: &u64| !fs.exists(&crate::filenames::vlog_path("db", *segment));
        let waiting: Vec<_> = (db.delete_audit().cohorts.iter())
            .flat_map(|c| c.vlog_pending.iter().copied().filter(gone))
            .collect();
        assert_eq!(waiting, vec![], "cohorts waiting on deleted segments");
        for i in 0..150u32 {
            let got = db.get(key(i).as_bytes()).unwrap();
            assert_eq!(got, (i % 3 != 0).then(|| Bytes::from_static(b"small")));
        }
    }

    /// An overwrite kills its old value without a delete, so no cohort
    /// waits on the extent: the compaction that purges a cohort's
    /// tombstones and drops overwritten values leaves the cohort
    /// resolved before any GC runs.
    #[test]
    fn an_overwrite_charges_no_cohort_with_its_dead_extent() {
        let (_fs, db) = open_mem(vlog_opts().with_fade(1_000_000));
        let key = |i: u32| format!("big{i:04}");
        for i in 0..50u32 {
            db.put(key(i).as_bytes(), &big_value(i)).unwrap();
            db.put(format!("del{i:04}").as_bytes(), b"small").unwrap();
        }
        db.flush().unwrap();
        for i in 0..50u32 {
            db.put(key(i).as_bytes(), &big_value(i + 1_000)).unwrap();
            db.delete(format!("del{i:04}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        assert!(
            db.tombstone_gauges().vlog_dead_bytes > 0,
            "the overwrites left dead extents"
        );
        assert_eq!(db.stats().vlog_gc_rewrites.load(Relaxed), 0, "no GC ran");
        let audit = db.delete_audit();
        assert!(!audit.cohorts.is_empty());
        for c in &audit.cohorts {
            assert!(c.is_resolved(), "{}", c.render(audit.now, None));
        }
    }

    /// A separated value under a sort-key range delete dies by that
    /// delete, so its dead extent is stamped with the delete's tick, not
    /// the tick of the compaction that dropped it: GC's `D_th` clock
    /// starts at the delete.
    #[test]
    fn a_range_deleted_value_is_stamped_with_its_delete_tick() {
        let (_fs, db) = open_mem(vlog_opts());
        for i in 0..50u32 {
            db.put(format!("big{i:04}").as_bytes(), &big_value(i))
                .unwrap();
        }
        db.flush().unwrap();
        let t = db.now();
        db.range_delete_keys(b"big0010", b"big0020").unwrap();
        db.advance_clock(500);
        db.compact_all().unwrap();
        let gauges = db.tombstone_gauges();
        assert!(
            gauges.vlog_dead_bytes > 0,
            "the range delete left dead extents"
        );
        assert_eq!(gauges.vlog_oldest_dead_tick, Some(t));
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

    /// A seeded load on a FADE + value-separation engine opened with
    /// `opts`, with `check` run after every op: separated puts, point
    /// deletes, sort-key range deletes (some straddling the middle of
    /// the key domain) and secondary ones, a snapshot held across
    /// compactions, a reopen, clock jumps and a maintenance pass every
    /// `maintain_every` ops. Keys are drawn apart from the op choice, so
    /// deletes hit keys the puts wrote.
    fn mixed_delete_load(opts: DbOptions, maintain_every: u64, mut check: impl FnMut(&Db, u64)) {
        let fs = Arc::new(MemFs::new());
        let open = || Db::open(fs.clone() as Arc<dyn Vfs>, "db", opts.clone()).unwrap();
        let mut db = open();
        let mut snapshot = None;
        let mut x = 0x2545_f491_4f6c_dd1du64 + opts.layout as u64;
        for op in 0..3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = |k: u64| format!("key{k:05}").into_bytes();
            let k = (x >> 16) % 2_000;
            match x % 100 {
                0..=54 => {
                    let len = if (x >> 8).is_multiple_of(8) { 600 } else { 40 };
                    db.put(&key(k), &vec![b'v'; len]).unwrap();
                }
                55..=79 => db.delete(&key(k)).unwrap(),
                80..=82 => {
                    let lo = k;
                    db.range_delete_keys(&key(lo), &key(lo + 8)).unwrap();
                }
                83 => {
                    let lo = 950 + x % 50;
                    db.range_delete_keys(&key(lo), &key(lo + 100)).unwrap();
                }
                84 => {
                    let now = db.now();
                    (db.range_delete_secondary(now.saturating_sub(60), now.saturating_sub(40)))
                        .unwrap();
                }
                85..=86 => {
                    snapshot = match snapshot.take() {
                        Some(_) => None,
                        None => Some(db.snapshot()),
                    }
                }
                _ => db.advance_clock(x % 120),
            }
            if op == 1_500 {
                snapshot = None;
                drop(db);
                db = open();
            }
            if op % maintain_every == maintain_every - 1 {
                db.maintain().unwrap();
            }
            check(&db, op);
        }
    }

    const LAYOUTS: [CompactionLayout; 3] = [
        CompactionLayout::Leveling,
        CompactionLayout::Tiering,
        CompactionLayout::LazyLeveling,
    ];

    /// The deadline index kept beside the version is, after every op,
    /// what a fresh build from the current version gives; its earliest
    /// tick is what the fold over the tree computed before the index,
    /// and the TTL pick through it is the pick that recomputed every
    /// deadline, under [`mixed_delete_load`] in all three layouts with a
    /// `D_th` of a few hundred ticks.
    #[test]
    fn the_deadline_index_matches_a_fresh_build_after_every_op() {
        use crate::fade::tests::reference_earliest;
        use crate::fade::{DueIndex, Subject};
        use crate::picker::tests::{reference_ttl_pick, shape};
        let entries = |index: &DueIndex| -> Vec<(Tick, u64, usize, bool)> {
            (index.entries.iter())
                .map(|(due, subject)| match subject {
                    Subject::File(f) => (*due, f.id, f.level, false),
                    Subject::KeyRange(level, k) => (*due, k.seqno, *level, true),
                })
                .collect()
        };
        for layout in LAYOUTS {
            let (mut picks, mut key_ranges) = (0, 0);
            let opts = DbOptions {
                layout,
                ..small().with_fade(300).with_value_separation(256)
            };
            mixed_delete_load(opts, 500, |db, op| {
                let core = db.core();
                let ttl = core.picker.ttl_schedule().expect("FADE is on");
                let st = core.state.read();
                let fresh = ttl.index(&st.version);
                assert_eq!(entries(&st.due), entries(&fresh), "{layout:?} op {op}");
                let earliest = reference_earliest(ttl, &st.version);
                assert_eq!(st.due.earliest, earliest, "{layout:?} op {op}");
                let now = db.now();
                let picked = core.picker.pick_ttl_expired(&st.version, &st.due, now);
                let reference = reference_ttl_pick(&core.picker, &st.version, now);
                assert_eq!(
                    picked.as_ref().map(shape),
                    reference.as_ref().map(shape),
                    "{layout:?} op {op}"
                );
                picks += usize::from(picked.is_some());
                key_ranges += (fresh.entries.iter())
                    .filter(|e| matches!(e.1, Subject::KeyRange(..)))
                    .count();
            });
            assert!(picks > 0, "{layout:?}: no TTL pick was compared");
            assert!(key_ranges > 0, "{layout:?}: no range tombstone was indexed");
        }
    }

    /// After every op of [`mixed_delete_load`], in all three layouts and
    /// under one state read, every value-log segment a cohort waits on
    /// is in the accounting with dead bytes: a wait that GC's drop of
    /// the segment can release. Small segments and frequent maintenance
    /// let GC delete a segment before the compaction that drops a
    /// deleted value's pointer into it.
    #[test]
    fn every_segment_a_cohort_waits_on_is_accounted_dead() {
        for layout in LAYOUTS {
            let mut waits = 0;
            let opts = DbOptions {
                layout,
                vlog_segment_bytes: 2048,
                ..small().with_fade(3_000).with_value_separation(256)
            };
            mixed_delete_load(opts, 50, |db, op| {
                let st = db.core().state.read();
                for c in st.ledger.snapshot() {
                    for segment in &c.vlog_pending {
                        let acct = st.vlog.segments.get(segment);
                        assert!(
                            acct.is_some_and(|a| a.dead_bytes > 0),
                            "{layout:?} op {op}: epoch {} waits on segment {segment}",
                            c.epoch
                        );
                        waits += 1;
                    }
                }
            });
            assert!(waits > 0, "{layout:?}: no cohort waited on the value log");
        }
    }
}
