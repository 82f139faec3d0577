//! The commit seam of the engine: the group-commit queue, leader
//! election, the commit itself, and the write entry points that feed
//! it.
//!
//! Every write, traced or not, enters through `Db::write_ops`. The
//! committer enqueues its ops; the first to find no leader active
//! takes the commit exclusion and commits everything queued as one
//! group (one WAL record per batch, one fsync for the group), then
//! hands each follower its result through `DbCore::commit_cv`.
//!
//! Lock order: the `commit` queue mutex is held only to enqueue, elect
//! a leader or park, and the exclusion it grants is always taken
//! *before* the state lock. Within a commit `wal` is taken before
//! `vlog`, and both are released before the state write lock under
//! which the group is published.
//!
//! Publication is inserts, then seqno: a plain commit inserts into the
//! memtable the current view already shares and then stores
//! `visible_seqno`, with no view rebuilt. That store is the whole
//! visibility publish, and it is why a reader loads the seqno before
//! the view (the rule on `ReadView` in the `read` module).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use acheron_types::{DeleteKeyRange, Error, RangeTombstone, Result, SeqNo, MAX_SEQNO};
use acheron_vlog::VlogWriter;
use acheron_wal::WalOp;
use bytes::Bytes;
use parking_lot::Mutex;

use super::maintenance::Stage;
use super::{delete_op, put_op, Db, DbCore, Span, WriteBatch, UNSTAMPED};
use crate::manifest::{EditBatch, VersionEdit};
use crate::obs::trace::{OpTrace, TraceBuf, TraceOp, TraceStage};
use crate::obs::Event;

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
pub(super) struct CommitQueue {
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
pub(super) struct CommitExclusion<'a> {
    core: &'a DbCore,
}

impl Drop for CommitExclusion<'_> {
    fn drop(&mut self) {
        self.core.release_commit_exclusion();
    }
}

impl Db {
    /// Insert or update `key`, tagging it with the current tick as its
    /// secondary delete key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.put_with_dkey(key, value, self.now())
    }

    /// Insert or update `key` with an explicit secondary delete key.
    pub fn put_with_dkey(&self, key: &[u8], value: &[u8], dkey: u64) -> Result<()> {
        self.write_ops([put_op(key, value, dkey)], None).map(drop)
    }

    /// Point-delete `key` (inserts a tombstone; physical erasure follows
    /// within the persistence threshold when FADE is enabled).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.write_ops([delete_op(key, self.now())], None).map(drop)
    }

    /// Range-delete every sort key in `[start, end]` (inclusive) with a
    /// single WAL-logged range tombstone — O(1) writes regardless of how
    /// many keys the range covers. The tombstone shadows older versions
    /// immediately; its flush records it in the manifest, and it retires
    /// (`Version::retire`) once no file under it holds a version it
    /// erases — within the FADE persistence threshold, exactly like a
    /// point tombstone.
    pub fn range_delete_keys(&self, start: &[u8], end: &[u8]) -> Result<()> {
        if start > end {
            return Err(Error::invalid_argument("range_delete_keys: start > end"));
        }
        let op = WalOp::RangeDeleteKeys {
            start: Bytes::copy_from_slice(start),
            end: Bytes::copy_from_slice(end),
            tick: self.now(),
        };
        self.write_ops([op], None).map(drop)
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
        let now = self.now();
        let ops: Vec<WalOp> = batch
            .ops
            .into_iter()
            .map(|op| match op {
                WalOp::Delete { key, tick } if tick == UNSTAMPED => {
                    WalOp::Delete { key, tick: now }
                }
                other => other,
            })
            .collect();
        self.write_ops(ops, None).map(drop)
    }

    /// Put with an unconditional trace (bypasses the sampler; used by
    /// the wire `traced` command). `trace_id` overrides the allocated
    /// id so a client-chosen id survives the round trip.
    pub fn put_traced(&self, key: &[u8], value: &[u8], trace_id: Option<u64>) -> Result<OpTrace> {
        self.write_traced(put_op(key, value, self.now()), trace_id)
    }

    /// Point delete with an unconditional trace.
    pub fn delete_traced(&self, key: &[u8], trace_id: Option<u64>) -> Result<OpTrace> {
        self.write_traced(delete_op(key, self.now()), trace_id)
    }

    /// Commit `op` under a trace that bypasses the sampler.
    fn write_traced(&self, op: WalOp, trace_id: Option<u64>) -> Result<OpTrace> {
        let forced = self
            .core()
            .forced_trace(trace_op_for(std::slice::from_ref(&op)), trace_id);
        let trace = self.write_ops([op], Some(forced))?;
        Ok(trace.expect("a traced write returns its trace"))
    }

    /// Group commit: every write, traced or not, enters here. The
    /// calling thread enqueues its ops and either becomes the leader
    /// (drains the whole queue, appends + fsyncs the WAL once outside
    /// the state lock, publishes the group) or parks until a leader
    /// hands it the group's result.
    ///
    /// `ops` is an array for a lone put or delete — the common case, which
    /// then never allocates a list to hold its one op — or a batch's `Vec`.
    /// `forced` is a trace the caller began itself; without one the
    /// sampler decides. Returns the finished trace of a traced write. A
    /// rider (a thread whose batch a leader committed for it)
    /// attributes only its queue wait — the leader's trace owns the
    /// WAL/vlog/memtable spans.
    fn write_ops<O: AsMut<[WalOp]> + Into<Vec<WalOp>>>(
        &self,
        mut ops: O,
        forced: Option<TraceBuf>,
    ) -> Result<Option<OpTrace>> {
        let core = self.core();
        let mut trace = forced.or_else(|| core.tracer.sample(trace_op_for(ops.as_mut())));
        // Backpressure first, before any lock: stalled writers hold
        // nothing, so workers, readers, and commit leaders proceed
        // freely.
        let throttle = Span::start(trace.as_ref());
        core.throttle_writes()?;
        throttle.end(trace.as_mut(), TraceStage::ThrottleWait);
        let mut q = core.commit.lock();
        if !q.exclusive && q.queue.is_empty() {
            // Uncontended fast path: commit alone as a group of one,
            // borrowing the ops — no request, no list, no result
            // round-trip, and (nobody waiting) no wakeup.
            let excl = core.enter_exclusion(q);
            core.commit_group_inner(&excl, &mut [ops.as_mut()], trace.as_mut())?;
        } else {
            let req = Arc::new(CommitRequest::default());
            q.queue.push(PendingCommit {
                req: Arc::clone(&req),
                ops: ops.into(),
            });
            // Wait until a leader has committed us (possibly while we
            // waited for the queue lock) or leadership is free.
            let queued = Span::start(trace.as_ref());
            while q.exclusive && req.result.lock().is_none() {
                core.wait_for_commit_turn(&mut q);
            }
            queued.end(trace.as_mut(), TraceStage::CommitQueueWait);
            if req.result.lock().is_none() {
                // Become the leader for everything queued so far.
                let group = std::mem::take(&mut q.queue);
                let excl = core.enter_exclusion(q);
                core.commit_group(&excl, group, trace.as_mut());
            }
            let res = req.result.lock().take().expect("leader result is set");
            res.map_err(Error::Internal)?;
        }
        Ok(trace.map(|t| core.finish_trace(t)))
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
        let excl = core.commit_exclusive();
        let mut st = core.state.write();
        let seqno = core.alloc_seqnos(&excl, 1)?;
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
        core.publish_view_locked(&mut st);
        Ok(())
    }
}

impl DbCore {
    /// Enter the commit-exclusion domain: wait out any commit leader or
    /// other exclusive section, then own the WAL writer + seqno
    /// allocator until the token drops. Must be acquired *before* the
    /// state lock.
    pub(super) fn commit_exclusive(&self) -> CommitExclusion<'_> {
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
    pub(super) fn commit_group_inner(
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
        let wal_section = Span::start(trace.as_deref());
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
                    let separating = Span::start(trace.as_deref());
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
                    vlog_micros += separating.micros();
                }
                debug_assert!(!ops.is_empty(), "a commit carries at least one op");
                // Allocate before the append: on an append error the
                // consumed seqnos are never reused, so a durably written
                // record from earlier in the group can never collide
                // with a later retry's seqnos.
                let base = self.alloc_seqnos(excl, ops.len() as u64)?;
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
            let section = wal_section.micros();
            t.add(
                TraceStage::WalAppendFsync,
                section.saturating_sub(vlog_micros),
            );
            if !separated.is_empty() {
                t.add(TraceStage::VlogAppend, vlog_micros);
                t.add(TraceStage::VlogFramesAppended, separated.len() as u64);
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
        let inserting = Span::start(trace.as_deref());
        let mut st = self.state.write();
        for (segment, bytes) in &separated {
            st.vlog.add_live(*segment, *bytes);
        }
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
                        // The delete joins the open cohort at its own tick.
                        let stage = Stage::Committed { key_range: false };
                        self.advance_ledger(&mut st.ledger, stage, *tick);
                        key.len()
                    }
                    WalOp::RangeDeleteKeys { start, end, tick } => {
                        self.stats
                            .sort_range_deletes
                            .fetch_add(1, Ordering::Relaxed);
                        let stage = Stage::Committed { key_range: true };
                        self.advance_ledger(&mut st.ledger, stage, *tick);
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
        let last = seqno - 1;
        // This store is the entire visibility publish for a plain
        // commit: the inserts above went into the memtable every current
        // and future view shares, so advancing the ceiling (Release,
        // paired with the readers' Acquire load) makes them readable
        // without rebuilding the view.
        self.visible_seqno.store(last, Ordering::Release);
        inserting.end(trace.as_deref_mut(), TraceStage::MemtableInsert);
        let maintaining = Span::start(trace.as_deref());

        let work = if st.mem.approximate_bytes() >= self.write_buffer_limit() {
            self.seal_memtable_locked(excl, &mut st)?;
            true
        } else {
            // Exact FADE trigger: something's residency budget ran out,
            // in the tree or in the active buffer. (A sealed buffer is
            // on its way: its seal already drove or woke the flush.)
            let dues = [st.due.earliest, self.picker.buffer_due(&st.mem)];
            dues.into_iter()
                .flatten()
                .any(|due| self.opts.clock.now() > due)
        };
        drop(st);
        if work {
            self.announce_work(excl)?;
        }
        // Nonzero only in synchronous mode, where the seal/flush/
        // compaction this commit triggered ran inside the op.
        let micros = maintaining.micros();
        if let Some(t) = trace.filter(|_| micros > 0) {
            t.add(TraceStage::InlineMaintenance, micros);
        }
        Ok(())
    }

    /// Allocate `n` consecutive sequence numbers and return the first.
    /// The exclusion makes the caller the only allocator.
    fn alloc_seqnos(&self, _excl: &CommitExclusion<'_>, n: u64) -> Result<SeqNo> {
        let first = self.seq_alloc.load(Ordering::Relaxed) + 1;
        if first > MAX_SEQNO {
            return Err(Error::Internal("sequence number space exhausted".into()));
        }
        self.seq_alloc.store(first + n - 1, Ordering::Relaxed);
        Ok(first)
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
