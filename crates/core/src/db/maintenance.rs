//! The maintenance seam of the engine: memtable seal, flush and
//! compaction installs, value-log GC, the background executor and the
//! write throttle. Everything here is an `impl DbCore` block; the
//! commit and read paths live in the parent module.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acheron_memtable::Memtable;
use acheron_types::{Error, Result, SeqNo, Tick, ValuePointer};
use acheron_wal::{LogWriter, WalOp};

use super::{CommitExclusion, DbCore, ImmMemtable, PauseGuard, State};
use crate::compaction::{run_compaction, write_l0_table};
use crate::filenames::{sst_path, vlog_path, wal_path};
use crate::manifest::{EditBatch, VersionEdit};
use crate::obs::trace::CohortStage;
use crate::obs::Event;
use crate::picker::{CompactionClaim, CompactionReason, CompactionTask};
use crate::version::{FileMeta, Version};

/// Upper bound on back-to-back tasks per inline maintenance pass; a
/// correctly converging picker never reaches it.
const MAX_TASKS_PER_PASS: usize = 10_000;

/// How long an idle worker sleeps before re-polling for work (it is
/// also woken eagerly by [`DbCore::kick_workers`]).
pub(super) const WORKER_TICK: Duration = Duration::from_millis(50);

/// How often a stalled writer re-checks the pressure gauges.
const STALL_RECHECK: Duration = Duration::from_millis(10);

/// Delay injected per write once L0 crosses the soft limit.
const SLOWDOWN_DELAY: Duration = Duration::from_micros(250);

/// One unit of maintenance, as decided by [`DbCore::next_task`] and
/// executed by [`DbCore::run_task`].
pub(super) enum MaintTask {
    /// FADE: a tombstone in this (the active) write buffer ran out its
    /// station budget; seal it so the flush starts its descent.
    SealExpired(Arc<Memtable>),
    /// Flush this sealed memtable, the front of the queue.
    Flush(Arc<Memtable>),
    /// Run one compaction against the version it was picked from. The
    /// claim is the picker's in-flight marks: `None` for a task
    /// hand-built while the workers are paused (`Db::compact_all`).
    Compact(CompactionTask, Option<CompactionClaim>, Arc<Version>),
    /// Rewrite one value-log segment.
    VlogGc(u64),
}

/// The kinds of [`MaintTask`], most urgent first.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub(super) enum Kind {
    SealExpired,
    Flush,
    Compact,
    VlogGc,
}

/// Which kinds a caller of [`DbCore::next_task`] wants considered: a
/// stretch of the urgency order.
pub(super) type Scope = std::ops::RangeInclusive<Kind>;
/// Drain the sealed queue, nothing else (`Db::flush`).
pub(super) const FLUSH: Scope = Kind::Flush..=Kind::Flush;
/// What brings the tree within its triggers.
pub(super) const TREE: Scope = Kind::SealExpired..=Kind::Compact;
/// What can lower the write throttle's gauges (sealing raises one).
const PRESSURE: Scope = Kind::Flush..=Kind::Compact;
pub(super) const VLOG_GC: Scope = Kind::VlogGc..=Kind::VlogGc;
pub(super) const ALL: Scope = Kind::SealExpired..=Kind::VlogGc;

impl DbCore {
    /// Recompute the cached earliest-TTL-expiry tick from the current
    /// tree and all buffers (active + sealed).
    fn recompute_ttl_deadline(&self, st: &mut State) {
        let Some(ttl) = self.picker.ttl_schedule() else {
            st.ttl_deadline = None;
            return;
        };
        let tree = ttl.next_deadline(st.version.all_files().map(|f| f.as_ref()), &st.mem);
        // Sealed memtables are still "station 0": their tombstones keep
        // aging against the buffer TTL until their flush installs.
        let imm = st
            .imms
            .iter()
            .filter_map(|i| ttl.buffer_deadline(&i.mem))
            .min();
        st.ttl_deadline = tree.into_iter().chain(imm).min();
    }

    // ------------------------------------------------------------------
    // Seal / flush / install
    // ------------------------------------------------------------------

    /// Seal the active memtable onto the flush queue and start a fresh
    /// memtable + WAL segment. No-op when the memtable is empty. No
    /// manifest record is written here: until the flush installs, the
    /// sealed data's durability still comes from its WAL segment, whose
    /// replay is bounded by the manifest's last `LogNumber`.
    ///
    /// Swapping the WAL writer under a commit leader's feet would tear
    /// its group, hence the [`CommitExclusion`] witness.
    pub(super) fn seal_memtable_locked(
        &self,
        _excl: &CommitExclusion<'_>,
        st: &mut State,
    ) -> Result<()> {
        if st.mem.is_empty() {
            return Ok(());
        }
        let max_seqno = st.mem.max_seqno().expect("non-empty memtable");
        let sealed_entries = st.mem.stats().entries as u64;
        let sealed_bytes = st.mem.approximate_bytes() as u64;
        let new_wal_number = self.alloc_file_id();
        let new_wal = LogWriter::new(self.fs.create(&wal_path(&self.dir, new_wal_number))?);
        let sealed_wal = *st.live_wals.last().expect("active wal present");
        let sealed = std::mem::replace(&mut st.mem, Arc::new(Memtable::new()));
        *self.wal.lock() = new_wal;
        st.live_wals.push(new_wal_number);
        st.imms.push_back(ImmMemtable {
            mem: sealed,
            wal_number: sealed_wal,
            max_seqno,
        });
        self.stats
            .imm_queue_peak
            .fetch_max(st.imms.len() as u64, Ordering::Relaxed);
        self.obs.log(Event::MemtableSealed {
            entries: sealed_entries,
            bytes: sealed_bytes,
            sealed_behind: st.imms.len() as u64,
        });
        // Ledger: the open cohort's generation just sealed. Delete-free
        // seals still advance the epoch so flush completions (FIFO over
        // the sealed queue) stay aligned with their epochs.
        {
            let sealed_ref = &st.imms.back().expect("just pushed").mem;
            let min_seqno = sealed_ref.min_seqno().unwrap_or(0);
            let tombstones = sealed_ref.stats().tombstones as u64;
            let now = self.opts.clock.now();
            if let Some(epoch) = self.ledger.lock().seal(min_seqno, max_seqno, now) {
                self.obs.log(Event::CohortAdvanced {
                    epoch,
                    stage: CohortStage::Sealed,
                    level: 0,
                    tombstones,
                    tick: now,
                });
            }
        }
        self.recompute_ttl_deadline(st);
        // Readers (and the write throttle's gauges) must see the sealed
        // queue grow promptly.
        self.publish_view_locked(st);
        Ok(())
    }

    /// Build an L0 table from a sealed memtable. Pure I/O, run without
    /// the state lock.
    fn build_l0_table(&self, mem: &Memtable) -> Result<Option<Arc<FileMeta>>> {
        self.obs.log(Event::FlushStart {
            entries: mem.stats().entries as u64,
        });
        let now = self.opts.clock.now();
        let id = self.alloc_file_id();
        // Entries are flushed as-is; range-erased versions are purged at
        // bottommost compactions (purging here could let older, deeper
        // versions decide reads). Buffered sort-key range tombstones
        // ride into the table's stats block — a tombstone-only buffer
        // still produces a (carrier) file.
        write_l0_table(
            &self.fs,
            &self.dir,
            &self.opts,
            self.cache.as_ref(),
            mem.entries(),
            mem.range_tombstone_list(),
            id,
            id,
            now,
        )
    }

    /// Install a built L0 table for the *front* sealed memtable: manifest
    /// record first, then WAL retirement, then version publish — the
    /// crash-safety ordering the seed engine established.
    fn install_flush_locked(
        &self,
        st: &mut State,
        file: Option<Arc<FileMeta>>,
        micros: u64,
    ) -> Result<()> {
        let imm = st.imms.pop_front().expect("a sealed memtable is queued");
        // Ledger: the oldest sealed epoch finished flushing (flushes
        // pop the queue FIFO, matching the ledger's pending order).
        {
            let now = self.opts.clock.now();
            if let Some(epoch) = self.ledger.lock().flushed(now) {
                self.obs.log(Event::CohortAdvanced {
                    epoch,
                    stage: CohortStage::Flushed,
                    level: 0,
                    tombstones: imm.mem.stats().tombstones as u64,
                    tick: now,
                });
            }
        }
        // WAL segments strictly older than the next live one (the next
        // queued memtable's segment, or the active segment) are covered
        // by this install's PersistedSeqno and can be retired.
        let next_live_wal = st
            .imms
            .front()
            .map(|i| i.wal_number)
            .unwrap_or_else(|| *st.live_wals.last().expect("active wal present"));
        let mut edits = vec![
            VersionEdit::PersistedSeqno {
                seqno: imm.max_seqno,
            },
            VersionEdit::LogNumber {
                number: next_live_wal,
            },
            VersionEdit::NextFileId {
                id: self.next_file_id.load(Ordering::SeqCst),
            },
        ];
        if let Some(f) = &file {
            edits.insert(
                0,
                VersionEdit::AddFile {
                    level: 0,
                    run: f.run,
                    id: f.id,
                    size: f.size_bytes,
                    created_tick: f.created_tick,
                },
            );
            self.stats
                .compaction_bytes_out
                .fetch_add(f.size_bytes, Ordering::Relaxed);
        }
        st.manifest.append(&EditBatch { edits })?;

        // Retire WAL segments only after the manifest's LogNumber no
        // longer references them.
        let (retired, kept): (Vec<u64>, Vec<u64>) = std::mem::take(&mut st.live_wals)
            .into_iter()
            .partition(|n| *n < next_live_wal);
        st.live_wals = kept;
        for old in retired {
            let path = wal_path(&self.dir, old);
            if self.fs.exists(&path) {
                self.fs.delete(&path)?;
            }
        }

        let flushed = file
            .as_ref()
            .map(|f| (f.id, f.size_bytes, f.stats.entry_count));
        if let Some(f) = file {
            st.version = Arc::new(st.version.apply(vec![f], &[], &[], &[]));
        }
        st.persisted_seqno = st.persisted_seqno.max(imm.max_seqno);
        self.recompute_ttl_deadline(st);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        let (file_id, bytes, entries) = flushed.unwrap_or((0, 0, 0));
        self.obs.log(Event::FlushEnd {
            file_id,
            bytes,
            entries,
            micros,
        });
        self.publish_view_locked(st);
        Ok(())
    }

    /// Flush `mem`, the front sealed memtable: build the table off-lock,
    /// then install under the state lock. Callers hold the
    /// `flush_claimed` ticket, which is what keeps `mem` at the front of
    /// the queue (installs pop in queue order) until the install here.
    fn flush_front_imm(&self, mem: &Memtable) -> Result<()> {
        let started = Instant::now();
        let file = self.build_l0_table(mem)?;
        {
            let mut st = self.state.write();
            self.install_flush_locked(&mut st, file, started.elapsed().as_micros() as u64)?;
        }
        self.stats
            .flush_micros
            .record(started.elapsed().as_micros() as u64);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    /// Record a `CompactionPicked` event for `task`, with the FADE
    /// trigger inputs (most overdue input tombstone, cumulative budget
    /// at the input level) when a TTL schedule is configured.
    fn log_compaction_picked(&self, task: &CompactionTask, now: Tick) {
        let (overdue_by, deadline) = match self.picker.ttl_schedule() {
            Some(ttl) => ttl.trigger_inputs(task.all_inputs().map(|f| f.as_ref()), task.level, now),
            None => (0, 0),
        };
        self.obs.log(Event::CompactionPicked {
            level: task.level as u64,
            output_level: task.output_level as u64,
            input_files: task.all_inputs().count() as u64,
            input_bytes: task.input_bytes(),
            reason: task.reason,
            overdue_by,
            deadline,
        });
    }

    /// Run one compaction: merge against the version captured when the
    /// task was picked (disjointness from concurrent tasks is guaranteed
    /// by the picker's claim marks), then install against the *current*
    /// version. Sound because concurrent installs are key- and
    /// file-disjoint, newer L0 flushes only add data above the inputs,
    /// and snapshots registered after the pick hold seqnos at or above
    /// everything in the inputs.
    fn run_compaction_task(&self, version: &Version, task: &CompactionTask) -> Result<()> {
        let started = Instant::now();
        let now = self.opts.clock.now();
        self.log_compaction_picked(task, now);
        let snapshots = self.snapshot_list();
        let outcome = run_compaction(
            &self.fs,
            &self.dir,
            &self.opts,
            self.cache.as_ref(),
            version,
            task,
            &snapshots,
            now,
            || self.alloc_file_id(),
        )?;
        {
            let mut st = self.state.write();
            self.install_compaction_locked(
                &mut st,
                task,
                outcome,
                now,
                started.elapsed().as_micros() as u64,
            )?;
        }
        self.stats
            .compaction_micros
            .record(started.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Apply a compaction outcome: version delta, range-tombstone
    /// retirement, manifest record, physical deletes, statistics. The
    /// ordering invariant is manifest-append before version publish and
    /// before any physical file deletion.
    fn install_compaction_locked(
        &self,
        st: &mut State,
        task: &CompactionTask,
        outcome: crate::compaction::CompactionOutcome,
        now: Tick,
        micros: u64,
    ) -> Result<()> {
        // A TTL rewrite within one level that came out as it went in
        // would be picked again, unchanged, for as long as the clock
        // stands still: have the picker pass over its outputs.
        if task.reason == CompactionReason::TtlExpired
            && task.level == task.output_level
            && outcome.entries_dropped() == 0
            && outcome.key_range_tombstones_dropped.is_empty()
        {
            self.picker
                .note_futile_rewrite(now, outcome.added.iter().map(|f| f.id).collect());
        }
        // Apply to the version first so range-tombstone retirement sees
        // the post-compaction file set. A tombstone is retirable only if
        // no *buffer* (active or sealed memtable) holds anything it
        // could still shadow either — un-flushed covered entries must
        // remain shadowed once they reach disk.
        let mut new_version =
            st.version
                .apply(outcome.added.clone(), &outcome.deleted_ids, &[], &[]);
        let mut retirable = new_version.retirable_range_tombstones();
        if !retirable.is_empty() {
            let mut buffers: Vec<(SeqNo, u64, u64)> = Vec::new();
            for m in std::iter::once(st.mem.as_ref()).chain(st.imms.iter().map(|i| i.mem.as_ref()))
            {
                let stats = m.stats();
                if let (Some(min_seq), Some(lo), Some(hi)) =
                    (m.min_seqno(), stats.min_dkey, stats.max_dkey)
                {
                    buffers.push((min_seq, lo, hi));
                }
            }
            let rts = st.version.range_tombstones.clone();
            retirable.retain(|seqno| {
                !rts.iter().any(|rt| {
                    rt.seqno == *seqno
                        && buffers
                            .iter()
                            .any(|(ms, lo, hi)| *ms < rt.seqno && rt.range.overlaps(*lo, *hi))
                })
            });
        }
        if !retirable.is_empty() {
            new_version = new_version.apply(vec![], &[], &[], &retirable);
        }

        // Manifest record (deletes first so trivial moves replay
        // correctly).
        let mut edits: Vec<VersionEdit> = outcome
            .deleted_ids
            .iter()
            .map(|id| VersionEdit::DeleteFile { id: *id })
            .collect();
        for f in &outcome.added {
            edits.push(VersionEdit::AddFile {
                level: f.level as u64,
                run: f.run,
                id: f.id,
                size: f.size_bytes,
                created_tick: f.created_tick,
            });
        }
        for seqno in &retirable {
            edits.push(VersionEdit::DropRangeTombstone { seqno: *seqno });
        }
        edits.push(VersionEdit::NextFileId {
            id: self.next_file_id.load(Ordering::SeqCst),
        });
        st.manifest.append(&EditBatch { edits })?;

        // Physically remove replaced files (not those merely moved).
        let kept: Vec<u64> = outcome.added.iter().map(|f| f.id).collect();
        for id in &outcome.deleted_ids {
            if !kept.contains(id) {
                let path = sst_path(&self.dir, *id);
                if self.fs.exists(&path) {
                    self.fs.delete(&path)?;
                }
            }
        }
        st.version = Arc::new(new_version);

        // Statistics.
        use std::sync::atomic::Ordering::Relaxed;
        self.stats.compactions.fetch_add(1, Relaxed);
        if task.reason == CompactionReason::TtlExpired {
            self.stats.ttl_compactions.fetch_add(1, Relaxed);
        }
        self.stats
            .compaction_bytes_in
            .fetch_add(outcome.bytes_in, Relaxed);
        self.stats
            .compaction_bytes_out
            .fetch_add(outcome.bytes_out, Relaxed);
        self.stats
            .entries_shadowed
            .fetch_add(outcome.shadowed, Relaxed);
        self.stats
            .entries_range_purged
            .fetch_add(outcome.range_purged, Relaxed);
        self.stats
            .entries_key_range_purged
            .fetch_add(outcome.key_range_purged, Relaxed);
        self.stats
            .pages_dropped
            .fetch_add(outcome.pages_dropped, Relaxed);
        let d_th = self
            .opts
            .fade
            .as_ref()
            .map(|f| f.delete_persistence_threshold);
        for (delete_tick, _seqno) in &outcome.tombstones_dropped {
            self.stats.record_tombstone_purge(*delete_tick, now, d_th);
        }
        // Purged sort-key range tombstones feed the same persistence
        // histogram: FADE bounds their resolution latency by the same
        // D_th as point tombstones.
        for (delete_tick, _seqno) in &outcome.key_range_tombstones_dropped {
            self.stats.key_range_tombstones_purged.fetch_add(1, Relaxed);
            self.stats.record_tombstone_purge(*delete_tick, now, d_th);
        }
        // Pointers dropped by this compaction (shadowed or purged) turn
        // their vlog frames dead; the stamp is the tombstone's dkey (or
        // `now` for overwrites), which is what the GC deadline rule ages.
        if !outcome.vlog_dead.is_empty() {
            let mut vs = self.vlog_state.lock();
            for (segment, bytes, stamp) in &outcome.vlog_dead {
                vs.mark_dead(*segment, *bytes, *stamp);
            }
        }
        // Ledger: stamp cohort descent and member-tombstone resolution.
        // Every tombstone leaves a compaction exactly one way — purged,
        // superseded by a newer version, or krt-purged — and each way
        // reports its seqno here, so cohorts can account members out.
        {
            let mut ledger = self.ledger.lock();
            let windows: Vec<(SeqNo, SeqNo)> = task
                .all_inputs()
                .map(|f| (f.stats.min_seqno, f.stats.max_seqno))
                .collect();
            for epoch in ledger.entered_level(&windows, task.output_level as u64, now) {
                self.obs.log(Event::CohortAdvanced {
                    epoch,
                    stage: CohortStage::EnteredLevel,
                    level: task.output_level as u64,
                    tombstones: 0,
                    tick: now,
                });
            }
            let resolved = outcome
                .tombstones_dropped
                .iter()
                .chain(outcome.key_range_tombstones_dropped.iter())
                .map(|(_, seqno)| *seqno)
                .chain(outcome.tombstones_superseded.iter().copied());
            for seqno in resolved {
                if let Some(epoch) = ledger.tombstone_resolved(seqno, now) {
                    self.obs.log(Event::CohortAdvanced {
                        epoch,
                        stage: CohortStage::Purged,
                        level: task.output_level as u64,
                        tombstones: 0,
                        tick: now,
                    });
                }
            }
            for (segment, _bytes, stamp) in &outcome.vlog_dead {
                ledger.vlog_dead(*segment, *stamp);
            }
        }
        self.obs.log(Event::CompactionEnd {
            level: task.level as u64,
            output_level: task.output_level as u64,
            bytes_in: outcome.bytes_in,
            bytes_out: outcome.bytes_out,
            entries_dropped: outcome.entries_dropped(),
            tombstones_purged: (outcome.tombstones_dropped.len()
                + outcome.key_range_tombstones_dropped.len()) as u64,
            micros,
        });
        self.recompute_ttl_deadline(st);
        self.publish_view_locked(st);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Value-log garbage collection
    // ------------------------------------------------------------------

    /// Pick one vlog segment worth rewriting, or `None` when the value
    /// log is quiescent.
    ///
    /// Two triggers, mirroring FADE's deadline semantics for the tree:
    /// a segment whose oldest dead extent has aged past `D_th` MUST be
    /// rewritten now (the deleted bytes are overdue for physical
    /// reclamation), and a segment whose dead fraction passed the
    /// configured ratio is rewritten opportunistically to bound space
    /// amplification. The head segment (still being appended) is never
    /// picked, and a retired segment — already rewritten, kept only for
    /// snapshot readers — becomes eligible for deletion once the last
    /// snapshot drops.
    fn vlog_gc_candidate(&self, now: Tick) -> Option<u64> {
        let head = self.vlog.lock().as_ref().map(|w| w.segment());
        let d_th = self
            .opts
            .fade
            .as_ref()
            .map(|f| f.delete_persistence_threshold);
        let ratio = u64::from(self.opts.vlog_gc_dead_ratio_percent);
        let snapshots_empty = self.snapshots.lock().is_empty();
        let vs = self.vlog_state.lock();
        for (seg, acct) in vs.segments.iter() {
            if acct.dead_bytes == 0 {
                continue;
            }
            if acct.retired {
                if snapshots_empty {
                    return Some(*seg);
                }
                continue;
            }
            let overdue = d_th
                .zip(acct.oldest_dead_tick)
                .is_some_and(|(d, t0)| now.saturating_sub(t0) >= d);
            if Some(*seg) == head {
                // The segment still being appended is only rewritten
                // when D_th forces it (run_vlog_gc rolls the writer
                // first); the ratio trigger waits for the roll.
                if overdue {
                    return Some(*seg);
                }
                continue;
            }
            let ratio_hit =
                ratio > 0 && acct.dead_bytes * 100 >= (acct.live_bytes + acct.dead_bytes) * ratio;
            if overdue || ratio_hit {
                return Some(*seg);
            }
        }
        None
    }

    /// Rewrite one vlog segment: re-commit its still-live values (they
    /// re-separate through the normal write path, landing at the vlog
    /// head with fresh pointers), then physically delete the file — or
    /// mark it retired when snapshot readers may still hold pointers
    /// into it, deferring the delete until the last snapshot drops.
    ///
    /// Liveness is decided under commit exclusion: the visible seqno is
    /// frozen while we compare each frame against the newest live
    /// version of its key, so a frame judged dead cannot be resurrected
    /// and a frame judged live cannot be superseded before our own
    /// rewrite batch commits. A frame is live iff the deciding version
    /// is a pointer to exactly this frame.
    fn run_vlog_gc(&self, segment: u64) -> Result<()> {
        let started = Instant::now();
        // A deadline-forced rewrite of the head segment first retires
        // the writer (synced, then dropped): the segment is immutable
        // from here on, so the scan below cannot miss late appends —
        // new separated values open a fresh segment.
        {
            let mut vlog = self.vlog.lock();
            if vlog.as_ref().is_some_and(|w| w.segment() == segment) {
                if let Some(w) = vlog.as_mut() {
                    w.sync()?;
                }
                *vlog = None;
                self.vlog_next_segment.store(segment + 1, Ordering::Relaxed);
            }
        }
        let path = vlog_path(&self.dir, segment);
        if !self.fs.exists(&path) {
            // A concurrent pass already reclaimed it.
            return Ok(());
        }
        let data = self.fs.read_all(&path)?;
        let scan = acheron_vlog::scan_segment(&data);

        let excl = self.commit_exclusive();
        let snapshot = self.visible_seqno.load(Ordering::Acquire);
        let view = self.current_view();
        let mut ops: Vec<WalOp> = Vec::new();
        let mut rewritten = 0u64;
        for frame in &scan.frames {
            let Some(entry) = self.newest_live_in_view(&view, &frame.key, snapshot, None)? else {
                continue;
            };
            if entry.kind != acheron_types::ValueKind::ValuePointer {
                continue;
            }
            let Some(ptr) = ValuePointer::decode(&entry.value) else {
                continue;
            };
            if ptr.segment != segment || ptr.offset != frame.offset || ptr.len != frame.len {
                continue; // superseded pointer: this frame is dead
            }
            let frame_bytes =
                data.slice(frame.offset as usize..(frame.offset + u64::from(frame.len)) as usize);
            let (_key, value) = acheron_vlog::decode_frame(&frame_bytes)?;
            rewritten += u64::from(frame.len);
            ops.push(WalOp::Put {
                key: frame.key.clone(),
                value,
                dkey: entry.dkey,
            });
        }
        if !ops.is_empty() {
            self.commit_group_inner(&excl, &mut [&mut ops[..]], None)?;
        }

        let reclaimed;
        if self.snapshots.lock().is_empty() {
            // No reader can hold a pointer into this segment any more:
            // every live value was just re-pointed at the head, and dead
            // frames are invisible at the frozen seqno.
            self.vlog_reader.invalidate(segment);
            if self.fs.exists(&path) {
                // Durability order for the delete: the rewrite batch
                // must be stable before the drop record, and the drop
                // record (manifest appends sync) before the file
                // vanishes. Live tables keep shadowed pointers into the
                // segment until compaction rewrites them; the manifest
                // record is what tells recovery and `doctor` those
                // references are expected-stale, not dangling.
                if !self.opts.wal_sync {
                    let mut wal = self.wal.lock();
                    if let Some(w) = self.vlog.lock().as_mut() {
                        w.sync()?;
                    }
                    wal.sync()?;
                }
                self.state.write().manifest.append(&EditBatch {
                    edits: vec![VersionEdit::DropVlogSegment { segment }],
                })?;
                self.fs.delete(&path)?;
                self.fs.sync_dir(&self.dir)?;
            }
            let mut vs = self.vlog_state.lock();
            vs.segments.remove(&segment);
            vs.dropped.insert(segment);
            drop(vs);
            // Ledger: cohorts waiting on this segment's dead extents
            // are released — their deletes are now physically gone.
            {
                let now = self.opts.clock.now();
                for epoch in self.ledger.lock().vlog_reclaimed(segment, now) {
                    self.obs.log(Event::CohortAdvanced {
                        epoch,
                        stage: CohortStage::VlogReclaimed,
                        level: 0,
                        tombstones: 0,
                        tick: now,
                    });
                }
            }
            reclaimed = data.len() as u64;
            self.stats
                .vlog_segments_deleted
                .fetch_add(1, Ordering::Relaxed);
            self.stats
                .vlog_gc_reclaimed_bytes
                .fetch_add(reclaimed, Ordering::Relaxed);
        } else {
            // A registered snapshot predates the rewrite and may still
            // dereference into this file. Keep the bytes; the segment is
            // now all-dead and is deleted on a later pass once the
            // snapshot count drains to zero.
            let mut vs = self.vlog_state.lock();
            let acct = vs.segments.entry(segment).or_default();
            acct.live_bytes = 0;
            acct.dead_bytes = data.len() as u64;
            acct.retired = true;
            reclaimed = 0;
        }
        self.stats.vlog_gc_rewrites.fetch_add(1, Ordering::Relaxed);
        self.stats
            .vlog_gc_rewritten_bytes
            .fetch_add(rewritten, Ordering::Relaxed);
        self.obs.log(Event::VlogGc {
            segment,
            rewritten_bytes: rewritten,
            reclaimed_bytes: reclaimed,
            micros: started.elapsed().as_micros() as u64,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // The executor: one decision, one step, two drivers
    // ------------------------------------------------------------------

    /// The most urgent maintenance task within `scope`, or `None` when
    /// there is nothing to do (or, when claiming, nothing that does not
    /// collide with a task already running). Urgency order: a
    /// TTL-expired write buffer (FADE's deadline starts its descent
    /// there), the front of the sealed queue, one compaction, one
    /// value-log segment.
    ///
    /// With `claim` the task is accepted for execution: a flush takes
    /// the single-flusher ticket, a compaction registers its claim marks
    /// and moves the picker's cursor, and the caller must pass the task
    /// to [`DbCore::run_task`], which gives both back. Without it this
    /// is a pure query — no ticket, no claim, no cursor — and the task
    /// must not be run.
    fn next_task(&self, scope: &Scope, claim: bool) -> Option<MaintTask> {
        let now = self.opts.clock.now();
        {
            // Claims are registered under the state lock, so no install
            // can slip between judging a version and marking its files.
            let st = self.state.read();
            if scope.contains(&Kind::SealExpired) {
                if let Some(ttl) = self.picker.ttl_schedule() {
                    if ttl.buffer_expired(&st.mem, now) {
                        return Some(MaintTask::SealExpired(Arc::clone(&st.mem)));
                    }
                }
            }
            if scope.contains(&Kind::Flush) {
                if let Some(front) = st.imms.front() {
                    // One flusher at a time (installs go in queue
                    // order); the rest fall through to compaction.
                    if !claim || !self.flush_claimed.swap(true, Ordering::SeqCst) {
                        return Some(MaintTask::Flush(Arc::clone(&front.mem)));
                    }
                }
            }
            if scope.contains(&Kind::Compact) {
                let picked = if claim {
                    self.picker
                        .pick_claimed(&st.version, now)
                        .map(|(task, claim)| (task, Some(claim)))
                } else {
                    self.picker.pick(&st.version, now).map(|task| (task, None))
                };
                if let Some((task, claim)) = picked {
                    return Some(MaintTask::Compact(task, claim, Arc::clone(&st.version)));
                }
            }
        }
        if scope.contains(&Kind::VlogGc) {
            return self.vlog_gc_candidate(now).map(MaintTask::VlogGc);
        }
        None
    }

    /// Execute one claimed task: build or merge off the state lock,
    /// install under it, and give back whatever [`DbCore::next_task`]
    /// claimed. `witness` is the caller's own hold on the
    /// commit-exclusion domain, if it has one: sealing then runs under
    /// it instead of deadlocking on it. (Vlog GC enters the exclusion
    /// itself, part-way through, and is never driven under a witness.)
    pub(super) fn run_task(
        &self,
        task: MaintTask,
        witness: Option<&CommitExclusion<'_>>,
    ) -> Result<()> {
        match task {
            MaintTask::SealExpired(mem) => {
                // Sealing swaps the WAL writer, so the exclusion comes
                // first (before the state lock, per the lock hierarchy).
                let own = witness.is_none().then(|| self.commit_exclusive());
                let excl = witness.or(own.as_ref()).expect("held or just entered");
                let mut st = self.state.write();
                // A racing writer may have filled and sealed it; an
                // expired buffer never un-expires, so identity is the
                // whole re-check.
                if Arc::ptr_eq(&st.mem, &mem) {
                    self.seal_memtable_locked(excl, &mut st)?;
                }
                Ok(())
            }
            MaintTask::Flush(mem) => {
                let flushed = self.flush_front_imm(&mem);
                self.flush_claimed.store(false, Ordering::SeqCst);
                flushed
            }
            MaintTask::Compact(task, claim, version) => {
                let compacted = self.run_compaction_task(&version, &task);
                if let Some(claim) = claim {
                    self.picker.release(claim);
                }
                compacted
            }
            MaintTask::VlogGc(segment) => {
                debug_assert!(witness.is_none(), "a rewrite enters the exclusion itself");
                self.run_vlog_gc(segment)
            }
        }
    }

    /// The inline driver: the calling thread is the worker, and runs
    /// tasks within `scope` until none is left. All of maintenance when
    /// `background_threads = 0`; how `flush`, `maintain` and
    /// `compact_all` run theirs, workers paused, in either mode.
    pub(super) fn drive(&self, scope: &Scope, witness: Option<&CommitExclusion<'_>>) -> Result<()> {
        for _ in 0..MAX_TASKS_PER_PASS {
            let Some(task) = self.next_task(scope, true) else {
                return Ok(());
            };
            self.run_task(task, witness)?;
        }
        Err(Error::Internal(
            "maintenance did not converge within the per-pass bound".into(),
        ))
    }

    /// Act on a commit that sealed the memtable or crossed a TTL
    /// deadline: wake the workers, or — when the committing thread is
    /// the worker — do the work now, under the exclusion the committer
    /// holds, so other writers wait until the tree is within its
    /// triggers again. Not vlog GC: a rewrite re-enters the commit path.
    pub(super) fn announce_work(&self, excl: &CommitExclusion<'_>) -> Result<()> {
        if self.background() {
            self.kick_workers();
            Ok(())
        } else {
            self.drive(&TREE, Some(excl))
        }
    }

    /// Worker thread body, the pool driver: claim a task, run it,
    /// repeat; sleep (with a periodic re-poll, so clock-driven TTL
    /// expiry is noticed) when there is nothing to do, while paused, and
    /// after an error.
    pub(super) fn worker_loop(core: Arc<DbCore>) {
        loop {
            let mut maint = core.maint.lock();
            if maint.shutdown {
                return;
            }
            if maint.pause_depth > 0 || maint.error.is_some() {
                core.work_cv.wait_for(&mut maint, WORKER_TICK);
                continue;
            }
            // `in_flight` is bumped under the same critical section that
            // observed `pause_depth == 0`, so a pause that begins after
            // this point waits for the task below to finish.
            let seen_kicks = maint.kicks;
            maint.in_flight += 1;
            drop(maint);

            let outcome = match core.next_task(&ALL, true) {
                Some(task) => core.run_task(task, None).map(|()| true),
                None => Ok(false),
            };
            // Sample the arbiter once per worker step; differencing in
            // the tuner makes redundant calls classify as hold.
            core.memory_tick();

            let mut maint = core.maint.lock();
            maint.in_flight -= 1;
            core.done_cv.notify_all();
            match outcome {
                Ok(true) => {} // made progress: immediately look again
                Ok(false) => {
                    if maint.kicks == seen_kicks && !maint.shutdown {
                        core.work_cv.wait_for(&mut maint, WORKER_TICK);
                    }
                }
                Err(e) => {
                    if maint.error.is_none() {
                        maint.error = Some(e.to_string());
                    }
                    core.stats.background_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Wake all workers (and bump the kick counter so a worker that was
    /// mid-step re-polls instead of sleeping).
    pub(super) fn kick_workers(&self) {
        if !self.background() {
            return;
        }
        {
            let mut maint = self.maint.lock();
            maint.kicks = maint.kicks.wrapping_add(1);
        }
        self.work_cv.notify_all();
    }

    /// Ask workers to exit and wake them; called from `DbInner::drop`
    /// (which then joins them) and from a failed `open`.
    pub(super) fn request_shutdown(&self) {
        {
            let mut maint = self.maint.lock();
            maint.shutdown = true;
        }
        self.work_cv.notify_all();
    }

    /// Enter a pause: no new steps start, and any in-flight step is
    /// drained before this returns.
    pub(super) fn pause_raw(&self) {
        let mut maint = self.maint.lock();
        maint.pause_depth += 1;
        while maint.in_flight > 0 {
            self.done_cv.wait_for(&mut maint, WORKER_TICK);
        }
    }

    pub(super) fn unpause_raw(&self) {
        {
            let mut maint = self.maint.lock();
            maint.pause_depth -= 1;
        }
        self.work_cv.notify_all();
    }

    /// How every foreground maintenance entry point opens: workers
    /// quiesced, the sticky background error surfaced, then the
    /// commit-exclusion domain entered (and released first).
    pub(super) fn quiesce(&self) -> Result<(PauseGuard<'_>, CommitExclusion<'_>)> {
        self.pause_raw();
        let pause = PauseGuard { core: self };
        self.check_background_error()?;
        Ok((pause, self.commit_exclusive()))
    }

    /// Surface the sticky background error, if any.
    pub(super) fn check_background_error(&self) -> Result<()> {
        match &self.maint.lock().error {
            Some(e) => Err(Error::Internal(format!(
                "background maintenance failed: {e}"
            ))),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Write throttling
    // ------------------------------------------------------------------

    /// Current pressure gauges: (L0 file count, sealed-queue depth).
    /// Read off the current view — every seal and install publishes one,
    /// so the gauges are as fresh as the structures they meter.
    pub(super) fn pressure(&self) -> (usize, usize) {
        let view = self.current_view();
        (view.version.level_files(0), view.imms.len())
    }

    /// Whether background work can still reduce the pressure. Guards the
    /// stall loop against waiting forever on a tree the picker considers
    /// final (e.g. a misconfigured stall limit below the picker's own
    /// triggers).
    fn reducible_pressure(&self) -> bool {
        self.next_task(&PRESSURE, false).is_some()
    }

    /// Backpressure, applied before each write takes any lock: delay
    /// briefly at the soft L0 limit; at a hard limit (L0 or sealed
    /// queue), block until workers bring the gauge back down.
    pub(super) fn throttle_writes(&self) -> Result<()> {
        if !self.background() {
            return Ok(());
        }
        let (l0, imms) = self.pressure();
        let stall = l0 >= self.opts.l0_stall_files || imms >= self.opts.max_imm_memtables;
        if stall {
            let started = Instant::now();
            self.stats.write_stalls.fetch_add(1, Ordering::Relaxed);
            self.obs.log(Event::StallEnter {
                l0_files: l0 as u64,
                sealed_memtables: imms as u64,
            });
            self.kick_workers();
            loop {
                self.check_background_error()?;
                let (l0, imms) = self.pressure();
                if l0 < self.opts.l0_stall_files && imms < self.opts.max_imm_memtables {
                    break;
                }
                if !self.reducible_pressure() {
                    break;
                }
                let mut maint = self.maint.lock();
                self.done_cv.wait_for(&mut maint, STALL_RECHECK);
            }
            let waited_micros = started.elapsed().as_micros() as u64;
            self.stats.stall_micros.record(waited_micros);
            self.obs.log(Event::StallExit { waited_micros });
        } else if l0 >= self.opts.l0_slowdown_files {
            self.stats.write_slowdowns.fetch_add(1, Ordering::Relaxed);
            self.obs.log(Event::SlowdownEnter {
                l0_files: l0 as u64,
                sealed_memtables: imms as u64,
            });
            self.kick_workers();
            std::thread::sleep(SLOWDOWN_DELAY);
            self.obs.log(Event::SlowdownExit);
        }
        Ok(())
    }

    /// Whether any maintenance work is currently visible (used by
    /// [`super::Db::wait_idle`]).
    pub(super) fn has_pending_work(&self) -> bool {
        self.next_task(&ALL, false).is_some()
    }
}
