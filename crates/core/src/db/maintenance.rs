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
use crate::compaction::{create_table, finish_table, run_compaction, CompactionOutcome};
use crate::fade::Station;
use crate::filenames::{sst_path, vlog_path, wal_path};
use crate::manifest::{EditBatch, VersionEdit};
use crate::obs::trace::DeleteLedger;
use crate::obs::Event;
use crate::picker::{CompactionClaim, CompactionReason, CompactionTask};
use crate::version::{Applied, FileMeta, Retired, Version};

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
    /// claim is the picker's in-flight marks: `None` for a task run
    /// while the workers are paused (`Db::compact_all`).
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
    /// Retire from `next`, the version an install is about to publish,
    /// every range tombstone the install left erasing nothing (see
    /// [`Version::retire`]), and append the drop records to `edits`.
    fn retire_locked(
        &self,
        st: &State,
        next: Version,
        applied: Option<&Applied<'_>>,
        edits: &mut Vec<VersionEdit>,
    ) -> (Version, Retired) {
        let buffers: Vec<&Memtable> = std::iter::once(&st.mem)
            .chain(st.imms.iter().map(|i| &i.mem))
            .map(|m| m.as_ref())
            .collect();
        let (next, retired) = next.retire(&buffers, applied);
        for &seqno in &retired.secondary {
            edits.push(VersionEdit::DropRangeTombstone { seqno });
        }
        for k in &retired.key_ranges {
            edits.push(VersionEdit::DropKeyRangeTombstone { seqno: k.seqno });
        }
        (next, retired)
    }

    /// Account the deletes an install resolved at `now`: a purged point
    /// tombstone and a retired sort-key range tombstone each count as a
    /// purge against `D_th` and leave their cohort; a superseded
    /// tombstone only leaves its cohort.
    fn resolve_deletes(
        &self,
        ledger: &mut DeleteLedger,
        purged: &[(Tick, SeqNo)],
        superseded: &[SeqNo],
        retired: &Retired,
        now: Tick,
    ) {
        let d_th = self.opts.d_th();
        (self.stats.key_range_tombstones_purged)
            .fetch_add(retired.key_ranges.len() as u64, Ordering::Relaxed);
        let key_ranges = retired.key_ranges.iter().map(|k| (k.dkey, k.seqno));
        for (delete_tick, seqno) in purged.iter().copied().chain(key_ranges) {
            self.stats.record_tombstone_purge(delete_tick, now, d_th);
            ledger.tombstone_resolved(seqno, now);
        }
        for &seqno in superseded {
            ledger.tombstone_resolved(seqno, now);
        }
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
        st.ledger.seal(&sealed, self.opts.clock.now());
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
        // Readers (and the write throttle's gauges) must see the sealed
        // queue grow promptly.
        self.publish_view_locked(st);
        Ok(())
    }

    /// Build an L0 table from a sealed memtable. Pure I/O, run without
    /// the state lock.
    ///
    /// L0 tables are always sort-ordered, whatever `pages_per_tile` says:
    /// L0 files overlap each other, so a compaction can drop an L0 page
    /// only when the file sits alone over an otherwise empty key range,
    /// and the woven layout would make every read of it pay `h` pages
    /// for that.
    fn build_l0_table(&self, mem: &Memtable) -> Result<Option<Arc<FileMeta>>> {
        self.obs.log(Event::FlushStart {
            entries: mem.stats().entries as u64,
        });
        // A buffer of range deletes alone writes no table: its
        // tombstones go to the manifest at the install.
        if mem.stats().entries == 0 {
            return Ok(None);
        }
        let now = self.opts.clock.now();
        let id = self.alloc_file_id();
        let (fs, dir) = (&self.fs, &self.dir);
        let mut b = create_table(fs, dir, &self.opts, self.cache.as_ref(), id, 1)?;
        // Entries are flushed as-is; range-erased versions are purged at
        // bottommost compactions (purging here could let older, deeper
        // versions decide reads).
        for e in mem.entries() {
            b.add(e)?;
        }
        finish_table(fs, dir, id, b, 0, id, now).map(Some)
    }

    /// Install a built L0 table for the *front* sealed memtable, with its
    /// sort-key range tombstones moved into the manifest beside it:
    /// manifest record first, then WAL retirement, then version publish
    /// — the crash-safety ordering the seed engine established.
    fn install_flush_locked(
        &self,
        st: &mut State,
        file: Option<Arc<FileMeta>>,
        micros: u64,
    ) -> Result<()> {
        let imm = st.imms.pop_front().expect("a sealed memtable is queued");
        // WAL segments strictly older than the next live one (the next
        // queued memtable's segment, or the active segment) are covered
        // by this install's PersistedSeqno and can be retired.
        let next_live_wal = st
            .imms
            .front()
            .map(|i| i.wal_number)
            .unwrap_or_else(|| *st.live_wals.last().expect("active wal present"));
        let mut edits = Vec::new();
        let next = match &file {
            Some(f) => {
                edits.push(VersionEdit::add_file(f));
                (self.stats.compaction_bytes_out).fetch_add(f.size_bytes, Ordering::Relaxed);
                st.version.apply(vec![Arc::clone(f)], &[], &[], &[])
            }
            None => (*st.version).clone(),
        };
        // A tombstone that erases nothing retires at its own flush: it is
        // added and dropped in one batch.
        let krts = imm.mem.range_tombstone_list();
        edits.extend(krts.iter().cloned().map(VersionEdit::AddKeyRangeTombstone));
        let next = next.apply_key_ranges(&krts, &[]);
        let (next, retired) = self.retire_locked(st, next, None, &mut edits);
        edits.extend([
            VersionEdit::PersistedSeqno {
                seqno: imm.max_seqno,
            },
            VersionEdit::LogNumber {
                number: next_live_wal,
            },
            VersionEdit::NextFileId {
                id: self.next_file_id.load(Ordering::SeqCst),
            },
        ]);
        st.manifest.append(&EditBatch { edits })?;

        // Retire WAL segments only after the manifest's LogNumber no
        // longer references them.
        let (old_wals, kept): (Vec<u64>, Vec<u64>) = std::mem::take(&mut st.live_wals)
            .into_iter()
            .partition(|n| *n < next_live_wal);
        st.live_wals = kept;
        for old in old_wals {
            let path = wal_path(&self.dir, old);
            if self.fs.exists(&path) {
                self.fs.delete(&path)?;
            }
        }

        let flushed = file
            .as_ref()
            .map(|f| (f.id, f.size_bytes, f.stats.entry_count));
        st.version = Arc::new(next);
        self.index_version_locked(st);
        let now = self.opts.clock.now();
        st.ledger.flushed(imm.max_seqno, now);
        self.resolve_deletes(&mut st.ledger, &[], &[], &retired, now);
        st.persisted_seqno = st.persisted_seqno.max(imm.max_seqno);
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
    /// trigger inputs when a TTL schedule is configured: how far past
    /// its deadline the most overdue input tombstone is (0 when none
    /// is), and the cumulative budget at the input level.
    fn log_compaction_picked(&self, task: &CompactionTask, now: Tick) {
        let (overdue_by, deadline) = match self.picker.ttl_schedule() {
            Some(ttl) => (
                task.all_inputs()
                    .filter_map(|f| Some((f.stats.oldest_tombstone_tick?, f.level)))
                    .map(|(t0, level)| now.saturating_sub(ttl.due(t0, Station::Level(level))))
                    .max()
                    .unwrap_or(0),
                ttl.due(0, Station::Level(task.level)),
            ),
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
                version,
                task,
                outcome,
                now,
                snapshots.last().copied(),
                started.elapsed().as_micros() as u64,
            )?;
        }
        self.stats
            .compaction_micros
            .record(started.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Apply a compaction outcome merged against `start`: version delta,
    /// range-tombstone retirement, manifest record, physical deletes,
    /// statistics. The ordering invariant is manifest-append before
    /// version publish and before any physical file deletion.
    #[allow(clippy::too_many_arguments)]
    fn install_compaction_locked(
        &self,
        st: &mut State,
        start: &Version,
        task: &CompactionTask,
        outcome: CompactionOutcome,
        now: Tick,
        newest_snapshot: Option<SeqNo>,
        micros: u64,
    ) -> Result<()> {
        // Manifest record (deletes first so trivial moves replay
        // correctly).
        let mut edits: Vec<VersionEdit> = outcome
            .deleted_ids
            .iter()
            .map(|id| VersionEdit::DeleteFile { id: *id })
            .collect();
        edits.extend(outcome.added.iter().map(|f| VersionEdit::add_file(f)));
        // Retirement sees the post-compaction file set. The outputs of a
        // merge that applied every range tombstone do not keep them live.
        let outputs: Vec<u64> = outcome.added.iter().map(|f| f.id).collect();
        let applied = Applied {
            start,
            outputs: &outputs,
        };
        let next = (st.version).apply(outcome.added.clone(), &outcome.deleted_ids, &[], &[]);
        let (new_version, retired) = self.retire_locked(
            st,
            next,
            outcome.applied_range_deletes.then_some(&applied),
            &mut edits,
        );
        edits.push(VersionEdit::NextFileId {
            id: self.next_file_id.load(Ordering::SeqCst),
        });
        st.manifest.append(&EditBatch { edits })?;

        // A TTL rewrite within one level that came out as it went in
        // would be picked again, unchanged, for as long as the clock
        // stands still or the snapshot that pinned it lives: have the
        // picker pass over its outputs. Checked and noted under the
        // snapshot lock, so a pin released mid-compaction is not noted.
        if task.reason == CompactionReason::TtlExpired
            && task.level == task.output_level
            && outcome.entries_dropped() == 0
            && retired.is_empty()
        {
            let snapshots = self.snapshots.lock();
            let pin = newest_snapshot.filter(|s| snapshots.contains_key(s));
            self.picker
                .note_futile_rewrite(now, pin, outputs.iter().copied());
        }

        // Physically remove replaced files (not those merely moved).
        for id in &outcome.deleted_ids {
            if !outputs.contains(id) {
                let path = sst_path(&self.dir, *id);
                if self.fs.exists(&path) {
                    self.fs.delete(&path)?;
                }
            }
        }
        st.version = Arc::new(new_version);
        self.index_version_locked(st);

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
        // Pointers dropped by this compaction (shadowed or purged) turn
        // their vlog frames dead, stamped with the tick of the delete
        // that killed them (or `now` when none did), which is what the
        // GC deadline rule ages. Only frames of segments that still
        // exist are left for the ledger to wait on: GC already deleted
        // the others.
        for e in &outcome.vlog_dead {
            let stamp = e.delete.map_or(now, |(_, tick)| tick);
            if st.vlog.mark_dead(e.segment, e.bytes, stamp) {
                if let Some((seqno, _)) = e.delete {
                    st.ledger.vlog_dead(e.segment, seqno);
                }
            }
        }
        let windows: Vec<(SeqNo, SeqNo)> = (task.all_inputs())
            .map(|f| (f.stats.min_seqno, f.stats.max_seqno))
            .collect();
        (st.ledger).entered_level(&windows, task.output_level as u64, now);
        let (purged, superseded) = (&outcome.tombstones_dropped, &outcome.tombstones_superseded);
        self.resolve_deletes(&mut st.ledger, purged, superseded, &retired, now);
        self.obs.log(Event::CompactionEnd {
            level: task.level as u64,
            output_level: task.output_level as u64,
            bytes_in: outcome.bytes_in,
            bytes_out: outcome.bytes_out,
            entries_dropped: outcome.entries_dropped(),
            tombstones_purged: (outcome.tombstones_dropped.len() + retired.key_ranges.len()) as u64,
            micros,
        });
        self.publish_view_locked(st);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Value-log garbage collection
    // ------------------------------------------------------------------

    /// Pick one vlog segment worth rewriting, or `None` when the value
    /// log is quiescent.
    ///
    /// Two triggers: a segment that is overdue under FADE's one due
    /// rule ([`crate::fade::Station::Log`]: its oldest dead extent is a
    /// full `D_th` old) MUST be rewritten now (the deleted bytes are
    /// overdue for physical reclamation), and a segment whose dead
    /// fraction passed the configured ratio is rewritten
    /// opportunistically to bound space amplification. Segments are not
    /// in the tree's deadline index: GC deletes them outside any
    /// install. The head segment (still being appended) is never
    /// picked, and a retired segment — already rewritten, kept only for
    /// snapshot readers — becomes eligible for deletion once the last
    /// snapshot drops. The head is read before the state lock is taken
    /// (lock order `vlog` → `state`).
    fn vlog_gc_candidate(&self, now: Tick) -> Option<u64> {
        let head = self.vlog.lock().as_ref().map(|w| w.segment());
        let ttl = self.picker.ttl_schedule();
        let ratio = u64::from(self.opts.vlog_gc_dead_ratio_percent);
        let snapshots_empty = self.snapshots.lock().is_empty();
        let st = self.state.read();
        for (seg, acct) in st.vlog.segments.iter() {
            if acct.dead_bytes == 0 {
                continue;
            }
            if acct.retired {
                if snapshots_empty {
                    return Some(*seg);
                }
                continue;
            }
            let overdue = (ttl.zip(acct.oldest_dead_tick))
                .is_some_and(|(ttl, t0)| now > ttl.due(t0, Station::Log));
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
            // The accounting forgets the segment, and the cohorts
            // waiting on its dead extents are released (their deletes
            // are now physically gone), in one section.
            let st = &mut *self.state.write();
            st.vlog.segments.remove(&segment);
            st.ledger.vlog_reclaimed(segment, self.opts.clock.now());
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
            let mut st = self.state.write();
            let acct = st.vlog.segments.entry(segment).or_default();
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
    /// the single-flusher ticket, a value-log rewrite the
    /// single-rewriter ticket, a compaction registers its claim marks
    /// and moves the picker's cursor, and the caller must pass the task
    /// to [`DbCore::run_task`], which gives them back. Without it this
    /// is a pure query — no ticket, no claim, no cursor — and the task
    /// must not be run.
    fn next_task(&self, scope: &Scope, claim: bool) -> Option<MaintTask> {
        let now = self.opts.clock.now();
        {
            // Claims are registered under the state lock, so no install
            // can slip between judging a version and marking its files.
            let st = self.state.read();
            let buffer_due = self.picker.buffer_due(&st.mem);
            if scope.contains(&Kind::SealExpired) && buffer_due.is_some_and(|d| now > d) {
                return Some(MaintTask::SealExpired(Arc::clone(&st.mem)));
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
                        .pick_claimed(&st.version, &st.due, now)
                        .map(|(task, claim)| (task, Some(claim)))
                } else {
                    (self.picker.pick(&st.version, &st.due, now)).map(|task| (task, None))
                };
                if let Some((task, claim)) = picked {
                    return Some(MaintTask::Compact(task, claim, Arc::clone(&st.version)));
                }
            }
        }
        if scope.contains(&Kind::VlogGc) {
            // One rewriter at a time, like the flusher.
            if claim && self.vlog_gc_claimed.swap(true, Ordering::SeqCst) {
                return None;
            }
            let picked = self.vlog_gc_candidate(now);
            if claim && picked.is_none() {
                self.vlog_gc_claimed.store(false, Ordering::SeqCst);
            }
            return picked.map(MaintTask::VlogGc);
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
                let rewritten = self.run_vlog_gc(segment);
                self.vlog_gc_claimed.store(false, Ordering::SeqCst);
                rewritten
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
