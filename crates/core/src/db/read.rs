//! The read seam of the engine: the read view, point lookups, range
//! scans and the view publish that structural changes go through.
//!
//! Reads never take the state lock. Every structural mutation builds a
//! fresh [`ReadView`] under the state write lock and swaps it into
//! `DbCore::view`; a reader clones the `Arc` in O(1) and runs against
//! it with no further synchronization.
//!
//! Lock order: `publish_view_locked` runs with the state write lock
//! held and takes the `view` lock last, only to store a prebuilt
//! pointer. A latest-state read loads `visible_seqno` *before* the
//! view (the seqno-then-view rule on [`ReadView`]); a snapshot read
//! uses the snapshot's registered seqno in its place.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use acheron_memtable::Memtable;
use acheron_sstable::KeyHash;
use acheron_types::{Entry, Error, Result, SeqNo, ValuePointer, MAX_SEQNO};
use bytes::Bytes;

use super::{Db, DbCore, Snapshot, Span, State};
use crate::obs::trace::{OpTrace, TraceBuf, TraceOp, TraceStage};
use crate::version::Version;

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
/// memtable the stale view does not reference.) A fresh read point is
/// no registered snapshot, so the view is read at it only while the
/// visible seqno has not moved past it (see [`Db::lookup`]).
pub(super) struct ReadView {
    pub(super) mem: Arc<Memtable>,
    /// Sealed memtables, newest first (the probe order for lookups).
    pub(super) imms: Vec<Arc<Memtable>>,
    /// The installed tree. Its secondary range tombstones and its
    /// sort-key range-tombstone index are read in place, filtered by
    /// the reader's seqno.
    pub(super) version: Arc<Version>,
}

/// A streaming range scan (see [`Db::range_iter`]): yields live
/// key/value pairs in sort-key order without materializing the range.
pub struct RangeIter {
    merge: crate::merge::MergeIterator,
    hi: Vec<u8>,
    snapshot: SeqNo,
    /// The version read from: its range tombstones of both kinds are
    /// probed in place.
    version: Arc<Version>,
    /// Where the last probe of the version's sort-key index landed: keys
    /// ascend, so the next probe starts there.
    version_krt_cursor: usize,
    /// The sort-key range-tombstone index of each buffer that holds
    /// any, with its probe cursor. Probed one by one after the
    /// version's, as a get probes them.
    buffered_krts: Vec<(Arc<acheron_types::FragmentedRangeTombstones>, usize)>,
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
            // one cursor step per source that holds range tombstones.
            let (seqno, dkey, snapshot) = (key.seqno(), self.merge.dkey(), self.snapshot);
            let covered = |idx: &acheron_types::FragmentedRangeTombstones, cursor: &mut usize| {
                idx.max_seqno_covering_from(key.user_key(), snapshot, cursor)
                    .is_some_and(|cover| seqno < cover)
            };
            let live = kind.is_put_like()
                && !shadowed(&self.version, snapshot, seqno, dkey)
                && !covered(&self.version.key_range_index, &mut self.version_krt_cursor)
                && !(self.buffered_krts.iter_mut()).any(|(idx, cursor)| covered(idx, cursor));
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

    /// Every remaining pair, in order.
    fn into_rows(mut self) -> Result<Vec<(Bytes, Bytes)>> {
        let mut out = Vec::new();
        while let Some(kv) = self.next_entry()? {
            out.push(kv);
        }
        Ok(out)
    }
}

/// Whether a secondary range tombstone of `version` visible at
/// `snapshot` erases the version `(seqno, dkey)`.
fn shadowed(version: &Version, snapshot: SeqNo, seqno: SeqNo, dkey: u64) -> bool {
    version
        .range_tombstones
        .iter()
        .any(|rt| rt.seqno <= snapshot && rt.shadows(seqno, dkey))
}

impl Db {
    /// Point lookup at the latest state. Lock-free: one atomic load for
    /// the read point, one `Arc` clone for the view, then the lookup
    /// runs entirely against the immutable view.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.lookup(key, None, None)
    }

    /// Point lookup at a snapshot.
    pub fn get_at(&self, snap: &Snapshot, key: &[u8]) -> Result<Option<Bytes>> {
        self.lookup(key, Some(snap.seqno), None)
    }

    /// [`Db::get`] under a trace.
    pub fn get_traced(
        &self,
        key: &[u8],
        trace_id: Option<u64>,
    ) -> Result<(Option<Bytes>, OpTrace)> {
        let core = self.core();
        let mut buf = core.begin_trace(TraceOp::Get, trace_id);
        let value = self.lookup(key, None, Some(&mut buf))?;
        Ok((value, core.finish_trace(buf)))
    }

    /// Lookup at a snapshot's read point, or — `None` — at a fresh one,
    /// whose seqno MUST be loaded before the view (the ordering rule on
    /// `ReadView`). No snapshot registers a fresh read point, so an
    /// install published after its load may have compacted away a
    /// version only it could see (one shadowed by a write committed
    /// since). Such an install follows a commit past the read point, so
    /// the view is read at it only while the visible seqno still names
    /// it after the clone; otherwise a new one is loaded.
    ///
    /// No registered snapshot pins the pointers a fresh read point sees,
    /// so value-log GC may rewrite a value and delete the segment its
    /// old pointer names between the view clone and the dereference. GC
    /// commits the rewrite (the visible seqno advances) before it
    /// deletes, so a dereference that fails at a read point that is no
    /// longer current is retried once from a fresh one; at the current
    /// read point the failure is real and is surfaced.
    fn lookup(
        &self,
        key: &[u8],
        snap: Option<SeqNo>,
        mut trace: Option<&mut TraceBuf>,
    ) -> Result<Option<Bytes>> {
        let core = self.core();
        core.stats.gets.fetch_add(1, Ordering::Relaxed);
        let mut retried = false;
        loop {
            let cloning = Span::start(trace.as_deref());
            let snapshot = snap.unwrap_or_else(|| core.visible_seqno.load(Ordering::Acquire));
            #[cfg(test)]
            if let Some(hook) = core.between_loads.lock().take() {
                hook(self);
            }
            let view = core.current_view();
            if snap.is_none() && core.visible_seqno.load(Ordering::Acquire) != snapshot {
                continue;
            }
            cloning.end(trace.as_deref_mut(), TraceStage::ViewClone);
            let Some(newest) =
                core.newest_live_in_view(&view, key, snapshot, trace.as_deref_mut())?
            else {
                return Ok(None);
            };
            let moved = || {
                snap.is_none()
                    && (core.visible_seqno.load(Ordering::Acquire) != snapshot
                        || !Arc::ptr_eq(&view, &core.current_view()))
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
        self.range_iter(lo, hi)?.into_rows()
    }

    /// Range scan at a snapshot.
    pub fn scan_at(&self, snap: &Snapshot, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>> {
        self.range_iter_at(snap, lo, hi)?.into_rows()
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
        // Sort-key range tombstones: each source's own index, shared
        // as-is (a buffer builds its index on the first read after a
        // change). Visibility is filtered per-probe via the snapshot
        // argument. With nothing buffered, nothing is allocated here.
        let buffered_krts: Vec<_> = std::iter::once(&view.mem)
            .chain(view.imms.iter())
            .filter(|m| m.range_tombstone_count() > 0)
            .map(|m| (m.range_tombstones(), 0))
            .collect();

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
        // Each level's files in `[lo, hi]`, chosen from its flat bounds
        // index (two binary searches on a sorted level).
        for (level, files) in view.version.levels.iter().enumerate() {
            for i in view.version.level_bounds(level).overlapping(lo, hi) {
                // No page skipping on reads: chain heads must be seen
                // (newest-version-decides).
                let mut it = files[i].table.iter(Vec::new());
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
            version: Arc::clone(&view.version),
            version_krt_cursor: 0,
            buffered_krts,
            decided_key: None,
            core: Arc::clone(&self.inner.core),
            pinned: None,
        })
    }
}

impl DbCore {
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
    /// older runs. The key is hashed once, at the first table probe;
    /// an unwoven table tests its whole-table filter with that hash
    /// before its fence search, a woven one its page filters.
    ///
    /// Each level's candidates come from its flat bounds index: on a
    /// sorted level a binary search leaves at most one file, elsewhere
    /// (L0, overlapping runs) the bounds are compared file by file. A
    /// file is touched only to probe its table. Every file is counted
    /// once: outside the key (a key-fence skip), beaten on seqno (a
    /// seqno skip), or probed.
    pub(super) fn newest_live_in_view(
        &self,
        view: &ReadView,
        key: &[u8],
        snapshot: SeqNo,
        mut trace: Option<&mut TraceBuf>,
    ) -> Result<Option<Entry>> {
        let probing = Span::start(trace.as_deref());
        let mut best: Option<Entry> = view.mem.newest_visible(key, snapshot);
        probing.end(trace.as_deref_mut(), TraceStage::MemtableProbe);

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
        // The key's filter hash, taken at the first table probe and
        // handed to every table filter and page filter after it.
        let mut hash: Option<KeyHash> = None;
        for (level, files) in view.version.levels.iter().enumerate() {
            let bounds = view.version.level_bounds(level);
            // When the best beats every file of the level, only a trace
            // needs the level searched, for its counts.
            if trace.is_none() && best.as_ref().is_some_and(|b| b.seqno >= bounds.ceiling()) {
                continue;
            }
            let mut examined = 0;
            let mut probe = |i: usize| -> Result<()> {
                examined += 1;
                if bounds.min_seqno(i) > snapshot
                    || best
                        .as_ref()
                        .is_some_and(|b| b.seqno >= bounds.max_seqno(i))
                {
                    seqno_skips += 1;
                    return Ok(());
                }
                table_probes += 1;
                let hash = *hash.get_or_insert_with(|| KeyHash::of(key));
                if let Some(e) = files[i].table.get_hashed(key, hash, snapshot, &[])? {
                    if best.as_ref().is_none_or(|b| e.seqno > b.seqno) {
                        best = Some(e);
                    }
                }
                Ok(())
            };
            let mut overlapping = bounds.overlapping(key, key);
            if level == 0 {
                overlapping.rev().try_for_each(&mut probe)?;
            } else {
                overlapping.try_for_each(&mut probe)?;
            }
            bloom_skips += (files.len() - examined) as u64;
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
        // in place over the version's list — no per-get allocation.
        let Some(newest) = best else {
            return Ok(None);
        };
        if shadowed(&view.version, snapshot, newest.seqno, newest.dkey) {
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
                    .key_range_index
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
                let dereferencing = Span::start(trace.as_deref());
                let value = self.deref_value_pointer(&newest)?;
                dereferencing.end(trace, TraceStage::VlogDeref);
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
    pub(super) fn current_view(&self) -> Arc<ReadView> {
        Arc::clone(&self.view.read())
    }

    /// Build and swap in a fresh read view from `st`. Called (with the
    /// state write lock held) by every *structural* mutation — memtable
    /// seal, flush install, compaction install, range delete. Plain
    /// commits do not republish: they insert into the `mem` the current
    /// view already shares and advance `visible_seqno` (see the ordering
    /// rule on [`ReadView`]).
    pub(super) fn publish_view_locked(&self, st: &State) {
        let view = Arc::new(ReadView {
            mem: Arc::clone(&st.mem),
            imms: st.imms.iter().rev().map(|i| Arc::clone(&i.mem)).collect(),
            version: Arc::clone(&st.version),
        });
        *self.view.write() = view;
        self.stats.read_view_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Rebuild `st`'s deadline index from its version and re-price the
    /// version's pinned bytes: what a new file set changes. The flush
    /// and compaction installs call it for the version they install,
    /// and the open for the version it recovered. A secondary range
    /// delete does not: its version keeps the file set, and neither
    /// reads secondary tombstones.
    pub(super) fn index_version_locked(&self, st: &mut State) {
        if let Some(ttl) = self.picker.ttl_schedule() {
            st.due = ttl.index(&st.version);
        }
        self.refresh_pinned(st);
    }
}
