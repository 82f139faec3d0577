//! Per-operation trace spans and the delete-lifecycle ledger.
//!
//! Two linked subsystems turn the flight recorder ([`crate::obs`])
//! into an *attribution* layer:
//!
//! * **Trace spans** decompose one traced operation's latency into
//!   named stages (commit-queue wait, WAL fsync, memtable insert,
//!   bloom prescreens, cache hits vs. misses, vlog deref, …). Only the
//!   `*_traced` ops make a trace; any other op pays one untaken branch
//!   per span. A finished trace's spans are logged into the event ring
//!   back to back under one lock, as
//!   [`Event::TraceSpan`](crate::obs::Event::TraceSpan)s ending in
//!   `total_micros`, and the `traces` wire command rebuilds whole
//!   [`OpTrace`]s from the ring
//!   ([`EventSnapshot::traces`](crate::obs::EventSnapshot::traces)):
//!   the ring is the only place a trace is kept.
//! * **The delete-lifecycle ledger** records tombstone *cohorts* —
//!   all deletes committed into one memtable generation, numbered by a
//!   per-shard flush epoch and keyed by the generation's largest seqno
//!   — and stamps each stage of their journey: sealed → flushed →
//!   entered level *i* → purged → vlog extent reclaimed. Cohorts, not
//!   per-tombstone records, keep the ledger O(memtable generations)
//!   instead of O(deletes): FADE's bound is per-tombstone, but every
//!   tombstone in a generation shares the flush epoch and level
//!   schedule, so the cohort's *first* delete tick bounds every
//!   member's slack conservatively. A cohort owns the deletes whose
//!   seqnos its generation spans, so a resolved tombstone and a dead
//!   value-log extent (charged by the compaction to the delete that
//!   killed it) both find their cohort by seqno. The ledger lives in
//!   the engine's state beside the value-log accounting and changes
//!   only under the state write lock. It keeps no copy of the write
//!   buffers: a commit does not touch it, the open cohort is read from
//!   the active memtable when a snapshot is taken (so deletes replayed
//!   from the WAL count as committed ones do), a seal builds the cohort
//!   from the sealed memtable's statistics, and a flush names its
//!   generation by the largest seqno the sealed memtable carries. The
//!   engine stamps it directly where a stage completes — seal, flush
//!   install, compaction install, value-log reclaim — and accounts each
//!   resolved delete against `D_th` in the same section. It is the only
//!   record of a cohort's stages: the event ring logs the seals,
//!   flushes, compactions and GC passes that move cohorts, and it
//!   overwrites its oldest events, so it cannot be what an audit
//!   judges.
//!
//! [`DeleteAudit`] folds the ledger and the live gauges into the
//! compliance report served by `acheron audit`: per-cohort slack
//! against `D_th`, nonzero exit on violation.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use acheron_memtable::Memtable;
use acheron_types::{SeqNo, Tick};

use super::{coded_enum, min_tick};

/// Resolved cohorts retained per shard before the oldest are evicted.
const COHORT_RETENTION: usize = 1024;

coded_enum! {
    /// Which operation a trace describes.
    pub enum TraceOp {
        /// A single put.
        Put = 0 => "put",
        /// A single point delete.
        Delete = 1 => "delete",
        /// A point lookup.
        Get = 2 => "get",
    }
}

coded_enum! {
    /// One named stage of a traced operation. Stages ending in `_micros`
    /// carry wall time; the rest carry counts observed while the op ran.
    pub enum TraceStage {
        /// Write: time paced or stalled by L0/imm back-pressure.
        ThrottleWait = 0 => "throttle_wait_micros",
        /// Write: time queued behind the commit-group leader.
        CommitQueueWait = 1 => "commit_queue_wait_micros",
        /// Write (leader): WAL append + fsync.
        WalAppendFsync = 2 => "wal_append_fsync_micros",
        /// Write (leader): value-log frame appends.
        VlogAppend = 3 => "vlog_append_micros",
        /// Write (leader): separated values appended to the vlog.
        VlogFramesAppended = 4 => "vlog_frames_appended",
        /// Write (leader): memtable inserts + view publish.
        MemtableInsert = 5 => "memtable_insert_micros",
        /// Write: synchronous flush/compaction ran inside the op
        /// (`background_threads = 0` only).
        InlineMaintenance = 6 => "inline_maintenance_micros",
        /// Read: cloning the read view.
        ViewClone = 7 => "view_clone_micros",
        /// Read: probing the active + sealed memtables.
        MemtableProbe = 8 => "memtable_probe_micros",
        /// Read: sealed memtables probed.
        ImmProbes = 9 => "imm_probes",
        /// Read: table files actually read (post-prescreen).
        TableProbes = 10 => "table_probes",
        /// Read: files skipped because the key lies outside their min/max
        /// key fence (`FileMeta::contains_key`). No Bloom filter is
        /// consulted here, despite the name (kept: consumers read the stage
        /// by it); page filters are probed inside a table probe.
        BloomPrescreenSkips = 11 => "bloom_prescreen_skips",
        /// Read: files skipped by seqno-window pruning.
        SeqnoSkips = 12 => "seqno_skips",
        /// Read: pages served from the block cache.
        CacheHitPages = 13 => "cache_hit_pages",
        /// Read: pages read from disk.
        CacheMissPages = 14 => "cache_miss_pages",
        /// Read: resolving a value pointer through the vlog.
        VlogDeref = 15 => "vlog_deref_micros",
        /// Whole-operation wall time.
        Total = 16 => "total_micros",
    }
}

/// An in-flight trace: stages accumulate here while the operation
/// runs, off any shared state, then the engine logs the finished
/// [`OpTrace`]'s spans into its event ring.
#[derive(Debug)]
pub struct TraceBuf {
    /// Fleet-unique trace id (propagated over the wire).
    pub trace_id: u64,
    op: TraceOp,
    started: Instant,
    spans: Vec<(TraceStage, u64)>,
}

impl TraceBuf {
    pub(crate) fn new(trace_id: u64, op: TraceOp) -> TraceBuf {
        TraceBuf {
            trace_id,
            op,
            started: Instant::now(),
            spans: Vec::with_capacity(8),
        }
    }

    /// Record one stage. Values add when a stage repeats (e.g. two
    /// table probes in one get).
    pub fn add(&mut self, stage: TraceStage, value: u64) {
        if let Some(s) = self.spans.iter_mut().find(|(st, _)| *st == stage) {
            s.1 += value;
            return;
        }
        self.spans.push((stage, value));
    }

    /// Close the trace: appends the `total_micros` stage.
    pub fn finish(mut self) -> OpTrace {
        let total = self.started.elapsed().as_micros() as u64;
        self.spans.push((TraceStage::Total, total));
        OpTrace {
            trace_id: self.trace_id,
            op: self.op,
            spans: self.spans,
        }
    }
}

/// A completed per-op trace: the stage breakdown of one traced
/// operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Fleet-unique trace id.
    pub trace_id: u64,
    /// The traced operation.
    pub op: TraceOp,
    /// `(stage, value)` pairs in recording order; `_micros` stages are
    /// wall time, the rest are counts.
    pub spans: Vec<(TraceStage, u64)>,
}

impl OpTrace {
    /// The spans as `(name, value)` pairs for wire transport.
    pub fn named_spans(&self) -> Vec<(String, u64)> {
        self.spans
            .iter()
            .map(|(s, v)| (s.name().to_string(), *v))
            .collect()
    }

    /// One-block text rendering.
    pub fn render(&self) -> String {
        let mut out = format!("trace {} op={}\n", self.trace_id, self.op.name());
        for (stage, value) in &self.spans {
            out.push_str(&format!("  {:<26} {}\n", stage.name(), value));
        }
        out
    }
}

/// Render retained traces, oldest first.
pub fn render_traces(traces: &[OpTrace]) -> String {
    let mut out = format!("# {} recent traces (newest last)\n", traces.len());
    for t in traces {
        out.push_str(&t.render());
    }
    out
}

/// One tombstone cohort: every delete committed into one memtable
/// generation of one shard, with per-stage lifecycle timestamps. All
/// tick fields are engine-clock ticks (the unit `D_th` is set in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortRecord {
    /// Owning shard (0 for a standalone engine).
    pub shard: usize,
    /// Flush epoch: which memtable generation, 0-based per shard.
    pub epoch: u64,
    /// Smallest seqno in the generation (attribution window).
    pub min_seqno: SeqNo,
    /// Largest seqno in the generation.
    pub max_seqno: SeqNo,
    /// Point deletes in the cohort.
    pub deletes: u64,
    /// Sort-key range deletes in the cohort.
    pub key_range_deletes: u64,
    /// Tick of the cohort's earliest delete — the clock `D_th` slack
    /// is measured against (conservative for every member).
    pub first_delete_tick: Tick,
    /// When the generation was sealed (None while still accepting
    /// writes).
    pub sealed_tick: Option<Tick>,
    /// When the generation reached an L0 table.
    pub flushed_tick: Option<Tick>,
    /// Deepest level cohort members have compacted into, with the
    /// tick they arrived.
    pub deepest_level: Option<(u64, Tick)>,
    /// Member tombstones resolved so far (purged or superseded).
    pub resolved: u64,
    /// When the last member tombstone resolved.
    pub purged_tick: Option<Tick>,
    /// Vlog segments holding dead extents attributed to this cohort
    /// and not yet reclaimed.
    pub vlog_pending: BTreeSet<u64>,
    /// When the last attributed vlog extent was reclaimed.
    pub vlog_reclaimed_tick: Option<Tick>,
}

impl CohortRecord {
    /// Total member deletes.
    pub fn total_deletes(&self) -> u64 {
        self.deletes + self.key_range_deletes
    }

    /// Whether every member tombstone has resolved and every
    /// attributed vlog extent was reclaimed.
    pub fn is_resolved(&self) -> bool {
        self.resolved >= self.total_deletes() && self.vlog_pending.is_empty()
    }

    /// The tick the cohort fully resolved at (None while unresolved):
    /// the later of final purge and final vlog reclaim.
    pub fn resolve_tick(&self) -> Option<Tick> {
        if !self.is_resolved() {
            return None;
        }
        match (self.purged_tick, self.vlog_reclaimed_tick) {
            (Some(p), Some(v)) => Some(p.max(v)),
            (p, v) => p.or(v),
        }
    }

    /// Age of the cohort's oldest delete: resolved cohorts measure to
    /// their resolve tick, unresolved ones to `now` (still growing).
    pub fn age(&self, now: Tick) -> Tick {
        self.resolve_tick()
            .unwrap_or(now)
            .saturating_sub(self.first_delete_tick)
    }

    /// Whether the cohort's oldest delete outlived `d_th`.
    pub fn violates(&self, now: Tick, d_th: Tick) -> bool {
        self.age(now) > d_th
    }

    /// Merge-less one-line rendering for the audit report.
    pub fn render(&self, now: Tick, d_th: Option<Tick>) -> String {
        let mut line = format!(
            "shard {} epoch {}: deletes={} krt={} first_tick={}",
            self.shard, self.epoch, self.deletes, self.key_range_deletes, self.first_delete_tick
        );
        let rel = |t: Tick| t.saturating_sub(self.first_delete_tick);
        match self.sealed_tick {
            Some(t) => line.push_str(&format!(" sealed=+{}", rel(t))),
            None => line.push_str(" sealed=-"),
        }
        if let Some(t) = self.flushed_tick {
            line.push_str(&format!(" flushed=+{}", rel(t)));
        }
        if let Some((level, t)) = self.deepest_level {
            line.push_str(&format!(" deepest=L{}@+{}", level, rel(t)));
        }
        match self.purged_tick {
            Some(t) if self.resolved >= self.total_deletes() => {
                line.push_str(&format!(" purged=+{}", rel(t)))
            }
            _ => line.push_str(&format!(
                " purged={}/{}",
                self.resolved,
                self.total_deletes()
            )),
        }
        if !self.vlog_pending.is_empty() {
            line.push_str(&format!(" vlog_pending={}", self.vlog_pending.len()));
        } else if let Some(t) = self.vlog_reclaimed_tick {
            line.push_str(&format!(" vlog_reclaimed=+{}", rel(t)));
        }
        match d_th {
            Some(d) => {
                let age = self.age(now);
                if age > d {
                    line.push_str(&format!(" age={} VIOLATION (> D_th {})", age, d));
                } else if self.is_resolved() {
                    line.push_str(&format!(" slack={} OK", d - age));
                } else {
                    line.push_str(&format!(" age={} unresolved (slack {})", age, d - age));
                }
            }
            None => line.push_str(&format!(" age={}", self.age(now))),
        }
        line
    }
}

/// The per-shard delete-lifecycle ledger. See the module docs for the
/// cohort model; the engine keeps it in its state, so every mutation
/// happens under the state write lock. It holds the history of sealed
/// generations only: the open one is read from the active memtable
/// when a snapshot is taken.
#[derive(Debug)]
pub struct DeleteLedger {
    shard: usize,
    /// The epoch the active generation seals as.
    next_epoch: u64,
    /// Every tracked cohort by its `max_seqno`. Generations partition
    /// the seqno space in epoch order, so the cohort holding a seqno is
    /// the first one whose `max_seqno` reaches it.
    cohorts: BTreeMap<SeqNo, CohortRecord>,
}

impl DeleteLedger {
    /// An empty ledger for `shard`.
    pub fn new(shard: usize) -> DeleteLedger {
        DeleteLedger {
            shard,
            next_epoch: 0,
            cohorts: BTreeMap::new(),
        }
    }

    /// The deletes buffered in `mem` as cohort `epoch`, before its seal:
    /// `None` while it holds no delete.
    fn buffered(&self, epoch: u64, mem: &Memtable) -> Option<CohortRecord> {
        let s = mem.stats();
        Some(CohortRecord {
            shard: self.shard,
            epoch,
            min_seqno: mem.min_seqno()?,
            max_seqno: mem.max_seqno()?,
            deletes: s.tombstones as u64,
            key_range_deletes: s.range_tombstones as u64,
            first_delete_tick: min_tick(s.oldest_tombstone_tick, s.oldest_range_tombstone_tick)?,
            sealed_tick: None,
            flushed_tick: None,
            deepest_level: None,
            resolved: 0,
            purged_tick: None,
            vlog_pending: BTreeSet::new(),
            vlog_reclaimed_tick: None,
        })
    }

    /// The open generation was sealed holding `mem`. It takes the next
    /// epoch, and becomes a cohort if it carried deletes.
    pub fn seal(&mut self, mem: &Memtable, now: Tick) {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        if let Some(open) = self.buffered(epoch, mem) {
            let sealed = CohortRecord {
                sealed_tick: Some(now),
                ..open
            };
            self.cohorts.insert(sealed.max_seqno, sealed);
            self.evict_resolved();
        }
    }

    /// The generation whose largest seqno is `max_seqno` finished
    /// flushing (nothing changes if it is untracked).
    pub fn flushed(&mut self, max_seqno: SeqNo, now: Tick) {
        if let Some(c) = self.cohorts.get_mut(&max_seqno) {
            c.flushed_tick = Some(now);
        }
    }

    /// A compaction moved entries from files spanning the given seqno
    /// windows into `output_level`. Stamps every cohort whose seqno
    /// range intersects an input window and whose deepest level is
    /// shallower than the output.
    pub fn entered_level(
        &mut self,
        input_windows: &[(SeqNo, SeqNo)],
        output_level: u64,
        now: Tick,
    ) {
        for c in self.cohorts.values_mut() {
            let touched = input_windows
                .iter()
                .any(|&(lo, hi)| lo <= c.max_seqno && c.min_seqno <= hi);
            if touched
                && c.deepest_level
                    .is_none_or(|(level, _)| level < output_level)
            {
                c.deepest_level = Some((output_level, now));
            }
        }
    }

    /// One member tombstone (seqno `seqno`) was purged or superseded.
    pub fn tombstone_resolved(&mut self, seqno: SeqNo, now: Tick) {
        if let Some(c) = self.cohort_of(seqno) {
            c.resolved += 1;
            if c.resolved >= c.total_deletes() {
                c.purged_tick.get_or_insert(now);
            }
        }
    }

    /// A vlog extent killed by the delete with seqno `seqno` went dead
    /// in `segment`: that delete's cohort now waits on the segment's
    /// reclaim.
    pub fn vlog_dead(&mut self, segment: u64, seqno: SeqNo) {
        if let Some(c) = self.cohort_of(seqno) {
            c.vlog_pending.insert(segment);
        }
    }

    /// The cohort whose seqno window holds `seqno`, if it is tracked.
    fn cohort_of(&mut self, seqno: SeqNo) -> Option<&mut CohortRecord> {
        let (_, c) = self.cohorts.range_mut(seqno..).next()?;
        Some(c).filter(|c| c.min_seqno <= seqno)
    }

    /// `segment`'s file was deleted: every cohort waiting on it is
    /// released.
    pub fn vlog_reclaimed(&mut self, segment: u64, now: Tick) {
        for c in self.cohorts.values_mut() {
            if c.vlog_pending.remove(&segment) {
                c.vlog_reclaimed_tick = Some(c.vlog_reclaimed_tick.map_or(now, |t| t.max(now)));
            }
        }
    }

    /// Every cohort, sealed epochs first, plus the open generation,
    /// buffered in the active memtable `open`, if it holds deletes.
    pub fn snapshot(&self, open: &Memtable) -> Vec<CohortRecord> {
        let mut out: Vec<CohortRecord> = self.cohorts.values().cloned().collect();
        out.extend(self.buffered(self.next_epoch, open));
        out
    }

    fn evict_resolved(&mut self) {
        while self.cohorts.len() > COHORT_RETENTION {
            let victim = self.cohorts.iter().find(|(_, c)| c.is_resolved());
            match victim.map(|(&max_seqno, _)| max_seqno) {
                Some(max_seqno) => {
                    self.cohorts.remove(&max_seqno);
                }
                // Nothing resolved to evict: keep everything — an
                // unresolved cohort is exactly what an audit must see.
                None => break,
            }
        }
    }
}

/// The compliance report behind `acheron audit`: the ledger's cohorts
/// plus the live gauges' unresolved delete-family ages, judged
/// against `D_th`.
#[derive(Debug, Clone, Default)]
pub struct DeleteAudit {
    /// Clock tick the audit was taken at.
    pub now: Tick,
    /// The FADE threshold to judge against (None = report only).
    pub d_th: Option<Tick>,
    /// Cohort records, every shard, epoch order within a shard.
    pub cohorts: Vec<CohortRecord>,
    /// Birth tick of the oldest live point/sort-key-range tombstone
    /// (from the gauges; covers state predating this process).
    pub oldest_live_tombstone_tick: Option<Tick>,
    /// Stamp tick of the oldest dead, unreclaimed vlog extent.
    pub oldest_vlog_dead_tick: Option<Tick>,
}

impl DeleteAudit {
    /// The audit of a fleet from its shards' audits: cohorts in (shard,
    /// epoch) order, each delete family's oldest tick, judged at the
    /// latest `now` (shards share one clock). Panics on no audits.
    pub fn fleet(shards: impl IntoIterator<Item = DeleteAudit>) -> DeleteAudit {
        let mut fleet = (shards.into_iter())
            .reduce(|mut fleet, a| {
                fleet.now = fleet.now.max(a.now);
                fleet.cohorts.extend(a.cohorts);
                fleet.oldest_live_tombstone_tick = min_tick(
                    fleet.oldest_live_tombstone_tick,
                    a.oldest_live_tombstone_tick,
                );
                fleet.oldest_vlog_dead_tick =
                    min_tick(fleet.oldest_vlog_dead_tick, a.oldest_vlog_dead_tick);
                fleet
            })
            .expect("a fleet has at least one shard");
        fleet.cohorts.sort_by_key(|c| (c.shard, c.epoch));
        fleet
    }

    /// Cohorts whose oldest delete outlived `D_th`.
    pub fn violating_cohorts(&self) -> Vec<&CohortRecord> {
        match self.d_th {
            Some(d) => self
                .cohorts
                .iter()
                .filter(|c| c.violates(self.now, d))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Whether the audit passes: no cohort and no gauge-level delete
    /// family is older than `D_th`. Without a threshold the audit
    /// always passes (it is a report, not a judgment).
    pub fn ok(&self) -> bool {
        let Some(d) = self.d_th else { return true };
        if !self.violating_cohorts().is_empty() {
            return false;
        }
        for t0 in [self.oldest_live_tombstone_tick, self.oldest_vlog_dead_tick]
            .into_iter()
            .flatten()
        {
            if self.now.saturating_sub(t0) > d {
                return false;
            }
        }
        true
    }

    /// Full text report; the final line is `status: OK …` or
    /// `status: VIOLATION …` naming the worst offender.
    pub fn render(&self) -> String {
        let mut out = match self.d_th {
            Some(d) => format!(
                "# delete-lifecycle audit @ tick {}, D_th = {}\n",
                self.now, d
            ),
            None => format!(
                "# delete-lifecycle audit @ tick {} (no D_th set)\n",
                self.now
            ),
        };
        match self.oldest_live_tombstone_tick {
            Some(t0) => out.push_str(&format!(
                "unresolved tombstone age (point + key-range): {}\n",
                self.now.saturating_sub(t0)
            )),
            None => out.push_str("unresolved tombstone age (point + key-range): none live\n"),
        }
        match self.oldest_vlog_dead_tick {
            Some(t0) => out.push_str(&format!(
                "unreclaimed vlog extent age: {}\n",
                self.now.saturating_sub(t0)
            )),
            None => out.push_str("unreclaimed vlog extent age: none dead\n"),
        }
        if self.cohorts.is_empty() {
            out.push_str("no tombstone cohorts recorded this process lifetime\n");
        }
        for c in &self.cohorts {
            out.push_str(&c.render(self.now, self.d_th));
            out.push('\n');
        }
        let violators = self.violating_cohorts();
        if self.ok() {
            out.push_str(&format!("status: OK ({} cohorts)\n", self.cohorts.len()));
        } else if let Some(worst) = violators.iter().max_by_key(|c| c.age(self.now)) {
            out.push_str(&format!(
                "status: VIOLATION — cohort shard={} epoch={} age={} exceeds D_th={}\n",
                worst.shard,
                worst.epoch,
                worst.age(self.now),
                self.d_th.unwrap_or(0)
            ));
        } else {
            // Gauge-level violation with no offending cohort tracked
            // (state predating this process).
            out.push_str(&format!(
                "status: VIOLATION — unresolved delete age exceeds D_th={}\n",
                self.d_th.unwrap_or(0)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_buf_accumulates_and_finishes_with_total() {
        let mut buf = TraceBuf::new(1, TraceOp::Get);
        buf.add(TraceStage::TableProbes, 1);
        buf.add(TraceStage::TableProbes, 2);
        buf.add(TraceStage::ViewClone, 5);
        let trace = buf.finish();
        assert_eq!(
            trace.spans[0],
            (TraceStage::TableProbes, 3),
            "repeat stages accumulate"
        );
        assert_eq!(trace.spans.last().unwrap().0, TraceStage::Total);
    }

    /// A generation over seqnos `[lo, hi]`: puts at both ends, and
    /// between them `point` point deletes and `key_range` sort-key range
    /// deletes, issued from tick `tick` on.
    fn generation(lo: SeqNo, hi: SeqNo, point: u64, key_range: u64, tick: Tick) -> Memtable {
        use acheron_types::{Entry, KeyRangeTombstone};
        assert!(lo + point + key_range < hi);
        let mem = Memtable::new();
        mem.insert(Entry::put(&b"lo"[..], &b"v"[..], lo, tick));
        mem.insert(Entry::put(&b"hi"[..], &b"v"[..], hi, tick));
        for i in 1..=point {
            mem.insert(Entry::tombstone(
                format!("p{i}").into_bytes(),
                lo + i,
                tick + i - 1,
            ));
        }
        for i in 1..=key_range {
            mem.add_range_tombstone(KeyRangeTombstone {
                start: format!("r{i}").into_bytes().into(),
                end: format!("s{i}").into_bytes().into(),
                seqno: lo + point + i,
                dkey: tick + point + i - 1,
            });
        }
        mem
    }

    fn full_lifecycle_ledger() -> DeleteLedger {
        let mut l = DeleteLedger::new(0);
        l.seal(&generation(10, 20, 3, 1, 100), 130);
        l.flushed(20, 140);
        l.entered_level(&[(10, 20)], 2, 200);
        l.entered_level(&[(10, 20)], 1, 210);
        l.vlog_dead(7, 12);
        // Three of four members resolved: the cohort is not yet purged.
        for (seqno, tick) in [(12, 300), (15, 310), (11, 320)] {
            l.tombstone_resolved(seqno, tick);
        }
        l
    }

    #[test]
    fn ledger_tracks_the_full_lifecycle() {
        let mut l = full_lifecycle_ledger();
        let snap = l.snapshot(&Memtable::new());
        assert_eq!(snap.len(), 1);
        let c = &snap[0];
        assert_eq!((c.deletes, c.key_range_deletes), (3, 1));
        assert_eq!((c.min_seqno, c.max_seqno), (10, 20));
        assert_eq!(c.first_delete_tick, 100);
        assert_eq!(c.sealed_tick, Some(130));
        assert_eq!(c.flushed_tick, Some(140));
        assert_eq!(
            c.deepest_level,
            Some((2, 200)),
            "a shallower output never lowers the deepest level"
        );
        assert_eq!(c.purged_tick, None, "one krt member still live");
        assert!(!c.is_resolved());
        // Fourth member resolves via the krt-purge path.
        l.tombstone_resolved(13, 330);
        // Still unresolved: the vlog extent is pending.
        let c = l.snapshot(&Memtable::new()).pop().unwrap();
        assert_eq!(c.purged_tick, Some(330));
        assert!(!c.is_resolved());
        l.vlog_reclaimed(7, 400);
        let c = l.snapshot(&Memtable::new()).pop().unwrap();
        assert!(c.is_resolved());
        assert_eq!(c.resolve_tick(), Some(400), "max of purge and reclaim");
        assert_eq!(c.age(9_999), 300, "resolved age is fixed");
        assert!(!c.violates(9_999, 300));
        assert!(c.violates(9_999, 299));
    }

    /// A resolved tombstone and a dead vlog extent find the cohort of
    /// their delete's seqno by one lookup.
    #[test]
    fn resolved_tombstones_find_their_cohort_by_seqno_range() {
        let mut l = DeleteLedger::new(0);
        let open = Memtable::new();
        // Cohorts over [10, 19], [20, 29] (delete-free, untracked),
        // [30, 39], [40, 49]: two deletes each.
        for (epoch, lo) in [10u64, 20, 30, 40].into_iter().enumerate() {
            let deletes = if epoch == 1 { 0 } else { 2 };
            l.seal(&generation(lo, lo + 9, deletes, 0, lo), lo + 5);
        }
        let epochs: Vec<u64> = l.snapshot(&open).iter().map(|c| c.epoch).collect();
        assert_eq!(epochs, [0, 2, 3]);
        for seqno in 0..60 {
            let before = l.snapshot(&open);
            l.tombstone_resolved(seqno, 100);
            l.vlog_dead(seqno, seqno);
            let holder = before
                .iter()
                .position(|c| c.min_seqno <= seqno && seqno <= c.max_seqno);
            for (i, (b, a)) in before.iter().zip(l.snapshot(&open)).enumerate() {
                let expect = b.resolved + u64::from(holder == Some(i));
                assert_eq!(a.resolved, expect, "seqno {seqno} cohort {i}");
                let waits = a.vlog_pending.contains(&seqno);
                assert_eq!(waits, holder == Some(i), "seqno {seqno} cohort {i}");
            }
        }
        let resolved: Vec<u64> = l.snapshot(&open).iter().map(|c| c.resolved).collect();
        assert_eq!(resolved, [10, 10, 10]);
    }

    #[test]
    fn delete_free_seals_are_numbered_but_untracked() {
        let mut l = DeleteLedger::new(3);
        let open = Memtable::new();
        // Generation 0, seqnos [1, 5]: no deletes.
        l.seal(&generation(1, 5, 0, 0, 10), 10);
        assert!(l.snapshot(&open).is_empty());
        // Generation 1, seqnos [6, 9]: deletes.
        l.seal(&generation(6, 9, 1, 0, 20), 30);
        // A flush names its generation by its largest seqno: the flush
        // of the delete-free one changes nothing.
        let before = l.snapshot(&open);
        l.flushed(5, 40);
        assert_eq!(l.snapshot(&open), before);
        l.flushed(9, 50);
        let snap = l.snapshot(&open);
        assert_eq!(snap.len(), 1);
        let c = &snap[0];
        assert_eq!((c.shard, c.epoch, c.flushed_tick), (3, 1, Some(50)));
    }

    #[test]
    fn open_generation_is_read_from_the_active_memtable() {
        let l = DeleteLedger::new(0);
        assert!(l.snapshot(&generation(1, 9, 0, 0, 70)).is_empty());
        let snap = l.snapshot(&generation(1, 9, 5, 2, 77));
        assert_eq!(snap.len(), 1);
        assert_eq!(
            (snap[0].epoch, snap[0].deletes, snap[0].key_range_deletes),
            (0, 5, 2)
        );
        assert_eq!(snap[0].sealed_tick, None);
        assert_eq!(snap[0].first_delete_tick, 77);
        assert!(!snap[0].is_resolved());
    }

    #[test]
    fn audit_judges_cohorts_and_gauge_families() {
        let mut l = full_lifecycle_ledger();
        l.tombstone_resolved(13, 330);
        l.vlog_reclaimed(7, 350);
        let audit = DeleteAudit {
            now: 1_000,
            d_th: Some(500),
            cohorts: l.snapshot(&Memtable::new()),
            oldest_live_tombstone_tick: None,
            oldest_vlog_dead_tick: None,
        };
        assert!(audit.ok(), "{}", audit.render());
        assert!(audit.render().contains("status: OK (1 cohorts)"));

        // Injected overdue cohort: resolved too late.
        let mut late = audit.clone();
        late.cohorts[0].purged_tick = Some(900);
        assert!(!late.ok());
        let report = late.render();
        assert!(
            report.contains("status: VIOLATION — cohort shard=0 epoch=0"),
            "{report}"
        );

        // Gauge-level violation without a tracked cohort.
        let stale = DeleteAudit {
            now: 1_000,
            d_th: Some(100),
            cohorts: Vec::new(),
            oldest_live_tombstone_tick: Some(10),
            oldest_vlog_dead_tick: None,
        };
        assert!(!stale.ok());
        assert!(stale.render().contains("status: VIOLATION"));

        // No threshold: report only, never a violation.
        let report_only = DeleteAudit {
            d_th: None,
            ..late.clone()
        };
        assert!(report_only.ok());
    }

    #[test]
    fn eviction_drops_resolved_cohorts_only() {
        let mut l = DeleteLedger::new(0);
        for i in 0..(COHORT_RETENTION as u64 + 8) {
            let lo = i * 100;
            l.seal(&generation(lo, lo + 99, 1, 0, i * 10), i * 10 + 1);
            l.flushed(lo + 99, i * 10 + 2);
            // Resolve all but the last few so eviction has victims.
            if i < COHORT_RETENTION as u64 {
                l.tombstone_resolved(lo, i * 10 + 3);
            }
        }
        let snap = l.snapshot(&Memtable::new());
        assert!(snap.len() <= COHORT_RETENTION);
        // The unresolved tail always survives.
        assert!(snap.iter().filter(|c| !c.is_resolved()).count() >= 8);
    }

    #[test]
    fn render_traces_lists_each_trace() {
        let mut buf = TraceBuf::new(1, TraceOp::Put);
        buf.add(TraceStage::CommitQueueWait, 3);
        let text = render_traces(&[buf.finish()]);
        assert!(text.contains("# 1 recent traces"), "{text}");
        assert!(text.contains("op=put"), "{text}");
        assert!(text.contains("commit_queue_wait_micros"), "{text}");
        assert!(text.contains("total_micros"), "{text}");
    }
}
