//! Per-operation trace spans and the delete-lifecycle ledger.
//!
//! Two linked subsystems turn the flight recorder ([`crate::obs`])
//! into an *attribution* layer:
//!
//! * **Trace spans** decompose one sampled operation's latency into
//!   named stages (commit-queue wait, WAL fsync, memtable insert,
//!   bloom prescreens, cache hits vs. misses, vlog deref, …). The
//!   sampler is a power-of-two mask over a relaxed op counter, so
//!   with sampling off the entire subsystem costs one predictable
//!   branch per operation — the ≤3% overhead bound measured by E17
//!   still holds with tracing compiled in. Sampled spans are emitted
//!   as [`Event::TraceSpan`](crate::obs::Event::TraceSpan) ring
//!   events and retained as whole [`OpTrace`]s for the `traces` wire
//!   command.
//! * **The delete-lifecycle ledger** records tombstone *cohorts* —
//!   all deletes committed into one memtable generation, keyed by
//!   (shard, flush epoch) — and stamps each stage of their journey:
//!   sealed → flushed → entered level *i* → purged → vlog extent
//!   reclaimed. Cohorts, not per-tombstone records, keep the ledger
//!   O(memtable generations) instead of O(deletes): FADE's bound is
//!   per-tombstone, but every tombstone in a generation shares the
//!   flush epoch and level schedule, so the cohort's *first* delete
//!   tick bounds every member's slack conservatively. A cohort owns
//!   the deletes whose seqnos its generation spans, so a resolved
//!   tombstone and a dead value-log extent (charged by the compaction
//!   to the delete that killed it) both find their cohort by seqno.
//!   The ledger lives in the engine's state beside the value-log
//!   accounting and changes only under the state write lock. The
//!   engine feeds it through one call (`DbCore::advance_ledger`), made
//!   by each site a stage completes at — commit, seal, flush install,
//!   compaction install, value-log reclaim — which also logs the
//!   stage's `CohortAdvanced` events and accounts each resolved delete
//!   against `D_th`.
//!
//! [`DeleteAudit`] folds the ledger and the live gauges into the
//! compliance report served by `acheron audit`: per-cohort slack
//! against `D_th`, nonzero exit on violation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use acheron_types::{SeqNo, Tick};
use parking_lot::Mutex;

use super::{coded_enum, min_tick};

/// Whole traces retained for the `traces` command (newest wins).
const RECENT_TRACES: usize = 64;

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
        /// A multi-op write batch.
        Write = 3 => "write",
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

coded_enum! {
    /// A lifecycle milestone carried by
    /// [`Event::CohortAdvanced`](crate::obs::Event::CohortAdvanced).
    pub enum CohortStage {
        /// The cohort's memtable generation was sealed.
        Sealed = 0 => "sealed",
        /// The generation reached an L0 table.
        Flushed = 1 => "flushed",
        /// A compaction moved cohort members into a deeper level.
        EnteredLevel = 2 => "entered_level",
        /// Every member tombstone has been purged or superseded.
        Purged = 3 => "purged",
        /// The last dead vlog extent attributed to the cohort was
        /// reclaimed.
        VlogReclaimed = 4 => "vlog_reclaimed",
    }
}

/// An in-flight trace: stages accumulate here while the operation
/// runs, off any shared state, then [`Tracer::record`] publishes the
/// finished [`OpTrace`].
#[derive(Debug)]
pub struct TraceBuf {
    /// Fleet-unique trace id (propagated over the wire).
    pub trace_id: u64,
    op: TraceOp,
    started: Instant,
    spans: Vec<(TraceStage, u64)>,
}

impl TraceBuf {
    fn new(trace_id: u64, op: TraceOp) -> TraceBuf {
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

    /// Microseconds since the trace began (for call-site span timing).
    pub fn elapsed_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Close the trace: appends the `total_micros` stage.
    pub fn finish(mut self) -> OpTrace {
        let total = self.elapsed_micros();
        self.spans.push((TraceStage::Total, total));
        OpTrace {
            trace_id: self.trace_id,
            op: self.op,
            spans: self.spans,
        }
    }
}

/// A completed per-op trace: the stage breakdown of one sampled (or
/// wire-requested) operation.
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

/// The per-engine trace sampler and retention buffer.
///
/// Sampling is a power-of-two mask over a relaxed op counter: with
/// sampling disabled, `sample` is a single untaken branch; enabled, it
/// costs one relaxed `fetch_add` per op and allocates a [`TraceBuf`]
/// only for the one-in-`2^k` ops that match.
pub struct Tracer {
    enabled: bool,
    mask: u64,
    ops: AtomicU64,
    ids: Arc<AtomicU64>,
    recent: Mutex<VecDeque<OpTrace>>,
}

impl Tracer {
    /// A tracer sampling one in `sample_every` ops (0 = off;
    /// `sample_every` must be a power of two, enforced by
    /// `DbOptions::validate`). `ids` is the trace-id allocator —
    /// shared across a sharded fleet so ids are fleet-unique.
    pub fn new(sample_every: u64, ids: Arc<AtomicU64>) -> Tracer {
        Tracer {
            enabled: sample_every > 0,
            mask: sample_every.wrapping_sub(1),
            ops: AtomicU64::new(0),
            ids,
            recent: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether sampling is enabled at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Count one op; returns a trace buffer iff this op is sampled.
    pub fn sample(&self, op: TraceOp) -> Option<TraceBuf> {
        if !self.enabled {
            return None;
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        if n & self.mask != 0 {
            return None;
        }
        Some(self.begin(op))
    }

    /// Start an unconditionally traced op (wire-requested traces
    /// bypass the sampler).
    pub fn begin(&self, op: TraceOp) -> TraceBuf {
        TraceBuf::new(self.ids.fetch_add(1, Ordering::Relaxed), op)
    }

    /// Publish a finished trace into the retention buffer.
    pub fn record(&self, trace: OpTrace) {
        let mut recent = self.recent.lock();
        if recent.len() >= RECENT_TRACES {
            recent.pop_front();
        }
        recent.push_back(trace);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<OpTrace> {
        self.recent.lock().iter().cloned().collect()
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

/// Deletes accumulated in the active memtable generation, not yet
/// sealed into a cohort.
#[derive(Debug, Clone, Default)]
struct OpenCohort {
    deletes: u64,
    key_range_deletes: u64,
    first_tick: Option<Tick>,
}

impl OpenCohort {
    /// The generation's record as cohort `epoch` of `shard`, before its
    /// seal: `None` while it carries no deletes.
    fn unsealed(&self, shard: usize, epoch: u64) -> Option<CohortRecord> {
        Some(CohortRecord {
            shard,
            epoch,
            min_seqno: 0,
            max_seqno: SeqNo::MAX,
            deletes: self.deletes,
            key_range_deletes: self.key_range_deletes,
            first_delete_tick: self.first_tick?,
            sealed_tick: None,
            flushed_tick: None,
            deepest_level: None,
            resolved: 0,
            purged_tick: None,
            vlog_pending: BTreeSet::new(),
            vlog_reclaimed_tick: None,
        })
    }
}

/// The per-shard delete-lifecycle ledger. See the module docs for the
/// cohort model; the engine keeps it in its state, so every mutation
/// happens under the state write lock.
#[derive(Debug)]
pub struct DeleteLedger {
    shard: usize,
    open: OpenCohort,
    next_epoch: u64,
    /// Epochs sealed but not yet flushed, in seal order. Every seal
    /// pushes (even delete-free ones) because flushes pop sealed
    /// memtables FIFO — the queue keeps epochs aligned with flush
    /// completions.
    pending_flush: VecDeque<u64>,
    cohorts: BTreeMap<u64, CohortRecord>,
    /// `max_seqno` → epoch of every cohort in `cohorts`. Generations
    /// partition the seqno space in epoch order, so the cohort holding
    /// a seqno is the first one whose `max_seqno` reaches it.
    by_max_seqno: BTreeMap<SeqNo, u64>,
}

impl DeleteLedger {
    /// An empty ledger for `shard`.
    pub fn new(shard: usize) -> DeleteLedger {
        DeleteLedger {
            shard,
            open: OpenCohort::default(),
            next_epoch: 0,
            pending_flush: VecDeque::new(),
            cohorts: BTreeMap::new(),
            by_max_seqno: BTreeMap::new(),
        }
    }

    /// Record deletes committed into the active generation at `tick`.
    pub fn note_deletes(&mut self, point: u64, key_range: u64, tick: Tick) {
        if point == 0 && key_range == 0 {
            return;
        }
        self.open.deletes += point;
        self.open.key_range_deletes += key_range;
        self.open.first_tick = min_tick(self.open.first_tick, Some(tick));
    }

    /// The active generation was sealed covering `[min_seqno,
    /// max_seqno]`. Returns the cohort's epoch if it carried deletes.
    pub fn seal(&mut self, min_seqno: SeqNo, max_seqno: SeqNo, now: Tick) -> Option<u64> {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.pending_flush.push_back(epoch);
        let open = std::mem::take(&mut self.open).unsealed(self.shard, epoch)?;
        self.by_max_seqno.insert(max_seqno, epoch);
        let sealed = CohortRecord {
            min_seqno,
            max_seqno,
            sealed_tick: Some(now),
            ..open
        };
        self.cohorts.insert(epoch, sealed);
        self.evict_resolved();
        Some(epoch)
    }

    /// The oldest sealed generation finished flushing. Returns the
    /// flushed cohort's epoch if tracked.
    pub fn flushed(&mut self, now: Tick) -> Option<u64> {
        let epoch = self.pending_flush.pop_front()?;
        let c = self.cohorts.get_mut(&epoch)?;
        c.flushed_tick = Some(now);
        Some(epoch)
    }

    /// A compaction moved entries from files spanning the given seqno
    /// windows into `output_level`. Stamps every cohort whose seqno
    /// range intersects an input window and whose deepest level is
    /// shallower than the output; returns the epochs that deepened.
    pub fn entered_level(
        &mut self,
        input_windows: &[(SeqNo, SeqNo)],
        output_level: u64,
        now: Tick,
    ) -> Vec<u64> {
        let mut deepened = Vec::new();
        for c in self.cohorts.values_mut() {
            let touched = input_windows
                .iter()
                .any(|&(lo, hi)| lo <= c.max_seqno && c.min_seqno <= hi);
            if !touched {
                continue;
            }
            match c.deepest_level {
                Some((level, _)) if level >= output_level => {}
                _ => {
                    c.deepest_level = Some((output_level, now));
                    deepened.push(c.epoch);
                }
            }
        }
        deepened
    }

    /// One member tombstone (seqno `seqno`) was purged or superseded.
    /// Returns the epoch of a cohort that just fully purged.
    pub fn tombstone_resolved(&mut self, seqno: SeqNo, now: Tick) -> Option<u64> {
        let c = self.cohort_of(seqno)?;
        c.resolved += 1;
        if c.resolved >= c.total_deletes() && c.purged_tick.is_none() {
            c.purged_tick = Some(now);
            return Some(c.epoch);
        }
        None
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
        let (_, epoch) = self.by_max_seqno.range(seqno..).next()?;
        self.cohorts.get_mut(epoch).filter(|c| c.min_seqno <= seqno)
    }

    /// `segment`'s file was deleted: every cohort waiting on it is
    /// released. Returns epochs that just fully resolved their vlog
    /// obligations.
    pub fn vlog_reclaimed(&mut self, segment: u64, now: Tick) -> Vec<u64> {
        let mut done = Vec::new();
        for c in self.cohorts.values_mut() {
            if c.vlog_pending.remove(&segment) {
                c.vlog_reclaimed_tick = Some(c.vlog_reclaimed_tick.map_or(now, |t| t.max(now)));
                if c.vlog_pending.is_empty() {
                    done.push(c.epoch);
                }
            }
        }
        done
    }

    /// Every cohort, sealed epochs first, plus the open (unsealed)
    /// generation if it already carries deletes.
    pub fn snapshot(&self) -> Vec<CohortRecord> {
        let mut out: Vec<CohortRecord> = self.cohorts.values().cloned().collect();
        out.extend(self.open.unsealed(self.shard, self.next_epoch));
        out
    }

    fn evict_resolved(&mut self) {
        while self.cohorts.len() > COHORT_RETENTION {
            let victim = self
                .cohorts
                .iter()
                .find(|(_, c)| c.is_resolved())
                .map(|(&e, c)| (e, c.max_seqno));
            match victim {
                Some((e, max_seqno)) => {
                    self.cohorts.remove(&e);
                    self.by_max_seqno.remove(&max_seqno);
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

    fn tracer(every: u64) -> Tracer {
        Tracer::new(every, Arc::new(AtomicU64::new(0)))
    }

    #[test]
    fn sampler_off_is_never_hit() {
        let t = tracer(0);
        assert!(!t.enabled());
        for _ in 0..100 {
            assert!(t.sample(TraceOp::Put).is_none());
        }
    }

    #[test]
    fn sampler_every_power_of_two() {
        let t = tracer(4);
        let hits = (0..32).filter(|_| t.sample(TraceOp::Get).is_some()).count();
        assert_eq!(hits, 8, "one in four ops sampled");
        let t1 = tracer(1);
        assert!((0..10).all(|_| t1.sample(TraceOp::Get).is_some()));
    }

    #[test]
    fn trace_ids_come_from_the_shared_allocator() {
        let ids = Arc::new(AtomicU64::new(0));
        let a = Tracer::new(1, Arc::clone(&ids));
        let b = Tracer::new(1, Arc::clone(&ids));
        let ta = a.sample(TraceOp::Put).unwrap();
        let tb = b.sample(TraceOp::Get).unwrap();
        assert_ne!(ta.trace_id, tb.trace_id, "fleet-unique ids");
    }

    #[test]
    fn trace_buf_accumulates_and_finishes_with_total() {
        let t = tracer(1);
        let mut buf = t.sample(TraceOp::Get).unwrap();
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
        t.record(trace.clone());
        assert_eq!(t.recent(), vec![trace]);
    }

    #[test]
    fn recent_buffer_keeps_newest() {
        let t = tracer(1);
        for _ in 0..(RECENT_TRACES + 10) {
            t.record(t.sample(TraceOp::Put).unwrap().finish());
        }
        let recent = t.recent();
        assert_eq!(recent.len(), RECENT_TRACES);
        assert!(recent[0].trace_id < recent.last().unwrap().trace_id);
    }

    fn full_lifecycle_ledger() -> DeleteLedger {
        let mut l = DeleteLedger::new(0);
        l.note_deletes(2, 1, 100);
        l.note_deletes(1, 0, 120);
        let epoch = l.seal(10, 20, 130).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(l.flushed(140), Some(0));
        assert_eq!(l.entered_level(&[(10, 20)], 2, 200), vec![0]);
        assert!(
            l.entered_level(&[(10, 20)], 1, 210).is_empty(),
            "shallower outputs never regress the deepest level"
        );
        l.vlog_dead(7, 12);
        assert_eq!(l.tombstone_resolved(12, 300), None);
        assert_eq!(l.tombstone_resolved(15, 310), None);
        // Three of four members resolved: the cohort is not yet purged.
        assert_eq!(l.tombstone_resolved(11, 320), None);
        l
    }

    #[test]
    fn ledger_tracks_the_full_lifecycle() {
        let mut l = full_lifecycle_ledger();
        let snap = l.snapshot();
        assert_eq!(snap.len(), 1);
        let c = &snap[0];
        assert_eq!((c.deletes, c.key_range_deletes), (3, 1));
        assert_eq!(c.first_delete_tick, 100);
        assert_eq!(c.sealed_tick, Some(130));
        assert_eq!(c.flushed_tick, Some(140));
        assert_eq!(c.deepest_level, Some((2, 200)));
        assert_eq!(c.purged_tick, None, "one krt member still live");
        assert!(!c.is_resolved());
        // Fourth member resolves via the krt-purge path.
        assert_eq!(l.tombstone_resolved(13, 330), Some(0));
        // Still unresolved: the vlog extent is pending.
        let c = l.snapshot().pop().unwrap();
        assert_eq!(c.purged_tick, Some(330));
        assert!(!c.is_resolved());
        assert_eq!(l.vlog_reclaimed(7, 400), vec![0]);
        let c = l.snapshot().pop().unwrap();
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
        // Cohorts over [10, 19], [20, 29] (delete-free, untracked),
        // [30, 39], [40, 49]: two deletes each.
        for (epoch, lo) in [10u64, 20, 30, 40].into_iter().enumerate() {
            if epoch != 1 {
                l.note_deletes(2, 0, lo);
            }
            l.seal(lo, lo + 9, lo + 5);
        }
        for seqno in 0..60 {
            let before = l.snapshot();
            l.tombstone_resolved(seqno, 100);
            l.vlog_dead(seqno, seqno);
            let holder = before
                .iter()
                .position(|c| c.min_seqno <= seqno && seqno <= c.max_seqno);
            for (i, (b, a)) in before.iter().zip(l.snapshot()).enumerate() {
                let expect = b.resolved + u64::from(holder == Some(i));
                assert_eq!(a.resolved, expect, "seqno {seqno} cohort {i}");
                let waits = a.vlog_pending.contains(&seqno);
                assert_eq!(waits, holder == Some(i), "seqno {seqno} cohort {i}");
            }
        }
        let resolved: Vec<u64> = l.snapshot().iter().map(|c| c.resolved).collect();
        assert_eq!(resolved, [10, 10, 10]);
    }

    #[test]
    fn delete_free_seals_keep_flush_alignment() {
        let mut l = DeleteLedger::new(3);
        // Generation 0: no deletes.
        assert_eq!(l.seal(1, 5, 10), None);
        // Generation 1: deletes.
        l.note_deletes(1, 0, 20);
        assert_eq!(l.seal(6, 9, 30), Some(1));
        // Flushes pop FIFO: first completes the delete-free epoch.
        assert_eq!(l.flushed(40), None);
        assert_eq!(l.flushed(50), Some(1));
        assert_eq!(l.snapshot()[0].flushed_tick, Some(50));
        assert_eq!(l.snapshot()[0].shard, 3);
    }

    #[test]
    fn open_generation_appears_in_snapshots() {
        let mut l = DeleteLedger::new(0);
        l.note_deletes(5, 0, 77);
        let snap = l.snapshot();
        assert_eq!(snap.len(), 1);
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
            cohorts: l.snapshot(),
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
            l.note_deletes(1, 0, i * 10);
            let lo = i * 100;
            l.seal(lo, lo + 99, i * 10 + 1);
            l.flushed(i * 10 + 2);
            // Resolve all but the last few so eviction has victims.
            if i < COHORT_RETENTION as u64 {
                l.tombstone_resolved(lo, i * 10 + 3);
            }
        }
        let snap = l.snapshot();
        assert!(snap.len() <= COHORT_RETENTION);
        // The unresolved tail always survives.
        assert!(snap.iter().filter(|c| !c.is_resolved()).count() >= 8);
    }

    #[test]
    fn render_traces_lists_each_trace() {
        let t = tracer(1);
        let mut buf = t.sample(TraceOp::Put).unwrap();
        buf.add(TraceStage::CommitQueueWait, 3);
        t.record(buf.finish());
        let text = render_traces(&t.recent());
        assert!(text.contains("# 1 recent traces"), "{text}");
        assert!(text.contains("op=put"), "{text}");
        assert!(text.contains("commit_queue_wait_micros"), "{text}");
        assert!(text.contains("total_micros"), "{text}");
    }
}
