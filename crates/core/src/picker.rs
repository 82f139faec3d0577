//! Compaction picking: the *trigger* and *data movement* primitives.
//!
//! Following the group's compaction taxonomy, a strategy is the product
//! of a trigger (level saturation, L0 file count, FADE TTL expiry), a
//! layout (leveling / tiering / lazy-leveling), a granularity (whole
//! level for tiering, single file + overlap for leveling), and a
//! data-movement policy (which file moves first). [`Picker::pick`]
//! inspects a [`Version`] and produces at most one [`CompactionTask`];
//! [`Picker::pick_manual`] does the same for a full manual compaction.
//! This module is the only place that builds a task.

use std::sync::Arc;

use acheron_memtable::Memtable;
use acheron_types::{SeqNo, Tick};
use bytes::Bytes;
use parking_lot::Mutex;

use crate::fade::{DueIndex, Subject, TtlSchedule};
use crate::obs::coded_enum;
use crate::options::{CompactionLayout, DbOptions, FilePickPolicy};
use crate::version::{FileMeta, Version};

coded_enum! {
    /// Why a compaction was scheduled.
    pub enum CompactionReason {
        /// L0 accumulated too many files.
        L0Saturation = 0 => "l0_saturation",
        /// A level exceeded its byte budget.
        LevelSaturation = 1 => "level_saturation",
        /// FADE: a file's oldest tombstone, or a sort-key range
        /// tombstone, outlived its level TTL.
        TtlExpired = 2 => "ttl_expired",
        /// Explicit request (tests, `Db::compact_all`).
        Manual = 3 => "manual",
    }
}

/// A unit of compaction work.
#[derive(Debug, Clone)]
pub struct CompactionTask {
    /// Input level.
    pub level: usize,
    /// Files taken from `level`.
    pub inputs: Vec<Arc<FileMeta>>,
    /// Overlapping files taken from the output level (empty for tiering,
    /// which stacks a new run instead of merging).
    pub next_level_inputs: Vec<Arc<FileMeta>>,
    /// Level the merged output lands in.
    pub output_level: usize,
    /// Run id for the output files.
    pub output_run: u64,
    /// Trigger that scheduled this task.
    pub reason: CompactionReason,
}

impl CompactionTask {
    /// All input files (both levels).
    pub fn all_inputs(&self) -> impl Iterator<Item = &Arc<FileMeta>> {
        self.inputs.iter().chain(self.next_level_inputs.iter())
    }

    /// The union user-key range of all inputs, `None` without inputs.
    pub fn key_range(&self) -> Option<(Bytes, Bytes)> {
        entry_hull(self.all_inputs())
    }

    /// Total input bytes.
    pub fn input_bytes(&self) -> u64 {
        self.all_inputs().map(|f| f.size_bytes).sum()
    }
}

/// A registered in-flight compaction: releases its claim marks when
/// passed back to [`Picker::release`]. Obtained from
/// [`Picker::pick_claimed`]; exactly one claim exists per running
/// background compaction.
#[derive(Debug)]
pub struct CompactionClaim {
    id: u64,
}

/// Claim marks for one in-flight compaction: its input file ids and its
/// user-key span. A candidate task conflicts (and is not handed out)
/// when it shares a file id or its key span overlaps — so two workers
/// never compact overlapping inputs and never install overlapping
/// outputs into the same run.
#[derive(Debug)]
struct InFlightMark {
    id: u64,
    file_ids: Vec<u64>,
    key_range: Option<(Bytes, Bytes)>,
}

/// Stateful compaction picker (per-DB; holds round-robin cursors, the
/// FADE TTL schedule, and the in-flight claim marks the background
/// executor uses to keep concurrent compactions disjoint).
pub struct Picker {
    opts: DbOptions,
    ttl: Option<TtlSchedule>,
    /// Round-robin cursor per level: the max user key compacted last.
    cursors: Mutex<Vec<Option<Bytes>>>,
    /// `(next claim id, marks of running compactions)`.
    in_flight: Mutex<(u64, Vec<InFlightMark>)>,
    /// Output files of the within-bottom TTL rewrites that purged and
    /// dropped nothing (see [`Picker::note_futile_rewrite`]).
    futile: Mutex<FutileRewrites>,
}

/// The memo of futile within-bottom TTL rewrites: their output files,
/// which the TTL trigger passes over while rewriting them again would
/// change nothing.
#[derive(Debug, Default)]
struct FutileRewrites {
    /// The tick of the rewrites in `unpinned`.
    tick: Tick,
    /// Outputs of futile rewrites at `tick` that no snapshot pinned.
    unpinned: Vec<u64>,
    /// Outputs of futile rewrites that a snapshot pinned, each with the
    /// newest snapshot live at the rewrite.
    pinned: Vec<(u64, SeqNo)>,
}

impl FutileRewrites {
    /// True if rewriting file `id` at tick `now` would change nothing.
    fn skips(&self, id: u64, now: Tick) -> bool {
        (self.tick == now && self.unpinned.contains(&id))
            || self.pinned.iter().any(|&(file, _)| file == id)
    }
}

impl Picker {
    /// Build a picker for the given options.
    pub fn new(opts: &DbOptions) -> Picker {
        let ttl = opts.fade.as_ref().map(|_| TtlSchedule::new(opts));
        Picker {
            opts: opts.clone(),
            ttl,
            cursors: Mutex::new(vec![None; opts.max_levels]),
            in_flight: Mutex::new((0, Vec::new())),
            futile: Mutex::default(),
        }
    }

    /// Record that a TTL rewrite within the bottom level at tick `now`
    /// changed nothing and produced `outputs`. The TTL trigger then
    /// passes over those files for as long as what kept the rewrite from
    /// purging is still there:
    ///
    /// - `pin`, the newest snapshot live at the rewrite, if any: until
    ///   it is released ([`Picker::snapshot_released`]). A bottom entry
    ///   is kept for a snapshot iff some snapshot reads it or an older
    ///   version of its key, so while the newest one lives no tombstone
    ///   the rewrite kept can purge (releasing an older one can at most
    ///   free shadowed versions, which the TTL trigger is not for).
    /// - otherwise, until the clock moves. The outputs of every other
    ///   unpinned futile rewrite at the same tick are passed over too:
    ///   rewriting them again would produce the same bytes, and an
    ///   inline maintenance pass, inside which the logical clock stands
    ///   still, would never end.
    ///
    /// The caller must hold whatever orders this against the release of
    /// `pin`, so that a pin is never recorded after its release.
    pub(crate) fn note_futile_rewrite(
        &self,
        now: Tick,
        pin: Option<SeqNo>,
        outputs: impl IntoIterator<Item = u64>,
    ) {
        let mut futile = self.futile.lock();
        match pin {
            Some(pin) => futile
                .pinned
                .extend(outputs.into_iter().map(|id| (id, pin))),
            None => {
                if futile.tick != now {
                    futile.tick = now;
                    futile.unpinned.clear();
                }
                futile.unpinned.extend(outputs);
            }
        }
    }

    /// The last registration of snapshot `seqno` is gone: the files its
    /// futile rewrites left behind may purge now.
    pub(crate) fn snapshot_released(&self, seqno: SeqNo) {
        self.futile.lock().pinned.retain(|&(_, pin)| pin != seqno);
    }

    /// The TTL schedule, if FADE is enabled.
    pub fn ttl_schedule(&self) -> Option<&TtlSchedule> {
        self.ttl.as_ref()
    }

    /// When the write buffer `mem` is due to be sealed, if FADE is
    /// enabled (see [`TtlSchedule::buffer_due`]).
    pub fn buffer_due(&self, mem: &Memtable) -> Option<Tick> {
        self.ttl.as_ref()?.buffer_due(mem)
    }

    /// Pick the most urgent compaction and register it as in flight, or
    /// `None` when there is nothing to do *or* the urgent task overlaps
    /// a compaction already running (the caller retries after the
    /// conflicting task installs). Callers must pass the returned claim
    /// to [`Picker::release`] once the task has been installed or
    /// abandoned.
    pub fn pick_claimed(
        &self,
        version: &Version,
        due: &DueIndex,
        now: Tick,
    ) -> Option<(CompactionTask, CompactionClaim)> {
        let task = self.pick(version, due, now)?;
        let file_ids: Vec<u64> = task.all_inputs().map(|f| f.id).collect();
        let key_range = task.key_range();
        let mut guard = self.in_flight.lock();
        let (next_id, marks) = &mut *guard;
        let conflicts = marks.iter().any(|m| {
            m.file_ids.iter().any(|id| file_ids.contains(id))
                || spans_overlap(&m.key_range, &key_range)
        });
        if conflicts {
            return None;
        }
        // Accepted: only now does the round-robin cursor move past the
        // chosen file (`pick` is polled by idle and pressure checks, and
        // a pick that loses on a claim conflict compacts nothing).
        if let (CompactionReason::LevelSaturation, [file]) = (task.reason, &task.inputs[..]) {
            self.cursors.lock()[task.level] = Some(file.max_key().clone());
        }
        let id = *next_id;
        *next_id += 1;
        marks.push(InFlightMark {
            id,
            file_ids,
            key_range,
        });
        Some((task, CompactionClaim { id }))
    }

    /// Drop the in-flight mark registered by [`Picker::pick_claimed`].
    pub fn release(&self, claim: CompactionClaim) {
        self.in_flight.lock().1.retain(|m| m.id != claim.id);
    }

    /// Pick the most urgent compaction from `version`, whose deadline
    /// index is `due`, if any. A pure query: the round-robin cursor
    /// moves in [`Picker::pick_claimed`].
    pub fn pick(&self, version: &Version, due: &DueIndex, now: Tick) -> Option<CompactionTask> {
        // FADE's TTL trigger outranks saturation: persistence is a
        // correctness deadline, saturation only a performance one.
        if let Some(task) = self.pick_ttl_expired(version, due, now) {
            return Some(task);
        }
        match self.opts.layout {
            CompactionLayout::Leveling => self.pick_leveling(version),
            CompactionLayout::Tiering => self.pick_tiering(version, false),
            CompactionLayout::LazyLeveling => self.pick_tiering(version, true),
        }
    }

    /// The next step of a full manual compaction (`Db::compact_all`),
    /// `None` once there is none. First the drain: the shallowest
    /// non-empty level above the bottom merges whole into the next one.
    /// Then the reclaim pass: the bottom files that may hold what a live
    /// range tombstone (secondary *or* sort-key) erases are rewritten in
    /// place, so the erased entries (and, under KiWi, whole covered
    /// pages) are physically dropped and the tombstones retire. A
    /// snapshot may pin covered entries and so leave a reclaim task in
    /// place for good: the caller bounds how many it runs.
    pub fn pick_manual(&self, version: &Version) -> Option<CompactionTask> {
        let bottom = self.opts.max_levels - 1;
        let reason = CompactionReason::Manual;
        if let Some(level) = (0..bottom).find(|&l| !version.levels[l].is_empty()) {
            let inputs = version.levels[level].clone();
            let span = entry_hull(&inputs);
            return Some(push_down(version, level, inputs, span, reason));
        }
        let victims: Vec<_> = version.levels[bottom]
            .iter()
            .filter(|f| {
                version
                    .range_tombstones
                    .iter()
                    .any(|rt| f.under_range_tombstone(rt))
                    || version
                        .key_range_tombstones
                        .iter()
                        .any(|k| f.under_key_range_tombstone(k))
            })
            .cloned()
            .collect();
        if victims.is_empty() {
            return None;
        }
        let span = entry_hull(&victims);
        Some(self.close_over_bottom(version, victims, span, reason))
    }

    /// FADE trigger: the most overdue subject of `due`, if any: a file
    /// whose oldest point tombstone outlived its level's budget, or a
    /// sort-key range tombstone that outlived its station's; for the
    /// latter, the files at its station that are under it move down.
    pub(crate) fn pick_ttl_expired(
        &self,
        version: &Version,
        due: &DueIndex,
        now: Tick,
    ) -> Option<CompactionTask> {
        let futile = self.futile.lock();
        let overdue = due.entries.iter().filter(|(at, _)| now > *at);
        let subjects = overdue.filter_map(|(at, subject)| {
            let (level, inputs, k) = match subject {
                Subject::File(f) => (f.level, vec![Arc::clone(f)], None),
                Subject::KeyRange(level, k) => {
                    let under = |f: &&Arc<FileMeta>| f.under_key_range_tombstone(k);
                    let inputs = version.levels[*level].iter().filter(under);
                    (*level, inputs.cloned().collect(), Some(k))
                }
            };
            let live = inputs.iter().any(|f| !futile.skips(f.id, now));
            live.then_some((now - at, level, inputs, k))
        });
        // Of equally overdue subjects, the last one wins.
        let (_, level, inputs, k) = subjects.max_by_key(|&(by, ..)| by)?;
        let reason = CompactionReason::TtlExpired;
        if level == 0 {
            return whole_l0(version, reason);
        }
        let span = entry_hull(&inputs);
        if level == self.opts.max_levels - 1 {
            return Some(self.close_over_bottom(version, inputs, span, reason));
        }
        // A range tombstone's own span joins the inputs': every file
        // under it at the next level joins the merge too, so once the
        // merge is bottommost it holds the tombstone nowhere else.
        let span = span.map(|(lo, hi)| match k {
            Some(k) => (lo.min(k.start.clone()), hi.max(k.end.clone())),
            None => (lo, hi),
        });
        Some(push_down(version, level, inputs, span, reason))
    }

    /// A rewrite within the bottom level of `inputs`, a set of bottom
    /// files, closed over the bottom level: every bottom file whose
    /// entries reach into the span grown from `seed_span` joins, and
    /// widens the span in turn. The merge is then bottommost, which any
    /// purge needs: tiered runs overlap in key space, and a rewrite that
    /// left an older run out could drop nothing. On a leveled bottom the
    /// files are disjoint and the closure adds only the files between
    /// the inputs.
    fn close_over_bottom(
        &self,
        version: &Version,
        mut inputs: Vec<Arc<FileMeta>>,
        seed_span: Option<(Bytes, Bytes)>,
        reason: CompactionReason,
    ) -> CompactionTask {
        let bottom = self.opts.max_levels - 1;
        if let Some((mut lo, mut hi)) = seed_span {
            loop {
                let mut grew = false;
                for f in &version.levels[bottom] {
                    if f.overlaps_keys(&lo, &hi) && !inputs.iter().any(|g| g.id == f.id) {
                        lo = lo.min(f.min_key().clone());
                        hi = hi.max(f.max_key().clone());
                        inputs.push(Arc::clone(f));
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
        }
        CompactionTask {
            level: bottom,
            inputs,
            next_level_inputs: Vec::new(),
            output_level: bottom,
            output_run: 0,
            reason,
        }
    }

    /// Classic leveled compaction: L0 by file count, deeper levels by
    /// byte budget, one file at a time chosen by the pick policy.
    fn pick_leveling(&self, version: &Version) -> Option<CompactionTask> {
        if version.level_files(0) >= self.opts.level0_file_limit {
            return whole_l0(version, CompactionReason::L0Saturation);
        }
        // Deeper levels: highest fill ratio first.
        let bottom = self.opts.max_levels - 1;
        let mut worst: Option<(f64, usize)> = None;
        for level in 1..bottom {
            let bytes = version.level_bytes(level);
            let target = self.opts.level_target_bytes(level);
            if bytes > target {
                let ratio = bytes as f64 / target as f64;
                if worst.is_none_or(|(r, _)| ratio > r) {
                    worst = Some((ratio, level));
                }
            }
        }
        let (_, level) = worst?;
        let file = self.choose_file(version, level)?;
        let span = Some((file.min_key().clone(), file.max_key().clone()));
        Some(push_down(
            version,
            level,
            vec![file],
            span,
            CompactionReason::LevelSaturation,
        ))
    }

    /// Apply the data-movement policy at `level`.
    fn choose_file(&self, version: &Version, level: usize) -> Option<Arc<FileMeta>> {
        let files = version.levels.get(level)?;
        if files.is_empty() {
            return None;
        }
        let overlap_bytes = |f: &Arc<FileMeta>| -> u64 {
            version
                .overlapping_files(level + 1, f.min_key(), f.max_key())
                .iter()
                .map(|g| g.size_bytes)
                .sum()
        };
        match self.opts.file_pick {
            FilePickPolicy::MinOverlap => files
                .iter()
                .min_by_key(|f| (overlap_bytes(f), f.id))
                .cloned(),
            FilePickPolicy::TombstoneDensity => files
                .iter()
                .max_by(|a, b| {
                    a.stats
                        .tombstone_density()
                        .partial_cmp(&b.stats.tombstone_density())
                        .expect("densities are finite")
                        // Ties: cheaper file first.
                        .then(overlap_bytes(b).cmp(&overlap_bytes(a)))
                })
                .cloned(),
            FilePickPolicy::OldestTombstone => files
                .iter()
                .min_by_key(|f| {
                    (
                        f.stats.oldest_tombstone_tick.unwrap_or(u64::MAX),
                        overlap_bytes(f),
                    )
                })
                .cloned(),
            FilePickPolicy::RoundRobin => {
                let cursors = self.cursors.lock();
                let cursor = cursors[level].clone();
                drop(cursors);
                match cursor {
                    Some(c) => files
                        .iter()
                        .find(|f| f.min_key() > &c)
                        .or_else(|| files.first())
                        .cloned(),
                    None => files.first().cloned(),
                }
            }
        }
    }

    /// Tiering: a level with `T` runs spills them all into one new run of
    /// the next level. With `lazy` (lazy leveling), the bottom level is
    /// kept as a single leveled run.
    fn pick_tiering(&self, version: &Version, lazy: bool) -> Option<CompactionTask> {
        let bottom = self.opts.max_levels - 1;
        let t = self.opts.size_ratio as usize;
        for level in 0..=bottom {
            let trigger = if level == 0 {
                version.level_files(0) >= self.opts.level0_file_limit.max(t)
            } else {
                version.level_runs(level) >= t
            };
            if !trigger {
                continue;
            }
            let inputs = version.levels[level].clone();
            if inputs.is_empty() {
                continue;
            }
            let output_level = (level + 1).min(bottom);
            let merge_into_leveled_bottom = output_level == bottom && (lazy || level == bottom);
            let (next, output_run) = if merge_into_leveled_bottom {
                let (lo, hi) = entry_hull(&inputs)?;
                let next = if level == bottom {
                    Vec::new() // already the inputs
                } else {
                    version.overlapping_files(bottom, &lo, &hi)
                };
                (next, 0)
            } else {
                // Stack a fresh run on the target level.
                let next_run = version.levels[output_level]
                    .iter()
                    .map(|f| f.run + 1)
                    .max()
                    .unwrap_or(0);
                (Vec::new(), next_run)
            };
            return Some(CompactionTask {
                level,
                inputs,
                next_level_inputs: next,
                output_level,
                output_run,
                reason: if level == 0 {
                    CompactionReason::L0Saturation
                } else {
                    CompactionReason::LevelSaturation
                },
            });
        }
        None
    }
}

/// `inputs` from `level` into the next level, merged with the files
/// there that `span` overlaps.
fn push_down(
    version: &Version,
    level: usize,
    inputs: Vec<Arc<FileMeta>>,
    span: Option<(Bytes, Bytes)>,
    reason: CompactionReason,
) -> CompactionTask {
    let next_level_inputs = match span {
        Some((lo, hi)) => version.overlapping_files(level + 1, &lo, &hi),
        None => Vec::new(),
    };
    CompactionTask {
        level,
        inputs,
        next_level_inputs,
        output_level: level + 1,
        output_run: 0,
        reason,
    }
}

/// Every L0 file into L1. L0 files overlap in both keys and seqnos:
/// taking them all keeps newer versions from sinking below older ones.
fn whole_l0(version: &Version, reason: CompactionReason) -> Option<CompactionTask> {
    let inputs = version.levels[0].clone();
    let span = entry_hull(&inputs)?;
    Some(push_down(version, 0, inputs, Some(span), reason))
}

/// The min/max user keys of the entries in `files` (their fence keys),
/// `None` without files.
fn entry_hull<'a>(files: impl IntoIterator<Item = &'a Arc<FileMeta>>) -> Option<(Bytes, Bytes)> {
    files
        .into_iter()
        .map(|f| (f.min_key().clone(), f.max_key().clone()))
        .reduce(|(lo, hi), (flo, fhi)| (lo.min(flo), hi.max(fhi)))
}

/// Whether two key spans intersect. A `None` span (a task without
/// inputs) is treated as conflicting with nothing — such tasks touch no
/// user keys, so concurrent installs cannot produce overlapping runs.
fn spans_overlap(a: &Option<(Bytes, Bytes)>, b: &Option<(Bytes, Bytes)>) -> bool {
    match (a, b) {
        (Some((alo, ahi)), Some((blo, bhi))) => alo <= bhi && blo <= ahi,
        _ => false,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fade::tests::{reference_file_deadline, reference_key_range_deadline};
    use crate::options::{CompactionLayout, FadeOptions, TtlAllocation};
    use crate::testutil::{make_file, make_file_with};
    use acheron_types::{DeleteKeyRange, KeyRangeTombstone, RangeTombstone};
    use acheron_vfs::MemFs;

    fn opts(layout: CompactionLayout) -> DbOptions {
        DbOptions {
            layout,
            level0_file_limit: 4,
            size_ratio: 4,
            max_levels: 4,
            level1_target_bytes: 3_000,
            ..DbOptions::default()
        }
    }

    /// [`opts`] with FADE on at threshold `d_th`, split uniformly.
    fn fade_opts(layout: CompactionLayout, d_th: Tick) -> DbOptions {
        DbOptions {
            fade: Some(FadeOptions {
                delete_persistence_threshold: d_th,
                ttl_allocation: TtlAllocation::Uniform,
            }),
            ..opts(layout)
        }
    }

    /// A sort-key range tombstone over the keys `lo..=hi` with sequence
    /// number `seqno`, born at tick `t0`.
    fn krt((lo, hi): (u32, u32), seqno: u64, t0: Tick) -> KeyRangeTombstone {
        KeyRangeTombstone {
            start: Bytes::from(format!("key{lo:06}")),
            end: Bytes::from(format!("key{hi:06}")),
            seqno,
            dkey: t0,
        }
    }

    /// `v`'s deadline index under `picker`'s schedule.
    fn index(picker: &Picker, v: &Version) -> DueIndex {
        (picker.ttl_schedule()).map_or_else(DueIndex::default, |t| t.index(v))
    }

    /// Pick from `v` through its deadline index, as the engine does.
    fn pick(picker: &Picker, v: &Version, now: Tick) -> Option<CompactionTask> {
        picker.pick(v, &index(picker, v), now)
    }

    /// The FADE trigger as it stood before the deadline index: every
    /// deadline and station recomputed from `version` at each pick.
    pub(crate) fn reference_ttl_pick(
        picker: &Picker,
        version: &Version,
        now: Tick,
    ) -> Option<CompactionTask> {
        let ttl = picker.ttl.as_ref()?;
        let futile = picker.futile.lock();
        let overdue_by = |deadline: Tick| (now > deadline).then(|| now - deadline);
        let files = version
            .all_files()
            .filter(|f| !futile.skips(f.id, now))
            .filter_map(|f| {
                let by = overdue_by(reference_file_deadline(ttl, f)?)?;
                Some((by, f.level, vec![Arc::clone(f)], None))
            });
        let key_ranges = version.key_range_tombstones.iter().filter_map(|k| {
            let (level, deadline) = reference_key_range_deadline(ttl, version, k)?;
            let by = overdue_by(deadline)?;
            let inputs: Vec<_> = version.levels[level]
                .iter()
                .filter(|f| f.under_key_range_tombstone(k))
                .cloned()
                .collect();
            inputs
                .iter()
                .any(|f| !futile.skips(f.id, now))
                .then_some((by, level, inputs, Some(k)))
        });
        let (_, level, inputs, k) = files.chain(key_ranges).max_by_key(|&(by, ..)| by)?;
        let reason = CompactionReason::TtlExpired;
        if level == 0 {
            return whole_l0(version, reason);
        }
        let span = entry_hull(&inputs);
        if level == picker.opts.max_levels - 1 {
            return Some(picker.close_over_bottom(version, inputs, span, reason));
        }
        let span = span.map(|(lo, hi)| match k {
            Some(k) => (lo.min(k.start.clone()), hi.max(k.end.clone())),
            None => (lo, hi),
        });
        Some(push_down(version, level, inputs, span, reason))
    }

    /// What a task does, for comparing two picks: its trigger, levels
    /// and input file ids.
    pub(crate) fn shape(task: &CompactionTask) -> (CompactionReason, usize, usize, Vec<u64>) {
        let inputs = task.all_inputs().map(|f| f.id).collect();
        (task.reason, task.level, task.output_level, inputs)
    }

    fn ids(files: &[Arc<FileMeta>]) -> Vec<u64> {
        files.iter().map(|f| f.id).collect()
    }

    #[test]
    fn no_compaction_when_under_triggers() {
        let fs = MemFs::new();
        let picker = Picker::new(&opts(CompactionLayout::Leveling));
        let v = Version::empty(4).apply(vec![make_file(&fs, 1, 0, 0..10, 100)], &[], &[], &[]);
        assert!(pick(&picker, &v, 0).is_none());
    }

    #[test]
    fn l0_file_count_triggers_full_l0_merge() {
        let fs = MemFs::new();
        let picker = Picker::new(&opts(CompactionLayout::Leveling));
        let files: Vec<_> = (0..4)
            .map(|i| make_file(&fs, i + 1, 0, 0..20, 100 * (i + 1)))
            .collect();
        let l1 = make_file(&fs, 9, 1, 5..15, 50);
        let mut all = files.clone();
        all.push(l1);
        let v = Version::empty(4).apply(all, &[], &[], &[]);
        let task = pick(&picker, &v, 0).expect("L0 saturated");
        assert_eq!(task.reason, CompactionReason::L0Saturation);
        assert_eq!(task.level, 0);
        assert_eq!(task.inputs.len(), 4, "all L0 files move together");
        assert_eq!(task.next_level_inputs.len(), 1, "overlapping L1 file joins");
        assert_eq!(task.output_level, 1);
    }

    #[test]
    fn saturated_level_picks_min_overlap_file() {
        let fs = MemFs::new();
        let picker = Picker::new(&opts(CompactionLayout::Leveling));
        // L1 over budget (10k): two files; one overlaps a fat L2 file,
        // the other overlaps nothing.
        let costly = make_file(&fs, 1, 1, 0..200, 1000);
        let free = make_file(&fs, 2, 1, 500..700, 2000);
        let l2 = make_file(&fs, 3, 2, 0..200, 100);
        let v = Version::empty(4).apply(vec![costly, free, l2], &[], &[], &[]);
        assert!(v.level_bytes(1) > 3_000, "setup must saturate L1");
        let task = pick(&picker, &v, 0).expect("saturation");
        assert_eq!(task.reason, CompactionReason::LevelSaturation);
        assert_eq!(task.inputs.len(), 1);
        assert_eq!(task.inputs[0].id, 2, "zero-overlap file is cheapest");
        assert!(task.next_level_inputs.is_empty());
    }

    #[test]
    fn tombstone_density_pick_prefers_delete_heavy_file() {
        let o = DbOptions {
            file_pick: FilePickPolicy::TombstoneDensity,
            // Never expires in this test.
            ..fade_opts(CompactionLayout::Leveling, 1_000_000)
        };
        let fs = MemFs::new();
        let picker = Picker::new(&o);
        let clean = make_file_with(&fs, 1, 1, 0, 0..200, 1000, 0, 0);
        let dirty = make_file_with(&fs, 2, 1, 0, 300..500, 2000, 2, 0);
        let v = Version::empty(4).apply(vec![clean, dirty], &[], &[], &[]);
        let task = pick(&picker, &v, 10).expect("saturation");
        assert_eq!(task.inputs[0].id, 2, "delete-dense file first");
    }

    #[test]
    fn ttl_expiry_outranks_saturation_and_targets_the_overdue_file() {
        let fs = MemFs::new();
        let picker = Picker::new(&fade_opts(CompactionLayout::Leveling, 1_000));
        // A tombstone born at tick 10 in an L1 file.
        let expired = make_file_with(&fs, 1, 1, 0, 0..50, 1000, 5, 10);
        let v = Version::empty(4).apply(vec![expired], &[], &[], &[]);
        // Before the deadline: nothing to do (level not saturated).
        assert!(pick(&picker, &v, 11).is_none());
        // Long past it: the TTL trigger fires.
        let task = pick(&picker, &v, 5_000).expect("expired file");
        assert_eq!(task.reason, CompactionReason::TtlExpired);
        assert_eq!(task.inputs[0].id, 1);
        assert_eq!(task.output_level, 2);
    }

    #[test]
    fn ttl_expiry_at_l0_takes_all_l0_files() {
        let fs = MemFs::new();
        let picker = Picker::new(&fade_opts(CompactionLayout::Leveling, 100));
        let old = make_file_with(&fs, 1, 0, 1, 0..20, 100, 2, 0);
        let newer = make_file(&fs, 2, 0, 10..30, 500);
        let v = Version::empty(4).apply(vec![old, newer], &[], &[], &[]);
        let task = pick(&picker, &v, 10_000).expect("expired");
        assert_eq!(task.reason, CompactionReason::TtlExpired);
        assert_eq!(
            task.inputs.len(),
            2,
            "L0 expiry must take every L0 file to preserve seqno ordering"
        );
    }

    #[test]
    fn tiering_trigger_fires_on_run_count() {
        let fs = MemFs::new();
        let picker = Picker::new(&opts(CompactionLayout::Tiering));
        // Four runs at L1 (T = 4).
        let files: Vec<_> = (0..4)
            .map(|i| make_file_with(&fs, i + 1, 1, i, 0..20, 100 * (i + 1), 0, 0))
            .collect();
        let v = Version::empty(4).apply(files, &[], &[], &[]);
        assert_eq!(v.level_runs(1), 4);
        let task = pick(&picker, &v, 0).expect("run count reached T");
        assert_eq!(task.level, 1);
        assert_eq!(task.inputs.len(), 4);
        assert!(
            task.next_level_inputs.is_empty(),
            "tiering stacks a new run instead of merging into the target"
        );
        assert_eq!(task.output_level, 2);
    }

    #[test]
    fn tiering_under_trigger_is_quiescent() {
        let fs = MemFs::new();
        let picker = Picker::new(&opts(CompactionLayout::Tiering));
        let files: Vec<_> = (0..3)
            .map(|i| make_file_with(&fs, i + 1, 1, i, 0..20, 100 * (i + 1), 0, 0))
            .collect();
        let v = Version::empty(4).apply(files, &[], &[], &[]);
        assert!(pick(&picker, &v, 0).is_none());
    }

    #[test]
    fn lazy_leveling_merges_into_leveled_bottom() {
        let fs = MemFs::new();
        let picker = Picker::new(&opts(CompactionLayout::LazyLeveling));
        // Four runs at level 2 (bottom is 3).
        let files: Vec<_> = (0..4)
            .map(|i| make_file_with(&fs, i + 1, 2, i, 0..20, 100 * (i + 1), 0, 0))
            .collect();
        let bottom = make_file(&fs, 9, 3, 5..25, 50);
        let mut all = files;
        all.push(bottom);
        let v = Version::empty(4).apply(all, &[], &[], &[]);
        let task = pick(&picker, &v, 0).expect("runs at level 2");
        assert_eq!(task.output_level, 3);
        assert_eq!(task.output_run, 0, "bottom stays a single leveled run");
        assert_eq!(
            task.next_level_inputs.len(),
            1,
            "merges with the bottom run"
        );
    }

    #[test]
    fn round_robin_cursor_moves_only_on_accepted_picks() {
        let mut o = opts(CompactionLayout::Leveling);
        o.file_pick = FilePickPolicy::RoundRobin;
        let fs = MemFs::new();
        let picker = Picker::new(&o);
        // Three disjoint L1 files, together over the level's budget, and
        // one L2 file under all of them (so any two L1 picks conflict).
        let mut files: Vec<_> = (0..3u32)
            .map(|i| make_file(&fs, u64::from(i) + 1, 1, i * 200..i * 200 + 150, 1000))
            .collect();
        files.push(make_file(&fs, 9, 2, 0..600, 100));
        let v = Version::empty(4).apply(files, &[], &[], &[]);
        assert!(v.level_bytes(1) > 3_000, "setup must saturate L1");
        let queried = || pick(&picker, &v, 0).expect("saturation").inputs[0].id;

        // A query does not rotate: the same file, however often asked.
        assert_eq!(queried(), 1);
        assert_eq!(queried(), 1);

        // Accepted picks rotate through the level and wrap around.
        for expected in [1, 2, 3] {
            let (task, claim) = picker
                .pick_claimed(&v, &index(&picker, &v), 0)
                .expect("nothing in flight");
            assert_eq!(task.inputs[0].id, expected);
            picker.release(claim);
        }
        assert_eq!(queried(), 1);

        // A pick that loses on a claim conflict leaves the cursor put.
        let (_, claim) = picker
            .pick_claimed(&v, &index(&picker, &v), 0)
            .expect("nothing in flight");
        assert_eq!(queried(), 2);
        assert!(
            picker.pick_claimed(&v, &index(&picker, &v), 0).is_none(),
            "file 2 shares the L2 file with the task in flight"
        );
        assert_eq!(queried(), 2, "the refused pick must not rotate past file 2");
        picker.release(claim);
        let (task, claim) = picker
            .pick_claimed(&v, &index(&picker, &v), 0)
            .expect("conflict released");
        assert_eq!(task.inputs[0].id, 2);
        picker.release(claim);
    }

    #[test]
    fn ttl_expiry_in_a_tiered_bottom_takes_the_overlapping_older_run() {
        let fs = MemFs::new();
        let picker = Picker::new(&fade_opts(CompactionLayout::Tiering, 1_000));
        // Bottom (level 3): an older run under keys 0..100 and 500..600,
        // and a newer run over 50..150 whose tombstones are long overdue.
        let older = make_file_with(&fs, 1, 3, 0, 0..100, 1, 0, 0);
        let apart = make_file_with(&fs, 3, 3, 0, 500..600, 200, 0, 0);
        let newer = make_file_with(&fs, 2, 3, 1, 50..150, 1_000, 5, 0);
        let v = Version::empty(4).apply(vec![older, apart, newer], &[], &[], &[]);
        let task = pick(&picker, &v, 10_000).expect("expired file");
        assert_eq!(task.reason, CompactionReason::TtlExpired);
        assert_eq!((task.level, task.output_level), (3, 3));
        assert_eq!(
            ids(&task.inputs),
            vec![2, 1],
            "the rewrite must absorb the run beneath its keys, or it drops nothing"
        );
    }

    #[test]
    fn an_expired_range_tombstone_moves_its_station_down() {
        let fs = MemFs::new();
        let picker = Picker::new(&fade_opts(CompactionLayout::Leveling, 1_000));
        let files = vec![
            // Newer than the tombstone over keys 0..=100, so not under it.
            make_file(&fs, 1, 1, 50..60, 600),
            // Older entries in its range at L2 (its station) and L3.
            make_file(&fs, 2, 2, 10..20, 1),
            make_file(&fs, 3, 2, 30..40, 1),
            make_file(&fs, 4, 2, 200..210, 1),
            make_file(&fs, 5, 3, 0..100, 1),
        ];
        let v = Version::empty(4)
            .apply(files, &[], &[], &[])
            .apply_key_ranges(&[krt((0, 100), 500, 0)], &[]);
        assert!(pick(&picker, &v, 10).is_none(), "not yet due");
        let task = pick(&picker, &v, 10_000).expect("expired range tombstone");
        assert_eq!(task.reason, CompactionReason::TtlExpired);
        assert_eq!((task.level, task.output_level), (2, 3));
        assert_eq!(ids(&task.inputs), vec![2, 3]);
        assert_eq!(ids(&task.next_level_inputs), vec![5]);
        // At the bottom: every bottom file under it, closed over.
        let v = v.apply(vec![], &[1, 2, 3], &[], &[]);
        let task = pick(&picker, &v, 10_000).expect("expired at the bottom");
        assert_eq!((task.level, task.output_level), (3, 3));
        assert_eq!(ids(&task.inputs), vec![5]);
    }

    #[test]
    fn of_equally_overdue_subjects_the_last_one_wins() {
        let fs = MemFs::new();
        let picker = Picker::new(&fade_opts(CompactionLayout::Leveling, 1_000));
        // Two runs over the same keys, oldest tombstones both at tick 0.
        let files = vec![
            make_file_with(&fs, 1, 1, 0, 0..10, 1, 5, 0),
            make_file_with(&fs, 2, 1, 1, 0..10, 1, 5, 0),
        ];
        let v = Version::empty(4).apply(files, &[], &[], &[]);
        let task = pick(&picker, &v, 10_000).expect("expired files");
        assert_eq!(ids(&task.inputs), vec![2]);
        // A range tombstone born at the same tick with the same station
        // comes after the files, and takes both.
        let v = v.apply_key_ranges(&[krt((0, 5), 500, 0)], &[]);
        let task = pick(&picker, &v, 10_000).expect("expired subjects");
        assert_eq!(ids(&task.inputs), vec![1, 2]);
    }

    #[test]
    fn the_memo_skips_the_outputs_of_every_futile_rewrite_at_a_tick() {
        let fs = MemFs::new();
        let picker = Picker::new(&fade_opts(CompactionLayout::Leveling, 1_000));
        // Three bottom files, most overdue first (tombstone ticks 0,
        // 100 and 200).
        let files = (0..3u32)
            .map(|i| make_file_with(&fs, u64::from(i) + 1, 3, 0, i * 100..i * 100 + 50, 1, 5, 0))
            .collect();
        let v = Version::empty(4).apply(files, &[], &[], &[]);
        let now = 10_000;
        for expected in [1, 2, 3] {
            let task = pick(&picker, &v, now).expect("an expired file not yet rewritten");
            assert_eq!(ids(&task.inputs), vec![expected]);
            picker.note_futile_rewrite(now, None, [expected]);
        }
        assert!(
            pick(&picker, &v, now).is_none(),
            "every file was rewritten in vain"
        );
        let task = pick(&picker, &v, now + 1).expect("the clock moved");
        assert_eq!(ids(&task.inputs), vec![1]);
    }

    #[test]
    fn manual_compaction_drains_top_down_then_reclaims_the_bottom() {
        let fs = MemFs::new();
        let picker = Picker::new(&opts(CompactionLayout::Leveling));
        let rt = RangeTombstone {
            seqno: 5_000,
            range: DeleteKeyRange::new(0, 99),
        };
        // Bottom: keys 0..50 lie under the range tombstone's delete keys,
        // 50..100 too, 100..150 do not.
        let bottom: Vec<_> = (0..3u32)
            .map(|i| make_file(&fs, u64::from(i) + 1, 3, i * 50..i * 50 + 50, 1))
            .collect();
        let v = Version::empty(4).apply(bottom, &[], &[rt], &[]);
        let l2 = make_file(&fs, 9, 2, 40..60, 2_000);
        let drain = picker
            .pick_manual(&v.apply(vec![l2], &[], &[], &[]))
            .expect("L2 holds data");
        assert_eq!((drain.level, drain.output_level), (2, 3));
        assert_eq!(ids(&drain.next_level_inputs), vec![1, 2]);
        let reclaim = picker
            .pick_manual(&v)
            .expect("the bottom holds erased entries");
        assert_eq!((reclaim.level, reclaim.output_level), (3, 3));
        assert_eq!(ids(&reclaim.inputs), vec![1, 2]);
        assert!(picker.pick_manual(&Version::empty(4)).is_none());
    }

    #[test]
    fn task_helpers_compute_span_and_bytes() {
        let fs = MemFs::new();
        let a = make_file(&fs, 1, 1, 0..10, 100);
        let b = make_file(&fs, 2, 2, 5..20, 200);
        let bytes = a.size_bytes + b.size_bytes;
        let task = CompactionTask {
            level: 1,
            inputs: vec![a],
            next_level_inputs: vec![b],
            output_level: 2,
            output_run: 0,
            reason: CompactionReason::Manual,
        };
        let (lo, hi) = task.key_range().expect("non-empty");
        assert_eq!(&lo[..], b"key000000");
        assert_eq!(&hi[..], b"key000019");
        assert_eq!(task.input_bytes(), bytes);
    }
}
