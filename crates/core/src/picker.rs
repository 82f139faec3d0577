//! Compaction picking: the *trigger* and *data movement* primitives.
//!
//! Following the group's compaction taxonomy, a strategy is the product
//! of a trigger (level saturation, L0 file count, FADE TTL expiry), a
//! layout (leveling / tiering / lazy-leveling), a granularity (whole
//! level for tiering, single file + overlap for leveling), and a
//! data-movement policy (which file moves first). [`Picker::pick`]
//! inspects a [`Version`] and produces at most one [`CompactionTask`].

use std::sync::Arc;

use acheron_types::Tick;
use bytes::Bytes;
use parking_lot::Mutex;

use crate::fade::TtlSchedule;
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
        /// FADE: a file's oldest tombstone outlived its level TTL.
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

    /// The union user-key range of all inputs, `None` if inputs are all
    /// empty tables.
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

/// Claim marks for one in-flight compaction: the levels it reads and
/// writes, its input file ids, and its user-key span. A candidate task
/// conflicts (and is not handed out) when it shares a file id or its key
/// span overlaps — so two workers never compact overlapping inputs and
/// never install overlapping outputs into the same run.
#[derive(Debug)]
struct InFlightMark {
    id: u64,
    input_level: usize,
    output_level: usize,
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
    /// Output files of the last within-bottom TTL rewrite that purged
    /// and dropped nothing, and the tick it ran at (see
    /// [`Picker::note_futile_rewrite`]).
    futile: Mutex<(Tick, Vec<u64>)>,
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
            futile: Mutex::new((0, Vec::new())),
        }
    }

    /// Record that a TTL rewrite within the bottom level at tick `now`
    /// changed nothing — whatever keeps its tombstones from purging (a
    /// snapshot, say) is still there — and produced `outputs`. Until the
    /// clock moves, the TTL trigger passes over those files: rewriting
    /// them again at the same tick would produce the same bytes, and an
    /// inline maintenance pass, inside which the logical clock stands
    /// still, would never end.
    pub fn note_futile_rewrite(&self, now: Tick, outputs: Vec<u64>) {
        *self.futile.lock() = (now, outputs);
    }

    /// The TTL schedule, if FADE is enabled.
    pub fn ttl_schedule(&self) -> Option<&TtlSchedule> {
        self.ttl.as_ref()
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
        now: Tick,
    ) -> Option<(CompactionTask, CompactionClaim)> {
        let task = self.pick(version, now)?;
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
            input_level: task.level,
            output_level: task.output_level,
            file_ids,
            key_range,
        });
        Some((task, CompactionClaim { id }))
    }

    /// Drop the in-flight mark registered by [`Picker::pick_claimed`].
    pub fn release(&self, claim: CompactionClaim) {
        self.in_flight.lock().1.retain(|m| m.id != claim.id);
    }

    /// Levels currently touched by in-flight compactions, as
    /// `(input level, output level)` pairs (introspection/debugging).
    pub fn in_flight_levels(&self) -> Vec<(usize, usize)> {
        self.in_flight
            .lock()
            .1
            .iter()
            .map(|m| (m.input_level, m.output_level))
            .collect()
    }

    /// Pick the most urgent compaction, if any. A pure query: the
    /// round-robin cursor moves in [`Picker::pick_claimed`].
    pub fn pick(&self, version: &Version, now: Tick) -> Option<CompactionTask> {
        // FADE's TTL trigger outranks saturation: persistence is a
        // correctness deadline, saturation only a performance one.
        if let Some(task) = self.pick_ttl_expired(version, now) {
            return Some(task);
        }
        match self.opts.layout {
            CompactionLayout::Leveling => self.pick_leveling(version),
            CompactionLayout::Tiering => self.pick_tiering(version, false),
            CompactionLayout::LazyLeveling => self.pick_tiering(version, true),
        }
    }

    /// FADE trigger: the most overdue expired file, if any.
    fn pick_ttl_expired(&self, version: &Version, now: Tick) -> Option<CompactionTask> {
        let ttl = self.ttl.as_ref()?;
        let bottom = self.opts.max_levels - 1;
        let mut expired = {
            let futile = self.futile.lock();
            version
                .all_files()
                .filter(|f| ttl.file_expired(f, now))
                .filter(|f| !(futile.0 == now && futile.1.contains(&f.id)))
                .max_by_key(|f| ttl.overdue_by(f, now))?
                .clone()
        };
        if expired.level == bottom {
            // A sort-key range tombstone at the bottom purges only once
            // no file outside the merge holds an older entry in its
            // range. While one does, rewriting the tombstone's file
            // achieves nothing: the blocker is what has to descend, so
            // it takes the expired file's turn (deepest first — it is
            // the closest to being merged with the tombstone).
            let blocker =
                version.levels[..bottom]
                    .iter()
                    .flatten()
                    .filter(|f| {
                        expired.stats.range_tombstones.iter().any(|k| {
                            f.stats.min_seqno < k.seqno && f.overlaps_keys(&k.start, &k.end)
                        })
                    })
                    .max_by_key(|f| f.level);
            if let Some(blocker) = blocker {
                expired = Arc::clone(blocker);
            }
        }
        let level = expired.level;
        if level == 0 {
            // L0 files overlap in both keys and seqnos: take them all so
            // newer versions never sink below older ones.
            let inputs = version.levels[0].clone();
            let (lo, hi) = key_span(&inputs)?;
            let next = version.overlapping_files(1, &lo, &hi);
            return Some(CompactionTask {
                level: 0,
                inputs,
                next_level_inputs: next,
                output_level: 1,
                output_run: 0,
                reason: CompactionReason::TtlExpired,
            });
        }
        let output_level = (level + 1).min(bottom);
        let mut inputs = vec![Arc::clone(&expired)];
        let next = if level == bottom {
            // Within-bottom rewrite purges the overdue tombstones. A
            // range tombstone only purges once the entries it covers
            // are gone, so the rewrite must absorb every bottom file
            // its span touches — closed over entry hulls so the merge
            // stays bottommost (tiering runs overlap in key space).
            if expired.has_key_range_tombstones() {
                if let Some((mut lo, mut hi)) = key_span(std::slice::from_ref(&expired)) {
                    loop {
                        let mut grew = false;
                        for f in &version.levels[bottom] {
                            if inputs.iter().any(|g| g.id == f.id) || !f.overlaps_keys(&lo, &hi) {
                                continue;
                            }
                            lo = lo.min(f.min_key().clone());
                            hi = hi.max(f.max_key().clone());
                            inputs.push(Arc::clone(f));
                            grew = true;
                        }
                        if !grew {
                            break;
                        }
                    }
                }
            }
            Vec::new()
        } else {
            match key_span(std::slice::from_ref(&expired)) {
                Some((lo, hi)) => version.overlapping_files(output_level, &lo, &hi),
                None => Vec::new(),
            }
        };
        Some(CompactionTask {
            level,
            inputs,
            next_level_inputs: next,
            output_level,
            output_run: 0,
            reason: CompactionReason::TtlExpired,
        })
    }

    /// Classic leveled compaction: L0 by file count, deeper levels by
    /// byte budget, one file at a time chosen by the pick policy.
    fn pick_leveling(&self, version: &Version) -> Option<CompactionTask> {
        // L0 first.
        if version.level_files(0) >= self.opts.level0_file_limit {
            let inputs = version.levels[0].clone();
            let (lo, hi) = key_span(&inputs)?;
            let next = version.overlapping_files(1, &lo, &hi);
            return Some(CompactionTask {
                level: 0,
                inputs,
                next_level_inputs: next,
                output_level: 1,
                output_run: 0,
                reason: CompactionReason::L0Saturation,
            });
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
        let policy = self
            .opts
            .fade
            .as_ref()
            .map(|f| f.saturation_pick)
            .unwrap_or(self.opts.baseline_pick);
        let file = self.choose_file(version, level, policy)?;
        let next = version.overlapping_files(level + 1, file.min_key(), file.max_key());
        Some(CompactionTask {
            level,
            inputs: vec![file],
            next_level_inputs: next,
            output_level: level + 1,
            output_run: 0,
            reason: CompactionReason::LevelSaturation,
        })
    }

    /// Apply the data-movement policy at `level`.
    fn choose_file(
        &self,
        version: &Version,
        level: usize,
        policy: FilePickPolicy,
    ) -> Option<Arc<FileMeta>> {
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
        match policy {
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
                let (lo, hi) = key_span(&inputs)?;
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

/// The smallest span covering every span in `spans`.
fn hull(spans: impl Iterator<Item = (Bytes, Bytes)>) -> Option<(Bytes, Bytes)> {
    spans.reduce(|(lo, hi), (flo, fhi)| (lo.min(flo), hi.max(fhi)))
}

/// The min/max user keys of the entries in `files` (their fence keys),
/// `None` when no file holds an entry.
pub(crate) fn entry_hull<'a>(
    files: impl IntoIterator<Item = &'a Arc<FileMeta>>,
) -> Option<(Bytes, Bytes)> {
    hull(
        files
            .into_iter()
            .filter(|f| f.stats.entry_count > 0)
            .map(|f| (f.min_key().clone(), f.max_key().clone())),
    )
}

/// The min/max user keys across `files`: entry fences folded with
/// sort-key range-tombstone spans, so a carrier file (tombstones, no
/// entries) still contributes the keys its tombstones cover. `None`
/// only for completely empty tables.
fn key_span(files: &[Arc<FileMeta>]) -> Option<(Bytes, Bytes)> {
    let tombstone_spans = files.iter().filter_map(|f| f.key_range_tombstone_span());
    hull(entry_hull(files).into_iter().chain(tombstone_spans))
}

/// Whether two key spans intersect. A `None` span (task with only empty
/// tables) is treated as conflicting with nothing — such tasks touch no
/// user keys, so concurrent installs cannot produce overlapping runs.
fn spans_overlap(a: &Option<(Bytes, Bytes)>, b: &Option<(Bytes, Bytes)>) -> bool {
    match (a, b) {
        (Some((alo, ahi)), Some((blo, bhi))) => alo <= bhi && blo <= ahi,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{CompactionLayout, FadeOptions, TtlAllocation};
    use crate::testutil::{make_file, make_file_with};
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

    #[test]
    fn no_compaction_when_under_triggers() {
        let fs = MemFs::new();
        let picker = Picker::new(&opts(CompactionLayout::Leveling));
        let v = Version::empty(4).apply(vec![make_file(&fs, 1, 0, 0..10, 100)], &[], &[], &[]);
        assert!(picker.pick(&v, 0).is_none());
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
        let task = picker.pick(&v, 0).expect("L0 saturated");
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
        let task = picker.pick(&v, 0).expect("saturation");
        assert_eq!(task.reason, CompactionReason::LevelSaturation);
        assert_eq!(task.inputs.len(), 1);
        assert_eq!(task.inputs[0].id, 2, "zero-overlap file is cheapest");
        assert!(task.next_level_inputs.is_empty());
    }

    #[test]
    fn tombstone_density_pick_prefers_delete_heavy_file() {
        let mut o = opts(CompactionLayout::Leveling);
        o.fade = Some(FadeOptions {
            delete_persistence_threshold: 1_000_000, // never expires in test
            ttl_allocation: TtlAllocation::Uniform,
            saturation_pick: FilePickPolicy::TombstoneDensity,
        });
        let fs = MemFs::new();
        let picker = Picker::new(&o);
        let clean = make_file_with(&fs, 1, 1, 0, 0..200, 1000, 0, 0);
        let dirty = make_file_with(&fs, 2, 1, 0, 300..500, 2000, 2, 0);
        let v = Version::empty(4).apply(vec![clean, dirty], &[], &[], &[]);
        let task = picker.pick(&v, 10).expect("saturation");
        assert_eq!(task.inputs[0].id, 2, "delete-dense file first");
    }

    #[test]
    fn ttl_expiry_outranks_saturation_and_targets_the_overdue_file() {
        let mut o = opts(CompactionLayout::Leveling);
        o.fade = Some(FadeOptions {
            delete_persistence_threshold: 1_000,
            ttl_allocation: TtlAllocation::Uniform,
            saturation_pick: FilePickPolicy::MinOverlap,
        });
        let fs = MemFs::new();
        let picker = Picker::new(&o);
        // A tombstone born at tick 10 in an L1 file.
        let expired = make_file_with(&fs, 1, 1, 0, 0..50, 1000, 5, 10);
        let v = Version::empty(4).apply(vec![expired], &[], &[], &[]);
        // Before the deadline: nothing to do (level not saturated).
        assert!(picker.pick(&v, 11).is_none());
        // Long past it: the TTL trigger fires.
        let task = picker.pick(&v, 5_000).expect("expired file");
        assert_eq!(task.reason, CompactionReason::TtlExpired);
        assert_eq!(task.inputs[0].id, 1);
        assert_eq!(task.output_level, 2);
    }

    #[test]
    fn ttl_expiry_at_l0_takes_all_l0_files() {
        let mut o = opts(CompactionLayout::Leveling);
        o.fade = Some(FadeOptions {
            delete_persistence_threshold: 100,
            ttl_allocation: TtlAllocation::Uniform,
            saturation_pick: FilePickPolicy::MinOverlap,
        });
        let fs = MemFs::new();
        let picker = Picker::new(&o);
        let old = make_file_with(&fs, 1, 0, 1, 0..20, 100, 2, 0);
        let newer = make_file(&fs, 2, 0, 10..30, 500);
        let v = Version::empty(4).apply(vec![old, newer], &[], &[], &[]);
        let task = picker.pick(&v, 10_000).expect("expired");
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
        let task = picker.pick(&v, 0).expect("run count reached T");
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
        assert!(picker.pick(&v, 0).is_none());
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
        let task = picker.pick(&v, 0).expect("runs at level 2");
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
        o.baseline_pick = FilePickPolicy::RoundRobin;
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
        let queried = || picker.pick(&v, 0).expect("saturation").inputs[0].id;

        // A query does not rotate: the same file, however often asked.
        assert_eq!(queried(), 1);
        assert_eq!(queried(), 1);

        // Accepted picks rotate through the level and wrap around.
        for expected in [1, 2, 3] {
            let (task, claim) = picker.pick_claimed(&v, 0).expect("nothing in flight");
            assert_eq!(task.inputs[0].id, expected);
            picker.release(claim);
        }
        assert_eq!(queried(), 1);

        // A pick that loses on a claim conflict leaves the cursor put.
        let (_, claim) = picker.pick_claimed(&v, 0).expect("nothing in flight");
        assert_eq!(queried(), 2);
        assert!(
            picker.pick_claimed(&v, 0).is_none(),
            "file 2 shares the L2 file with the task in flight"
        );
        assert_eq!(queried(), 2, "the refused pick must not rotate past file 2");
        picker.release(claim);
        let (task, claim) = picker.pick_claimed(&v, 0).expect("conflict released");
        assert_eq!(task.inputs[0].id, 2);
        picker.release(claim);
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
