//! Compaction execution: merge inputs, apply the delete semantics
//! (version dedup, range-tombstone purge with KiWi page drops, bottom-
//! level tombstone drop), and write the output files.

use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

use acheron_sstable::{BlockCache, Table, TableBuilder, TableOptions};
use acheron_types::{Entry, KeyRangeTombstone, RangeTombstone, Result, SeqNo, Tick};
use acheron_vfs::Vfs;

use crate::filenames::sst_path;
use crate::merge::{CompactionStream, KvSource, MergeIterator};
use crate::options::DbOptions;
use crate::picker::CompactionTask;
use crate::version::{FileMeta, Version};

/// Everything a compaction changed, to be applied to the version and
/// recorded in the manifest by the caller.
#[derive(Debug)]
pub struct CompactionOutcome {
    /// New files (already open).
    pub added: Vec<Arc<FileMeta>>,
    /// Input file ids to remove from the version.
    pub deleted_ids: Vec<u64>,
    /// Whether this was a metadata-only trivial move.
    pub trivial_move: bool,
    /// Entries dropped because a newer version shadowed them.
    pub shadowed: u64,
    /// Entries purged by secondary range tombstones.
    pub range_purged: u64,
    /// Entries purged by sort-key range tombstones.
    pub key_range_purged: u64,
    /// `(delete tick, seqno)` of each point tombstone physically purged.
    pub tombstones_dropped: Vec<(Tick, SeqNo)>,
    /// `(delete tick, seqno)` of each sort-key range tombstone purged
    /// (resolved at the last level, exactly like point tombstones).
    pub key_range_tombstones_dropped: Vec<(Tick, SeqNo)>,
    /// Seqnos of tombstones that exited the tree without a bottommost
    /// purge: shadowed by a newer same-key version, swallowed by a
    /// secondary range tombstone, or dropped under a sort-key range
    /// tombstone. The delete ledger counts these as resolved so every
    /// tombstone has exactly one exit from the cohort accounting.
    pub tombstones_superseded: Vec<SeqNo>,
    /// KiWi pages dropped without being read.
    pub pages_dropped: u64,
    /// Bytes read from input tables.
    pub bytes_in: u64,
    /// Bytes written to output tables.
    pub bytes_out: u64,
    /// `(segment, bytes, stamp tick)` per value-log extent whose last
    /// tree reference this compaction dropped — the caller folds these
    /// into the vlog's dead-byte accounting. Entries that vanish via
    /// whole-page drops are not itemized here (the page is never read);
    /// their bytes surface when GC rewrites the segment.
    pub vlog_dead: Vec<(u64, u64, Tick)>,
}

impl CompactionOutcome {
    /// Total entries the merge removed from the tree: shadowed
    /// versions, range-deleted entries, and purged point tombstones
    /// (the flight recorder's `CompactionEnd` payload).
    pub fn entries_dropped(&self) -> u64 {
        self.shadowed
            + self.range_purged
            + self.key_range_purged
            + self.tombstones_dropped.len() as u64
    }
}

/// Execute `task` against `version`, writing outputs through `fs`.
///
/// `snapshots` are the live reader snapshots that pin old versions;
/// `next_file_id` supplies fresh file numbers.
#[allow(clippy::too_many_arguments)] // explicit context beats an opaque struct here
pub fn run_compaction(
    fs: &Arc<dyn Vfs>,
    dir: &str,
    opts: &DbOptions,
    cache: Option<&Arc<BlockCache>>,
    version: &Version,
    task: &CompactionTask,
    snapshots: &[SeqNo],
    now: Tick,
    mut next_file_id: impl FnMut() -> u64,
) -> Result<CompactionOutcome> {
    let deleted_ids: Vec<u64> = task.all_inputs().map(|f| f.id).collect();
    let bytes_in = task.input_bytes();

    // Bottommost iff no version of any input key can live outside this
    // compaction at or below the output level: nothing *below* the
    // output level overlaps, and every overlapping file *at* the output
    // level is an input (tiering stacks runs, so the output level may
    // hold older runs that are not part of the merge — dropping
    // tombstones then would resurrect the versions those runs hold).
    let bottommost = match task.key_range() {
        Some((lo, hi)) => {
            !version.overlaps_below(task.output_level, &lo, &hi)
                && version
                    .overlapping_files(task.output_level, &lo, &hi)
                    .iter()
                    .all(|f| deleted_ids.contains(&f.id))
        }
        None => true,
    };

    // Trivial move: a single file with nothing to merge and no purge
    // opportunity moves by metadata only. Purges only happen at the
    // bottommost level (newest-version-decides semantics), so above it a
    // move is always safe; into the bottom it must not skip a tombstone
    // drop or range purge. (L0 is excluded: its files must be merged to
    // re-establish disjointness.)
    let purge_opportunity = bottommost
        && !task.inputs.is_empty()
        && (task.inputs[0].stats.tombstone_count > 0
            || !task.inputs[0].stats.range_tombstones.is_empty()
            || version.range_tombstones.iter().any(|rt| {
                task.inputs[0].stats.min_seqno < rt.seqno
                    && rt
                        .range
                        .overlaps(task.inputs[0].stats.min_dkey, task.inputs[0].stats.max_dkey)
            }));
    if task.level != 0
        && task.inputs.len() == 1
        && task.next_level_inputs.is_empty()
        && task.level != task.output_level
        && !purge_opportunity
    {
        let src = &task.inputs[0];
        let moved = Arc::new(FileMeta {
            id: src.id,
            level: task.output_level,
            run: task.output_run,
            size_bytes: src.size_bytes,
            stats: src.stats.clone(),
            created_tick: src.created_tick,
            table: Arc::clone(&src.table),
        });
        return Ok(CompactionOutcome {
            added: vec![moved],
            deleted_ids: vec![src.id],
            trivial_move: true,
            shadowed: 0,
            range_purged: 0,
            key_range_purged: 0,
            tombstones_dropped: Vec::new(),
            key_range_tombstones_dropped: Vec::new(),
            tombstones_superseded: Vec::new(),
            pages_dropped: 0,
            bytes_in: 0,
            bytes_out: 0,
            vlog_dead: Vec::new(),
        });
    }

    // Sort-key range tombstones carried by the inputs. One is purged
    // here iff the merge is bottommost, no snapshot can still read an
    // entry it shadows, and no live file *outside* the compaction holds
    // an entry old enough to be shadowed (dropping it then would let
    // that older version resurface once the shadow is gone). Survivors
    // ride along into the first output's stats block.
    let mut surviving_krts: Vec<KeyRangeTombstone> = Vec::new();
    let mut key_range_tombstones_dropped: Vec<(Tick, SeqNo)> = Vec::new();
    for k in task
        .all_inputs()
        .flat_map(|f| f.stats.range_tombstones.iter())
    {
        let purgeable = bottommost
            && snapshots.is_empty()
            && !version.all_files().any(|f| {
                !deleted_ids.contains(&f.id)
                    && f.stats.min_seqno < k.seqno
                    && f.overlaps_keys(&k.start, &k.end)
            });
        if purgeable {
            key_range_tombstones_dropped.push((k.dkey, k.seqno));
        } else {
            surviving_krts.push(k.clone());
        }
    }

    // Entries shadowed by any live sort-key range tombstone (the
    // version-wide fragment index, so tombstones held by non-input
    // files erase here too) are dropped under the same conditions that
    // allow point-tombstone drops: bottommost, no snapshots.
    let krt_drop_index =
        (bottommost && snapshots.is_empty() && !version.key_range_tombstones.is_empty())
            .then(|| version.key_range_tombstones.as_ref());
    let mut key_range_purged: u64 = 0;

    // Page drops are only safe (a) at the bottommost level — higher up,
    // dropping a covered chain head would let an older, deeper version
    // resurface under newest-version-decides semantics — and (b) with no
    // live snapshots (a snapshot might still read a covered page).
    let page_drop_rts: Vec<RangeTombstone> = if bottommost && snapshots.is_empty() {
        version.range_tombstones.clone()
    } else {
        Vec::new()
    };

    // Tile drops are further restricted to input files whose keys can
    // have no older versions anywhere else: the file must sit at the
    // *deepest* input level (older versions only live deeper), and no
    // sibling input at that same level may overlap its key range (L0
    // files — and tiered runs — overlap in key space while holding
    // different strata of the same keys, so dropping a page from one
    // could hide a chain head whose older version survives in another).
    let deepest_input_level = task.all_inputs().map(|f| f.level).max().unwrap_or(0);
    let deepest_inputs: Vec<&Arc<FileMeta>> = task
        .all_inputs()
        .filter(|f| f.level == deepest_input_level)
        .collect();
    let drop_eligible = |f: &FileMeta| -> bool {
        f.level == deepest_input_level
            && f.stats.entry_count > 0
            && !deepest_inputs.iter().any(|g| {
                g.id != f.id && g.stats.entry_count > 0 && g.overlaps_keys(f.min_key(), f.max_key())
            })
    };
    let mut dropped_before: u64 = 0;
    let mut sources: Vec<Box<dyn KvSource>> = Vec::with_capacity(deleted_ids.len());
    for f in task.all_inputs() {
        dropped_before += f.table.counters.pages_dropped.load(AtomicOrdering::Relaxed);
        let rts_for_file = if drop_eligible(f) {
            page_drop_rts.clone()
        } else {
            Vec::new()
        };
        // Compaction inputs are read once and rewritten: use what is
        // resident, but fill nothing and promote nothing, so the merge
        // neither evicts the read path's working set nor inflates the
        // memory arbiter's fill signal.
        let mut it = f.table.iter_nofill(rts_for_file);
        it.seek_to_first()?;
        sources.push(Box::new(it));
    }

    let merge = MergeIterator::new(sources);
    let mut stream =
        CompactionStream::new(merge, &version.range_tombstones, snapshots, bottommost, now);

    let table_opts = TableOptions {
        page_size: opts.page_size,
        pages_per_tile: opts.pages_per_tile,
        bloom_bits_per_key: opts.bloom_bits_per_key,
        ..TableOptions::default()
    };

    let mut added: Vec<Arc<FileMeta>> = Vec::new();
    let mut builder: Option<(u64, TableBuilder)> = None;
    let mut last_user_key: Vec<u8> = Vec::new();
    let mut bytes_out = 0u64;

    let finish_builder = |builder: &mut Option<(u64, TableBuilder)>,
                          added: &mut Vec<Arc<FileMeta>>,
                          bytes_out: &mut u64|
     -> Result<()> {
        if let Some((id, b)) = builder.take() {
            let (stats, lease) = b.finish_leased()?;
            let path = sst_path(dir, id);
            if stats.entry_count == 0 && stats.range_tombstones.is_empty() {
                fs.delete(&path)?;
                return Ok(());
            }
            let size = fs.file_size(&path)?;
            *bytes_out += size;
            let table = Table::open_leased(fs.open(&path)?, lease)?;
            added.push(Arc::new(FileMeta {
                id,
                level: task.output_level,
                run: task.output_run,
                size_bytes: size,
                stats,
                created_tick: now,
                table,
            }));
        }
        Ok(())
    };

    // Outputs are written through to the cache: a page a compaction
    // just produced is the page the next read of its keys wants.
    let start_output = |id: u64| -> Result<TableBuilder> {
        let file = fs.create(&sst_path(dir, id))?;
        TableBuilder::with_cache(file, table_opts.clone(), cache.cloned())
    };

    let mut pending_krts = (!surviving_krts.is_empty()).then_some(surviving_krts);
    let mut krt_vlog_dead: Vec<(u64, u64, Tick)> = Vec::new();
    let mut krt_superseded: Vec<SeqNo> = Vec::new();
    while let Some(entry) = stream.next_surviving()? {
        if let Some(idx) = krt_drop_index {
            if idx
                .max_seqno_covering(&entry.key, u64::MAX)
                .is_some_and(|cover| entry.seqno < cover)
            {
                key_range_purged += 1;
                if entry.is_tombstone() {
                    krt_superseded.push(entry.seqno);
                }
                if entry.kind == acheron_types::ValueKind::ValuePointer {
                    if let Some(ptr) = acheron_types::ValuePointer::decode(&entry.value) {
                        krt_vlog_dead.push((ptr.segment, u64::from(ptr.len), now));
                    }
                }
                continue;
            }
        }
        let split = match &builder {
            Some((_, b)) => b.file_bytes() >= opts.target_file_bytes && entry.key != last_user_key,
            None => false,
        };
        if split {
            finish_builder(&mut builder, &mut added, &mut bytes_out)?;
        }
        if builder.is_none() {
            let id = next_file_id();
            let mut b = start_output(id)?;
            if let Some(krts) = pending_krts.take() {
                b.set_range_tombstones(krts);
            }
            builder = Some((id, b));
        }
        let (_, b) = builder.as_mut().expect("builder just ensured");
        b.add(&entry)?;
        last_user_key.clear();
        last_user_key.extend_from_slice(&entry.key);
    }
    if let Some(krts) = pending_krts.take() {
        // No surviving entries to attach the tombstones to: write a
        // carrier table whose stats block alone keeps them durable.
        let id = next_file_id();
        let mut b = start_output(id)?;
        b.set_range_tombstones(krts);
        builder = Some((id, b));
    }
    finish_builder(&mut builder, &mut added, &mut bytes_out)?;

    let mut pages_dropped: u64 = 0;
    for f in task.all_inputs() {
        pages_dropped += f.table.counters.pages_dropped.load(AtomicOrdering::Relaxed);
    }
    pages_dropped = pages_dropped.saturating_sub(dropped_before);

    let mut vlog_dead = stream.vlog_dead;
    vlog_dead.extend(krt_vlog_dead);
    let mut tombstones_superseded = stream.tombstones_superseded;
    tombstones_superseded.extend(krt_superseded);

    Ok(CompactionOutcome {
        added,
        deleted_ids,
        trivial_move: false,
        shadowed: stream.shadowed,
        range_purged: stream.range_purged,
        key_range_purged,
        tombstones_dropped: stream.tombstones_dropped,
        key_range_tombstones_dropped,
        tombstones_superseded,
        pages_dropped,
        bytes_in,
        bytes_out,
        vlog_dead,
    })
}

/// Flush a memtable's entries into a fresh L0 table file.
///
/// Returns the new file's metadata. `entries` must be in internal-key
/// order (the memtable guarantees this). `key_range_tombstones` are the
/// buffer's sort-key range tombstones, carried into the table's stats
/// block; a table holding only those (no entries) is still written — a
/// *carrier* file whose sole job is to keep the tombstones durable
/// until a bottommost compaction purges them.
#[allow(clippy::too_many_arguments)]
pub fn write_l0_table<'a>(
    fs: &Arc<dyn Vfs>,
    dir: &str,
    opts: &DbOptions,
    cache: Option<&Arc<BlockCache>>,
    entries: impl Iterator<Item = &'a Entry>,
    key_range_tombstones: Vec<KeyRangeTombstone>,
    id: u64,
    run: u64,
    now: Tick,
) -> Result<Option<Arc<FileMeta>>> {
    let table_opts = TableOptions {
        page_size: opts.page_size,
        pages_per_tile: opts.pages_per_tile,
        bloom_bits_per_key: opts.bloom_bits_per_key,
        ..TableOptions::default()
    };
    let path = sst_path(dir, id);
    let file = fs.create(&path)?;
    let mut b = TableBuilder::with_cache(file, table_opts, cache.cloned())?;
    let mut any = false;
    for e in entries {
        b.add(e)?;
        any = true;
    }
    let carries_krts = !key_range_tombstones.is_empty();
    if carries_krts {
        b.set_range_tombstones(key_range_tombstones);
    }
    let (stats, lease) = b.finish_leased()?;
    if !any && !carries_krts {
        fs.delete(&path)?;
        return Ok(None);
    }
    let size = fs.file_size(&path)?;
    let table = Table::open_leased(fs.open(&path)?, lease)?;
    Ok(Some(Arc::new(FileMeta {
        id,
        level: 0,
        run,
        size_bytes: size,
        stats,
        created_tick: now,
        table,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::picker::{CompactionReason, CompactionTask};
    use crate::testutil::{make_file, make_file_with};
    use acheron_types::DeleteKeyRange;
    use acheron_vfs::MemFs;

    fn opts() -> DbOptions {
        DbOptions {
            max_levels: 4,
            target_file_bytes: 4 << 10,
            page_size: 512,
            ..DbOptions::default()
        }
    }

    fn task(
        level: usize,
        inputs: Vec<Arc<FileMeta>>,
        next: Vec<Arc<FileMeta>>,
        output_level: usize,
    ) -> CompactionTask {
        CompactionTask {
            level,
            inputs,
            next_level_inputs: next,
            output_level,
            output_run: 0,
            reason: CompactionReason::Manual,
        }
    }

    fn run(
        fs: &Arc<MemFs>,
        version: &Version,
        t: &CompactionTask,
        snapshots: &[SeqNo],
    ) -> CompactionOutcome {
        let mut next_id = 100u64;
        run_compaction(
            &(Arc::clone(fs) as Arc<dyn Vfs>),
            "",
            &opts(),
            None,
            version,
            t,
            snapshots,
            1_000,
            || {
                let id = next_id;
                next_id += 1;
                id
            },
        )
        .unwrap()
    }

    #[test]
    fn trivial_move_keeps_bytes_untouched() {
        let fs = Arc::new(MemFs::new());
        let f = make_file(&fs, 1, 1, 0..100, 100);
        let v = Version::empty(4).apply(vec![Arc::clone(&f)], &[], &[], &[]);
        let t = task(1, vec![f], vec![], 2);
        let out = run(&fs, &v, &t, &[]);
        assert!(out.trivial_move);
        assert_eq!(out.bytes_in, 0);
        assert_eq!(out.bytes_out, 0);
        assert_eq!(out.added.len(), 1);
        assert_eq!(out.added[0].level, 2);
        assert_eq!(out.added[0].id, 1, "same physical file");
    }

    #[test]
    fn no_trivial_move_into_bottom_with_tombstones() {
        let fs = Arc::new(MemFs::new());
        let f = make_file_with(&fs, 1, 2, 0, 0..100, 100, 4, 5);
        let v = Version::empty(4).apply(vec![Arc::clone(&f)], &[], &[], &[]);
        let t = task(2, vec![f], vec![], 3);
        let out = run(&fs, &v, &t, &[]);
        assert!(
            !out.trivial_move,
            "a purge opportunity must force a rewrite"
        );
        assert_eq!(out.tombstones_dropped.len(), 25);
        // Output contains only the 75 puts.
        let total: u64 = out.added.iter().map(|a| a.stats.entry_count).sum();
        assert_eq!(total, 75);
    }

    #[test]
    fn merge_dedups_and_counts_shadowed() {
        let fs = Arc::new(MemFs::new());
        // Same key range, newer seqnos on top.
        let newer = make_file(&fs, 1, 1, 0..50, 1000);
        let older = make_file(&fs, 2, 2, 0..50, 100);
        let v =
            Version::empty(4).apply(vec![Arc::clone(&newer), Arc::clone(&older)], &[], &[], &[]);
        let t = task(1, vec![newer], vec![older], 2);
        let out = run(&fs, &v, &t, &[]);
        assert_eq!(out.shadowed, 50);
        let total: u64 = out.added.iter().map(|a| a.stats.entry_count).sum();
        assert_eq!(total, 50, "one version per key survives");
        assert!(out.bytes_in > 0 && out.bytes_out > 0);
    }

    #[test]
    fn snapshot_blocks_dedup() {
        let fs = Arc::new(MemFs::new());
        let newer = make_file(&fs, 1, 1, 0..50, 1000);
        let older = make_file(&fs, 2, 2, 0..50, 100);
        let v =
            Version::empty(4).apply(vec![Arc::clone(&newer), Arc::clone(&older)], &[], &[], &[]);
        let t = task(1, vec![newer], vec![older], 2);
        // Snapshot at seqno 500 sees the older versions.
        let out = run(&fs, &v, &t, &[500]);
        assert_eq!(out.shadowed, 0);
        let total: u64 = out.added.iter().map(|a| a.stats.entry_count).sum();
        assert_eq!(total, 100, "both strata survive");
    }

    #[test]
    fn bottommost_requires_all_output_level_overlaps_as_inputs() {
        let fs = Arc::new(MemFs::new());
        // A tombstone-bearing L2 file merges into L3, but another L3 run
        // (not an input) overlaps: tombstones must survive.
        let dirty = make_file_with(&fs, 1, 2, 0, 0..50, 1000, 4, 5);
        let stranger = make_file_with(&fs, 2, 3, 1, 0..50, 100, 0, 0);
        let v = Version::empty(4).apply(
            vec![Arc::clone(&dirty), Arc::clone(&stranger)],
            &[],
            &[],
            &[],
        );
        let t = task(2, vec![dirty], vec![], 3);
        let out = run(&fs, &v, &t, &[]);
        assert!(
            out.tombstones_dropped.is_empty(),
            "not bottommost: keep tombstones"
        );
        let tombstones: u64 = out.added.iter().map(|a| a.stats.tombstone_count).sum();
        assert_eq!(tombstones, 13);
    }

    #[test]
    fn output_splits_at_target_file_size() {
        let fs = Arc::new(MemFs::new());
        // ~30 KiB of payload vs a 4 KiB target: several outputs.
        let big = make_file(&fs, 1, 1, 0..1500, 1000);
        let v = Version::empty(4).apply(vec![Arc::clone(&big)], &[], &[], &[]);
        // Force a rewrite by giving it an overlapping (empty-ish) partner.
        let partner = make_file(&fs, 2, 2, 0..1, 1);
        let v = v.apply(vec![Arc::clone(&partner)], &[], &[], &[]);
        let t = task(1, vec![big], vec![partner], 2);
        let out = run(&fs, &v, &t, &[]);
        assert!(
            out.added.len() >= 3,
            "expected multiple outputs, got {}",
            out.added.len()
        );
        // Outputs are disjoint and ordered.
        for pair in out.added.windows(2) {
            assert!(pair[0].max_key() < pair[1].min_key());
        }
    }

    #[test]
    fn range_tombstone_purges_and_drops_pages_at_bottom() {
        let fs = Arc::new(MemFs::new());
        let f = make_file(&fs, 1, 2, 0..400, 1000); // dkey = key id
        let rt = RangeTombstone {
            seqno: 5_000,
            range: DeleteKeyRange::new(0, 199),
        };
        let v = Version::empty(4).apply(vec![Arc::clone(&f)], &[], &[rt], &[]);
        let t = task(2, vec![f], vec![], 3);
        let out = run(&fs, &v, &t, &[]);
        assert_eq!(out.range_purged + dropped_entries(&out, &v), 200);
        let total: u64 = out.added.iter().map(|a| a.stats.entry_count).sum();
        assert_eq!(total, 200, "uncovered half survives");
        assert!(
            out.pages_dropped > 0,
            "h=1 single-version pages are droppable"
        );
    }

    /// Entries that vanished via page drops (not individually counted).
    fn dropped_entries(out: &CompactionOutcome, v: &Version) -> u64 {
        let before: u64 = v.all_files().map(|f| f.stats.entry_count).sum();
        let after: u64 = out.added.iter().map(|a| a.stats.entry_count).sum();
        before - after - out.shadowed - out.range_purged
    }

    #[test]
    fn empty_inputs_produce_no_outputs() {
        let fs = Arc::new(MemFs::new());
        let v = Version::empty(4);
        let t = task(1, vec![], vec![], 2);
        let out = run(&fs, &v, &t, &[]);
        assert!(out.added.is_empty());
        assert!(!out.trivial_move);
    }
}
