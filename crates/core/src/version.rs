//! Versions: the immutable description of the tree's file layout.
//!
//! A [`Version`] is a snapshot of which table files live at which level
//! (and, for tiering, in which run), plus the set of live secondary
//! range tombstones. Mutations (flush, compaction, range delete)
//! produce a *new* version; readers hold an `Arc<Version>` and are never
//! invalidated mid-query.

use std::sync::Arc;

use acheron_sstable::{Table, TableStats};
use acheron_types::{
    FragmentedRangeTombstones, KeyRangeTombstone, RangeTombstone, Result, SeqNo, Tick,
};
use bytes::Bytes;

/// Metadata for one live table file.
#[derive(Debug)]
pub struct FileMeta {
    /// Unique file number (names the `.sst` file).
    pub id: u64,
    /// Level the file lives at.
    pub level: usize,
    /// Run id within the level (tiering keeps several runs per level;
    /// leveling always uses run 0).
    pub run: u64,
    /// File size in bytes.
    pub size_bytes: u64,
    /// The table's stats block (tombstone metadata, fences, counts).
    pub stats: TableStats,
    /// Tick at which the file was created (flush or compaction output).
    pub created_tick: Tick,
    /// The open table reader.
    pub table: Arc<Table>,
}

impl FileMeta {
    /// Smallest user key in the file.
    pub fn min_key(&self) -> &Bytes {
        &self.stats.min_user_key
    }

    /// Largest user key in the file.
    pub fn max_key(&self) -> &Bytes {
        &self.stats.max_user_key
    }

    /// True if the file's key range overlaps `[lo, hi]` (user keys,
    /// inclusive).
    pub fn overlaps_keys(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.stats.entry_count > 0 && &self.min_key()[..] <= hi && lo <= &self.max_key()[..]
    }

    /// True if the file might contain `key`.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.overlaps_keys(key, key)
    }

    /// True if the file may hold an entry the secondary range tombstone
    /// `rt` erases: one older than it, under a delete key in its range.
    pub fn under_range_tombstone(&self, rt: &RangeTombstone) -> bool {
        self.stats.entry_count > 0
            && self.stats.min_seqno < rt.seqno
            && rt.range.overlaps(self.stats.min_dkey, self.stats.max_dkey)
    }

    /// True if the file may hold an entry the sort-key range tombstone
    /// `k` erases: one older than it, under a user key in its range.
    pub fn under_key_range_tombstone(&self, k: &KeyRangeTombstone) -> bool {
        self.stats.min_seqno < k.seqno && self.overlaps_keys(&k.start, &k.end)
    }

    /// True if the file carries sort-key range tombstones. Such a file
    /// may hold zero entries (a pure "carrier"); it still needs
    /// compaction to push its tombstones down and eventually purge them.
    pub fn has_key_range_tombstones(&self) -> bool {
        !self.stats.range_tombstones.is_empty()
    }

    /// The union span of the file's sort-key range tombstones, `None`
    /// when it carries none. The compaction picker folds this into the
    /// file's effective key span so carrier files (no entries, hence no
    /// key fences) still pull in the overlapping files whose covered
    /// entries must be dropped before the tombstones can purge.
    pub fn key_range_tombstone_span(&self) -> Option<(Bytes, Bytes)> {
        let mut lo: Option<Bytes> = None;
        let mut hi: Option<Bytes> = None;
        for k in &self.stats.range_tombstones {
            lo = Some(lo.map_or(k.start.clone(), |c: Bytes| c.min(k.start.clone())));
            hi = Some(hi.map_or(k.end.clone(), |c: Bytes| c.max(k.end.clone())));
        }
        lo.zip(hi)
    }
}

/// An immutable snapshot of the file layout.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// `levels[i]` = files at level i. Within a level, files are sorted
    /// by (run, min_key); leveling levels (single run) are therefore
    /// sorted by min_key with disjoint ranges (except L0, where runs are
    /// per-file and ranges overlap).
    pub levels: Vec<Vec<Arc<FileMeta>>>,
    /// Live secondary range tombstones, oldest first.
    pub range_tombstones: Vec<RangeTombstone>,
    /// Fragmented index over every sort-key range tombstone carried by a
    /// live file, rebuilt by [`Version::apply`] from the files' stats
    /// when an added or deleted file carries any. Lookups binary-search
    /// it instead of consulting per-file lists.
    pub key_range_tombstones: Arc<FragmentedRangeTombstones>,
}

impl Version {
    /// An empty tree with `max_levels` levels.
    pub fn empty(max_levels: usize) -> Version {
        Version {
            levels: vec![Vec::new(); max_levels],
            range_tombstones: Vec::new(),
            key_range_tombstones: Arc::default(),
        }
    }

    /// Total bytes at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels
            .get(level)
            .map_or(0, |fs| fs.iter().map(|f| f.size_bytes).sum())
    }

    /// Number of files at `level`.
    pub fn level_files(&self, level: usize) -> usize {
        self.levels.get(level).map_or(0, |fs| fs.len())
    }

    /// Distinct runs at `level`.
    pub fn level_runs(&self, level: usize) -> usize {
        let Some(files) = self.levels.get(level) else {
            return 0;
        };
        let mut runs: Vec<u64> = files.iter().map(|f| f.run).collect();
        runs.sort_unstable();
        runs.dedup();
        runs.len()
    }

    /// All live files, any order.
    pub fn all_files(&self) -> impl Iterator<Item = &Arc<FileMeta>> + '_ {
        self.levels.iter().flatten()
    }

    /// Total live point tombstones across all files.
    pub fn live_tombstones(&self) -> u64 {
        self.all_files().map(|f| f.stats.tombstone_count).sum()
    }

    /// Total live entries across all files.
    pub fn live_entries(&self) -> u64 {
        self.all_files().map(|f| f.stats.entry_count).sum()
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.all_files().map(|f| f.size_bytes).sum()
    }

    /// Deepest level that holds any file.
    pub fn deepest_nonempty_level(&self) -> Option<usize> {
        (0..self.levels.len())
            .rev()
            .find(|&l| !self.levels[l].is_empty())
    }

    /// Files at `level` overlapping the user-key range `[lo, hi]`.
    pub fn overlapping_files(&self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<Arc<FileMeta>> {
        self.levels
            .get(level)
            .map(|fs| {
                fs.iter()
                    .filter(|f| f.overlaps_keys(lo, hi))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True if any file *below* `level` overlaps `[lo, hi]` — if not,
    /// a compaction into `level` is effectively bottommost for that key
    /// range and may drop tombstones.
    pub fn overlaps_below(&self, level: usize, lo: &[u8], hi: &[u8]) -> bool {
        ((level + 1)..self.levels.len())
            .any(|l| self.levels[l].iter().any(|f| f.overlaps_keys(lo, hi)))
    }

    /// Apply a set of edits, producing the successor version.
    pub fn apply(
        &self,
        add: Vec<Arc<FileMeta>>,
        delete_ids: &[u64],
        add_rts: &[RangeTombstone],
        drop_rt_seqnos: &[SeqNo],
    ) -> Version {
        // The fragment index changes only with the set of files that
        // carry sort-key range tombstones; otherwise the parent's is kept.
        let krts_moved = add.iter().any(|f| f.has_key_range_tombstones())
            || self
                .all_files()
                .any(|f| f.has_key_range_tombstones() && delete_ids.contains(&f.id));
        let mut next = self.clone();
        for level in next.levels.iter_mut() {
            level.retain(|f| !delete_ids.contains(&f.id));
        }
        for f in add {
            let level = f.level;
            if level >= next.levels.len() {
                next.levels.resize(level + 1, Vec::new());
            }
            next.levels[level].push(f);
        }
        for level in next.levels.iter_mut() {
            level.sort_by(|a, b| {
                a.run
                    .cmp(&b.run)
                    .then_with(|| a.min_key().cmp(b.min_key()))
                    .then_with(|| a.id.cmp(&b.id))
            });
        }
        next.range_tombstones.extend_from_slice(add_rts);
        next.range_tombstones
            .retain(|rt| !drop_rt_seqnos.contains(&rt.seqno));
        if krts_moved {
            let krts = next.collect_key_range_tombstones();
            next.key_range_tombstones = if krts.is_empty() {
                Arc::default()
            } else {
                Arc::new(FragmentedRangeTombstones::build(&krts))
            };
        }
        next
    }

    /// Every sort-key range tombstone carried by a live file.
    pub fn collect_key_range_tombstones(&self) -> Vec<KeyRangeTombstone> {
        self.all_files()
            .flat_map(|f| f.stats.range_tombstones.iter().cloned())
            .collect()
    }

    /// Total live sort-key range tombstones across all files.
    pub fn live_key_range_tombstones(&self) -> u64 {
        self.all_files()
            .map(|f| f.stats.range_tombstones.len() as u64)
            .sum()
    }

    /// Range tombstones that can be retired: no live file still holds an
    /// entry they could shadow (decided from the files' seqno and dkey
    /// fences).
    pub fn retirable_range_tombstones(&self) -> Vec<SeqNo> {
        self.range_tombstones
            .iter()
            .filter(|rt| !self.all_files().any(|f| f.under_range_tombstone(rt)))
            .map(|rt| rt.seqno)
            .collect()
    }

    /// Internal consistency checks (invariant I6 at the version level):
    /// leveling levels must have disjoint, sorted key ranges per run.
    pub fn check_invariants(&self) -> Result<()> {
        use acheron_types::Error;
        for (level, files) in self.levels.iter().enumerate().skip(1) {
            // Group by run; within a run ranges must be disjoint & sorted.
            let mut by_run: std::collections::BTreeMap<u64, Vec<&Arc<FileMeta>>> =
                std::collections::BTreeMap::new();
            for f in files {
                // Entry-free carrier files (range tombstones only) have
                // no key fences and cannot overlap anything.
                if f.stats.entry_count == 0 {
                    continue;
                }
                by_run.entry(f.run).or_default().push(f);
            }
            for (run, run_files) in by_run {
                for pair in run_files.windows(2) {
                    if pair[0].max_key() >= pair[1].min_key() {
                        return Err(Error::Internal(format!(
                            "level {level} run {run}: files {} and {} overlap",
                            pair[0].id, pair[1].id
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acheron_sstable::{TableBuilder, TableOptions};
    use acheron_types::{DeleteKeyRange, Entry};
    use acheron_vfs::{MemFs, Vfs};

    /// Build a real FileMeta over a MemFs table.
    pub(crate) fn make_file(
        fs: &MemFs,
        id: u64,
        level: usize,
        keys: std::ops::Range<u32>,
        base_seq: u64,
    ) -> Arc<FileMeta> {
        let path = format!("{id:06}.sst");
        let mut b = TableBuilder::new(fs.create(&path).unwrap(), TableOptions::default()).unwrap();
        for (i, k) in keys.clone().enumerate() {
            b.add(&Entry::put(
                format!("key{k:06}").into_bytes(),
                b"v".to_vec(),
                base_seq + i as u64,
                u64::from(k),
            ))
            .unwrap();
        }
        let stats = b.finish().unwrap();
        let table = Table::open(fs.open(&path).unwrap()).unwrap();
        Arc::new(FileMeta {
            id,
            level,
            run: 0,
            size_bytes: fs.file_size(&path).unwrap(),
            stats,
            created_tick: 0,
            table,
        })
    }

    #[test]
    fn apply_adds_and_deletes() {
        let fs = MemFs::new();
        let v0 = Version::empty(3);
        let f1 = make_file(&fs, 1, 1, 0..10, 100);
        let f2 = make_file(&fs, 2, 1, 20..30, 200);
        let v1 = v0.apply(vec![f1, f2], &[], &[], &[]);
        assert_eq!(v1.level_files(1), 2);
        assert!(v1.level_bytes(1) > 0);
        let v2 = v1.apply(vec![], &[1], &[], &[]);
        assert_eq!(v2.level_files(1), 1);
        assert_eq!(v2.levels[1][0].id, 2);
        // v1 unchanged (immutability).
        assert_eq!(v1.level_files(1), 2);
    }

    #[test]
    fn files_sorted_by_min_key_after_apply() {
        let fs = MemFs::new();
        let v0 = Version::empty(3);
        let f_hi = make_file(&fs, 1, 1, 50..60, 100);
        let f_lo = make_file(&fs, 2, 1, 0..10, 200);
        let v1 = v0.apply(vec![f_hi, f_lo], &[], &[], &[]);
        assert_eq!(v1.levels[1][0].id, 2);
        assert_eq!(v1.levels[1][1].id, 1);
        v1.check_invariants().unwrap();
    }

    #[test]
    fn invariant_check_catches_overlap() {
        let fs = MemFs::new();
        let v0 = Version::empty(3);
        let a = make_file(&fs, 1, 1, 0..20, 100);
        let b = make_file(&fs, 2, 1, 10..30, 200);
        let v1 = v0.apply(vec![a, b], &[], &[], &[]);
        assert!(v1.check_invariants().is_err());
    }

    #[test]
    fn overlap_queries() {
        let fs = MemFs::new();
        let v = Version::empty(4).apply(
            vec![
                make_file(&fs, 1, 1, 0..10, 100),
                make_file(&fs, 2, 2, 5..15, 200),
            ],
            &[],
            &[],
            &[],
        );
        assert_eq!(v.overlapping_files(1, b"key000003", b"key000005").len(), 1);
        assert_eq!(v.overlapping_files(1, b"key000050", b"key000060").len(), 0);
        assert!(v.overlaps_below(1, b"key000007", b"key000008"));
        assert!(!v.overlaps_below(2, b"key000007", b"key000008"));
        assert_eq!(v.deepest_nonempty_level(), Some(2));
    }

    #[test]
    fn tombstone_and_entry_totals() {
        let fs = MemFs::new();
        let v = Version::empty(2).apply(vec![make_file(&fs, 1, 1, 0..50, 1)], &[], &[], &[]);
        assert_eq!(v.live_entries(), 50);
        assert_eq!(v.live_tombstones(), 0);
    }

    /// Build a FileMeta whose table carries sort-key range tombstones
    /// (and optionally no entries at all — a carrier file).
    fn make_krt_file(
        fs: &MemFs,
        id: u64,
        level: usize,
        keys: std::ops::Range<u32>,
        base_seq: u64,
        krts: Vec<KeyRangeTombstone>,
    ) -> Arc<FileMeta> {
        let path = format!("{id:06}.sst");
        let mut b = TableBuilder::new(fs.create(&path).unwrap(), TableOptions::default()).unwrap();
        for (i, k) in keys.clone().enumerate() {
            b.add(&Entry::put(
                format!("key{k:06}").into_bytes(),
                b"v".to_vec(),
                base_seq + i as u64,
                u64::from(k),
            ))
            .unwrap();
        }
        b.set_range_tombstones(krts);
        let stats = b.finish().unwrap();
        let table = Table::open(fs.open(&path).unwrap()).unwrap();
        Arc::new(FileMeta {
            id,
            level,
            run: 0,
            size_bytes: fs.file_size(&path).unwrap(),
            stats,
            created_tick: 0,
            table,
        })
    }

    fn krt(start: &str, end: &str, seqno: SeqNo, dkey: Tick) -> KeyRangeTombstone {
        KeyRangeTombstone {
            start: Bytes::copy_from_slice(start.as_bytes()),
            end: Bytes::copy_from_slice(end.as_bytes()),
            seqno,
            dkey,
        }
    }

    #[test]
    fn key_range_tombstones_aggregate_across_files() {
        let fs = MemFs::new();
        let f1 = make_krt_file(
            &fs,
            1,
            1,
            0..5,
            100,
            vec![krt("key000010", "key000020", 200, 7)],
        );
        let f2 = make_krt_file(
            &fs,
            2,
            2,
            30..35,
            10,
            vec![krt("key000040", "key000050", 90, 3)],
        );
        let v = Version::empty(4).apply(vec![f1, f2], &[], &[], &[]);
        assert_eq!(v.live_key_range_tombstones(), 2);
        assert_eq!(
            v.key_range_tombstones
                .max_seqno_covering(b"key000015", 1000),
            Some(200)
        );
        assert_eq!(
            v.key_range_tombstones
                .max_seqno_covering(b"key000045", 1000),
            Some(90)
        );
        assert_eq!(
            v.key_range_tombstones
                .max_seqno_covering(b"key000025", 1000),
            None
        );
        // Dropping the carrier file drops its tombstones from the index.
        let v2 = v.apply(vec![], &[1], &[], &[]);
        assert_eq!(v2.live_key_range_tombstones(), 1);
        assert_eq!(
            v2.key_range_tombstones
                .max_seqno_covering(b"key000015", 1000),
            None
        );
        v.check_invariants().unwrap();
    }

    #[test]
    fn an_install_rebuilds_the_index_only_when_a_carrier_comes_or_goes() {
        let fs = MemFs::new();
        let carrier = make_krt_file(&fs, 1, 1, 0..5, 100, vec![krt("a", "b", 200, 7)]);
        let v = Version::empty(4).apply(vec![carrier], &[], &[], &[]);
        let plain = |id| make_file(&fs, id, 2, 10..20, 1);
        // Files without range tombstones come and go: the index is shared.
        let v2 = v.apply(vec![plain(2), plain(3)], &[], &[], &[]);
        let v3 = v2.apply(vec![], &[2], &[], &[]);
        assert!(Arc::ptr_eq(
            &v.key_range_tombstones,
            &v3.key_range_tombstones
        ));
        // A carrier comes: rebuilt with its tombstones.
        let another = make_krt_file(&fs, 4, 1, 6..8, 100, vec![krt("x", "y", 300, 8)]);
        let v4 = v3.apply(vec![another], &[], &[], &[]);
        assert_eq!(
            v4.key_range_tombstones.max_seqno_covering(b"x", 1000),
            Some(300)
        );
        // A carrier goes: rebuilt without its tombstones.
        let v5 = v4.apply(vec![], &[1], &[], &[]);
        assert_eq!(v5.key_range_tombstones.max_seqno_covering(b"a", 1000), None);
        assert_eq!(
            v5.key_range_tombstones.max_seqno_covering(b"x", 1000),
            Some(300)
        );
    }

    #[test]
    fn carrier_files_pass_invariant_checks() {
        let fs = MemFs::new();
        // Two entry-free carriers in the same run: empty fences must not
        // be treated as overlapping ranges.
        let c1 = make_krt_file(&fs, 1, 1, 0..0, 0, vec![krt("a", "b", 10, 1)]);
        let c2 = make_krt_file(&fs, 2, 1, 0..0, 0, vec![krt("x", "z", 11, 2)]);
        let f = make_krt_file(&fs, 3, 1, 0..5, 100, vec![]);
        let v = Version::empty(3).apply(vec![c1, c2, f], &[], &[], &[]);
        v.check_invariants().unwrap();
        assert_eq!(v.live_key_range_tombstones(), 2);
        assert!(v.levels[1].iter().any(|f| f.has_key_range_tombstones()));
    }

    #[test]
    fn range_tombstone_lifecycle() {
        let fs = MemFs::new();
        // File with seqnos 100..110 and dkeys 0..10.
        let f = make_file(&fs, 1, 1, 0..10, 100);
        let rt_overlapping = RangeTombstone {
            seqno: 500,
            range: DeleteKeyRange::new(0, 5),
        };
        // Seqnos are unique in a real engine; the version identifies
        // tombstones by seqno, so the test keeps them distinct too.
        let rt_disjoint_dkey = RangeTombstone {
            seqno: 501,
            range: DeleteKeyRange::new(100, 200),
        };
        let rt_older = RangeTombstone {
            seqno: 50,
            range: DeleteKeyRange::new(0, 5),
        };
        let v = Version::empty(2).apply(
            vec![f],
            &[],
            &[rt_overlapping, rt_disjoint_dkey, rt_older],
            &[],
        );
        let retirable = v.retirable_range_tombstones();
        // Overlapping+newer cannot retire; dkey-disjoint can; older-than-
        // every-entry can (it shadows nothing).
        assert!(!retirable.contains(&500), "newer overlapping rt must stay");
        assert!(retirable.contains(&501), "dkey-disjoint rt can retire");
        assert!(retirable.contains(&50), "rt older than all data can retire");

        // Dropping a file retires its tombstones on the next apply.
        let v2 = v.apply(vec![], &[1], &[], &[]);
        assert_eq!(v2.retirable_range_tombstones().len(), 3);
        let seqs: Vec<SeqNo> = v2.retirable_range_tombstones();
        let v3 = v2.apply(vec![], &[], &[], &seqs);
        assert!(v3.range_tombstones.is_empty());
    }
}
