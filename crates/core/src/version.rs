//! Versions: the immutable description of the tree's file layout.
//!
//! A [`Version`] is a snapshot of which table files live at which level
//! (and, for tiering, in which run), plus the set of live secondary
//! range tombstones. Mutations (flush, compaction, range delete)
//! produce a *new* version; readers hold an `Arc<Version>` and are never
//! invalidated mid-query.

use std::sync::Arc;

use acheron_memtable::Memtable;
use acheron_sstable::{Table, TableStats};
use acheron_types::{
    FlatKeys, FragmentedRangeTombstones, KeyRangeTombstone, RangeTombstone, Result, SeqNo, Tick,
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
        &self.min_key()[..] <= hi && lo <= &self.max_key()[..]
    }

    /// True if the file may hold an entry the secondary range tombstone
    /// `rt` erases: one older than it, under a delete key in its range.
    pub fn under_range_tombstone(&self, rt: &RangeTombstone) -> bool {
        self.stats.min_seqno < rt.seqno
            && rt.range.overlaps(self.stats.min_dkey, self.stats.max_dkey)
    }

    /// True if the file may hold an entry the sort-key range tombstone
    /// `k` erases: one older than it, under a user key in its range.
    pub fn under_key_range_tombstone(&self, k: &KeyRangeTombstone) -> bool {
        self.stats.min_seqno < k.seqno && self.overlaps_keys(&k.start, &k.end)
    }
}

/// One level's file bounds in flat arrays, in the level's file order:
/// smallest and largest user keys back to back, and the seqno span. A
/// get or a scan chooses its files from these without touching a
/// [`FileMeta`], and on a sorted level with two binary searches.
#[derive(Debug)]
pub struct LevelBounds {
    min_keys: FlatKeys,
    max_keys: FlatKeys,
    min_seqnos: Vec<SeqNo>,
    max_seqnos: Vec<SeqNo>,
    /// The largest of `max_seqnos` (0 for an empty level).
    ceiling: SeqNo,
    /// True if the files' key ranges are disjoint and ascending in level
    /// order (a leveled level, or a tiered one whose runs happen not to
    /// overlap). L0 and overlapping runs are not.
    sorted: bool,
}

impl LevelBounds {
    fn build(files: &[Arc<FileMeta>]) -> LevelBounds {
        let key_bytes = |key: fn(&FileMeta) -> &Bytes| files.iter().map(|f| key(f).len()).sum();
        let mut bounds = LevelBounds {
            min_keys: FlatKeys::with_capacity(files.len(), key_bytes(FileMeta::min_key)),
            max_keys: FlatKeys::with_capacity(files.len(), key_bytes(FileMeta::max_key)),
            min_seqnos: files.iter().map(|f| f.stats.min_seqno).collect(),
            max_seqnos: files.iter().map(|f| f.stats.max_seqno).collect(),
            ceiling: files.iter().map(|f| f.stats.max_seqno).max().unwrap_or(0),
            sorted: true,
        };
        for (i, f) in files.iter().enumerate() {
            bounds.sorted &=
                f.min_key() <= f.max_key() && (i == 0 || files[i - 1].max_key() < f.min_key());
            bounds.min_keys.push(f.min_key());
            bounds.max_keys.push(f.max_key());
        }
        bounds
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.min_seqnos.len()
    }

    /// True if the level holds no file.
    pub fn is_empty(&self) -> bool {
        self.min_seqnos.is_empty()
    }

    /// True if the files' key ranges are disjoint and ascending, so
    /// [`LevelBounds::overlapping`] binary-searches.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Smallest seqno in file `i`.
    pub fn min_seqno(&self, i: usize) -> SeqNo {
        self.min_seqnos[i]
    }

    /// Largest seqno in file `i`.
    pub fn max_seqno(&self, i: usize) -> SeqNo {
        self.max_seqnos[i]
    }

    /// Largest seqno in the level.
    pub fn ceiling(&self) -> SeqNo {
        self.ceiling
    }

    /// Indexes of the files whose key range overlaps `[lo, hi]` (as
    /// [`FileMeta::overlaps_keys`]), ascending. On a sorted level the
    /// files that end at or after `lo` are a suffix, found by a binary
    /// search, and the answer is its run of files that start at or
    /// before `hi`; elsewhere each file's bounds are compared in turn.
    pub fn overlapping<'a>(
        &'a self,
        lo: &'a [u8],
        hi: &'a [u8],
    ) -> impl DoubleEndedIterator<Item = usize> + 'a {
        let (from, to) = if self.sorted {
            let from = self.max_keys.partition_point(|max| max < lo);
            let mut to = from;
            while to < self.len() && self.min_keys.get(to) <= hi {
                to += 1;
            }
            (from, to)
        } else {
            (0, self.len())
        };
        (from..to).filter(move |&i| {
            self.sorted || (self.min_keys.get(i) <= hi && lo <= self.max_keys.get(i))
        })
    }
}

/// The files a compaction wrote with every range tombstone of its
/// starting version applied: the outputs of a bottommost merge that no
/// snapshot pinned. They hold no entry a tombstone of `start` erases,
/// whatever their fences say.
pub struct Applied<'a> {
    /// The version the compaction merged against.
    pub start: &'a Version,
    /// Its output file ids.
    pub outputs: &'a [u64],
}

/// The range tombstones one install retired, of either kind.
#[derive(Debug, Default)]
pub struct Retired {
    /// Seqnos of the retired secondary range tombstones.
    pub secondary: Vec<SeqNo>,
    /// The retired sort-key range tombstones.
    pub key_ranges: Vec<KeyRangeTombstone>,
}

impl Retired {
    /// True if nothing retired.
    pub fn is_empty(&self) -> bool {
        self.secondary.is_empty() && self.key_ranges.is_empty()
    }
}

/// An immutable snapshot of the file layout.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// `levels[i]` = files at level i. Within a level, files are sorted
    /// by (run, min_key); leveling levels (single run) are therefore
    /// sorted by min_key with disjoint ranges (except L0, where runs are
    /// per-file and ranges overlap). Changed only by [`Version::apply`],
    /// which rebuilds `bounds` from it.
    pub levels: Vec<Vec<Arc<FileMeta>>>,
    /// `bounds[i]`: the flat bounds index of `levels[i]`, once a file
    /// has been added.
    bounds: Arc<[LevelBounds]>,
    /// Live secondary range tombstones, oldest first.
    pub range_tombstones: Vec<RangeTombstone>,
    /// Live sort-key range tombstones that left the write buffers,
    /// oldest first.
    pub key_range_tombstones: Vec<KeyRangeTombstone>,
    /// Fragmented index over `key_range_tombstones`, rebuilt by
    /// [`Version::apply_key_ranges`] when the list changes. Lookups
    /// binary-search it.
    pub key_range_index: Arc<FragmentedRangeTombstones>,
}

impl Version {
    /// An empty tree with `max_levels` levels.
    pub fn empty(max_levels: usize) -> Version {
        Version {
            levels: vec![Vec::new(); max_levels],
            bounds: Arc::default(),
            range_tombstones: Vec::new(),
            key_range_tombstones: Vec::new(),
            key_range_index: Arc::default(),
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

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.all_files().map(|f| f.size_bytes).sum()
    }

    /// The flat bounds index of `level` (empty past the last level).
    pub fn level_bounds(&self, level: usize) -> &LevelBounds {
        static EMPTY: LevelBounds = LevelBounds {
            min_keys: FlatKeys::new(),
            max_keys: FlatKeys::new(),
            min_seqnos: Vec::new(),
            max_seqnos: Vec::new(),
            ceiling: 0,
            sorted: true,
        };
        self.bounds.get(level).map_or(&EMPTY, |b| b)
    }

    /// Files at `level` overlapping the user-key range `[lo, hi]`.
    pub fn overlapping_files(&self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<Arc<FileMeta>> {
        let files = self.levels.get(level).map_or(&[][..], |fs| fs);
        (self.level_bounds(level).overlapping(lo, hi))
            .map(|i| Arc::clone(&files[i]))
            .collect()
    }

    /// True if any file *below* `level` overlaps `[lo, hi]` — if not,
    /// a compaction into `level` is effectively bottommost for that key
    /// range and may drop tombstones.
    pub fn overlaps_below(&self, level: usize, lo: &[u8], hi: &[u8]) -> bool {
        ((level + 1)..self.levels.len())
            .any(|l| self.level_bounds(l).overlapping(lo, hi).next().is_some())
    }

    /// Indexes at `level` of the files under the sort-key range
    /// tombstone `k` (as [`FileMeta::under_key_range_tombstone`]).
    fn under_key_range_at<'a>(
        &'a self,
        level: usize,
        k: &'a KeyRangeTombstone,
    ) -> impl Iterator<Item = usize> + 'a {
        let bounds = self.level_bounds(level);
        (bounds.overlapping(&k.start, &k.end)).filter(move |&i| bounds.min_seqno(i) < k.seqno)
    }

    /// Apply a set of edits, producing the successor version.
    pub fn apply(
        &self,
        add: Vec<Arc<FileMeta>>,
        delete_ids: &[u64],
        add_rts: &[RangeTombstone],
        drop_rt_seqnos: &[SeqNo],
    ) -> Version {
        let mut next = self.clone();
        for level in next.levels.iter_mut() {
            level.retain(|f| !delete_ids.contains(&f.id));
        }
        for f in add {
            debug_assert!(f.stats.entry_count > 0, "table {} holds no entry", f.id);
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
        next.bounds = next
            .levels
            .iter()
            .map(|files| LevelBounds::build(files))
            .collect();
        next.range_tombstones.extend_from_slice(add_rts);
        next.range_tombstones
            .retain(|rt| !drop_rt_seqnos.contains(&rt.seqno));
        next
    }

    /// Add and drop sort-key range tombstones; the fragment index is
    /// rebuilt when the list changed.
    pub fn apply_key_ranges(mut self, add: &[KeyRangeTombstone], drop: &[SeqNo]) -> Version {
        let before = self.key_range_tombstones.len();
        self.key_range_tombstones
            .retain(|k| !drop.contains(&k.seqno));
        if add.is_empty() && self.key_range_tombstones.len() == before {
            return self;
        }
        self.key_range_tombstones.extend_from_slice(add);
        self.key_range_index =
            Arc::new(FragmentedRangeTombstones::build(&self.key_range_tombstones));
        self
    }

    /// The station of the sort-key range tombstone `k`: the shallowest
    /// level holding a file under it, `None` when no file is.
    pub fn station(&self, k: &KeyRangeTombstone) -> Option<usize> {
        (0..self.levels.len()).find(|&l| self.under_key_range_at(l, k).next().is_some())
    }

    /// Retire every range tombstone, of either kind, that can erase
    /// nothing more, and return the successor version with them gone.
    /// A tombstone retires when no write buffer holds an older entry
    /// under it and no live file is under it, apart from the files
    /// `applied` wrote with it applied (when `applied.start` held it).
    /// A buffer is under a sort-key tombstone whenever it holds an older
    /// entry: it keeps no key fence.
    pub fn retire(
        self,
        buffers: &[&Memtable],
        applied: Option<&Applied<'_>>,
    ) -> (Version, Retired) {
        // The seqnos of the tombstones `applied` wrote its outputs with.
        let held: std::collections::HashSet<SeqNo> = applied.map_or_else(Default::default, |a| {
            let rts = a.start.range_tombstones.iter().map(|rt| rt.seqno);
            rts.chain(a.start.key_range_tombstones.iter().map(|k| k.seqno))
                .collect()
        });
        let exempt = |seqno: SeqNo, f: &FileMeta| {
            held.contains(&seqno) && applied.is_some_and(|a| a.outputs.contains(&f.id))
        };
        let buffered = |seqno: SeqNo, in_buffer: &dyn Fn(&Memtable) -> bool| {
            (buffers.iter()).any(|m| m.min_seqno().is_some_and(|s| s < seqno) && in_buffer(m))
        };
        let retired = Retired {
            secondary: (self.range_tombstones.iter())
                .filter(|rt| {
                    let in_dkeys = |m: &Memtable| {
                        let s = m.stats();
                        (s.min_dkey.zip(s.max_dkey))
                            .is_some_and(|(lo, hi)| rt.range.overlaps(lo, hi))
                    };
                    !buffered(rt.seqno, &in_dkeys)
                        && !(self.all_files())
                            .any(|f| f.under_range_tombstone(rt) && !exempt(rt.seqno, f))
                })
                .map(|rt| rt.seqno)
                .collect(),
            key_ranges: (self.key_range_tombstones.iter())
                .filter(|k| {
                    !buffered(k.seqno, &|_| true)
                        && !(0..self.levels.len()).any(|l| {
                            (self.under_key_range_at(l, k))
                                .any(|i| !exempt(k.seqno, &self.levels[l][i]))
                        })
                })
                .cloned()
                .collect(),
        };
        if retired.is_empty() {
            return (self, retired);
        }
        let gone: Vec<SeqNo> = retired.key_ranges.iter().map(|k| k.seqno).collect();
        let next = (self.apply(vec![], &[], &[], &retired.secondary)).apply_key_ranges(&[], &gone);
        (next, retired)
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
    }

    #[test]
    fn tombstone_totals() {
        let fs = MemFs::new();
        let v = Version::empty(2).apply(vec![make_file(&fs, 1, 1, 0..50, 1)], &[], &[], &[]);
        assert_eq!(v.live_tombstones(), 0);
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
    fn the_key_range_index_follows_the_list() {
        let v = Version::empty(4).apply_key_ranges(
            &[
                krt("key000010", "key000020", 200, 7),
                krt("key000040", "key000050", 90, 3),
            ],
            &[],
        );
        let covering = |v: &Version, key: &[u8]| v.key_range_index.max_seqno_covering(key, 1000);
        assert_eq!(covering(&v, b"key000015"), Some(200));
        assert_eq!(covering(&v, b"key000045"), Some(90));
        assert_eq!(covering(&v, b"key000025"), None);
        // An install that changes no tombstone shares the index.
        let fs = MemFs::new();
        let v2 = v
            .apply(vec![make_file(&fs, 1, 1, 0..5, 1)], &[], &[], &[])
            .apply_key_ranges(&[], &[]);
        assert!(Arc::ptr_eq(&v.key_range_index, &v2.key_range_index));
        let v3 = v2.apply_key_ranges(&[], &[200]);
        assert_eq!(v3.key_range_tombstones.len(), 1);
        assert_eq!(covering(&v3, b"key000015"), None);
        assert_eq!(covering(&v3, b"key000045"), Some(90));
    }

    #[test]
    fn a_station_is_the_shallowest_level_under_the_tombstone() {
        let fs = MemFs::new();
        let v = Version::empty(4).apply(
            vec![
                make_file(&fs, 1, 1, 0..10, 500),
                make_file(&fs, 2, 2, 0..10, 100),
                make_file(&fs, 3, 3, 0..10, 1),
            ],
            &[],
            &[],
            &[],
        );
        // The L1 file is newer than the tombstone, so not under it.
        assert_eq!(v.station(&krt("key000002", "key000004", 300, 0)), Some(2));
        assert_eq!(v.station(&krt("key000002", "key000004", 50, 0)), Some(3));
        assert_eq!(v.station(&krt("key000020", "key000030", 300, 0)), None);
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
        let v = Version::empty(2)
            .apply(
                vec![f],
                &[],
                &[rt_overlapping, rt_disjoint_dkey, rt_older],
                &[],
            )
            .apply_key_ranges(
                &[
                    krt("key000003", "key000004", 502, 9),
                    krt("key000090", "key000099", 503, 9),
                ],
                &[],
            );
        let (v, retired) = v.retire(&[], None);
        // Overlapping+newer cannot retire; dkey- or key-disjoint can;
        // older-than-every-entry can (it shadows nothing).
        assert_eq!(retired.secondary, vec![501, 50]);
        assert_eq!(retired.key_ranges.len(), 1);
        assert_eq!(retired.key_ranges[0].seqno, 503);
        assert_eq!(v.range_tombstones.len(), 1);
        assert_eq!(v.key_range_tombstones.len(), 1);

        // A buffer holding an older entry under a tombstone keeps it.
        let v2 = v.apply(vec![], &[1], &[], &[]);
        let buffer = Memtable::new();
        buffer.insert(Entry::put(&b"key000003"[..], &b"v"[..], 10, 3));
        let (v2, retired) = v2.retire(&[&buffer], None);
        assert!(retired.is_empty());
        // Once the buffer is gone, so are they.
        let (v3, retired) = v2.retire(&[], None);
        assert_eq!((retired.secondary.len(), retired.key_ranges.len()), (1, 1));
        assert!(v3.range_tombstones.is_empty() && v3.key_range_tombstones.is_empty());
    }

    #[test]
    fn a_file_written_with_the_tombstones_applied_does_not_hold_them() {
        let fs = MemFs::new();
        let rt = RangeTombstone {
            seqno: 500,
            range: DeleteKeyRange::new(3, 3),
        };
        let start = Version::empty(2)
            .apply(vec![make_file(&fs, 1, 1, 0..10, 100)], &[], &[rt], &[])
            .apply_key_ranges(&[krt("key000004", "key000004", 501, 0)], &[]);
        // A rewrite of file 1 under both tombstones: its fences still
        // span them, but it was written with them applied.
        let out = make_file(&fs, 2, 1, 0..10, 100);
        let after = start.apply(vec![Arc::clone(&out)], &[1], &[], &[]);
        let (_, retired) = after.clone().retire(&[], None);
        assert!(retired.is_empty(), "by its fences the output is under both");
        let applied = Applied {
            start: &start,
            outputs: &[2],
        };
        let (v, retired) = after.retire(&[], Some(&applied));
        assert_eq!((retired.secondary.len(), retired.key_ranges.len()), (1, 1));
        // A tombstone the starting version did not hold is not applied.
        let late = v.apply(vec![], &[], &[RangeTombstone { seqno: 600, ..rt }], &[]);
        let (_, retired) = late.retire(&[], Some(&applied));
        assert!(retired.is_empty());
    }
}
