//! FADE: per-level tombstone TTLs derived from the delete persistence
//! threshold `D_th`.
//!
//! A tombstone born at tick `t0` must be purged (reach and leave into
//! the bottom level) by `t0 + D_th`. A tombstone's journey has
//! `max_levels` way-stations: the write buffer, then disk levels
//! `0 … L-2` (arriving at the bottom level *is* persistence — the
//! compaction that moves it there drops it). FADE assigns each station
//! a residency budget `d_0 … d_{L-1}` summing to slightly *less* than
//! `D_th` (a 1/16 margin absorbs trigger-detection latency), and
//! declares a station's occupant **expired** once its age exceeds the
//! cumulative budget through that station — expiry forces a flush (for
//! the buffer) or a compaction into the next level (for disk levels),
//! regardless of saturation.
//!
//! Two allocations are implemented:
//!
//! * **Uniform**: every station gets `D_eff / L`.
//! * **Exponential** (Lethe's choice): `d_i ∝ T^i` — deeper stations
//!   hold exponentially more data, so their (more expensive) expiry
//!   compactions are allowed exponentially more slack.
//!
//! "When is this delete due?" has one answer, [`TtlSchedule::due`]: an
//! obligation's oldest delete tick plus the budget of its [`Station`],
//! overdue once `now > due`. The value log is the station after the
//! last level, with the whole of `D_th` as its budget. The tree's
//! obligations are kept in a [`DueIndex`], rebuilt with every version
//! the engine publishes, so the write path reads the earliest due tick
//! in O(1) and the picker reads the subjects without recomputing them.

use std::sync::Arc;

use acheron_memtable::Memtable;
use acheron_types::{KeyRangeTombstone, Tick};

use crate::options::{DbOptions, TtlAllocation};
use crate::version::{FileMeta, Version};

/// The per-station TTL schedule. Station 0 is the write buffer; station
/// `i + 1` is disk level `i`. The bottom disk level has no station —
/// arrival there is persistence. The value log, whose dead extents GC
/// must reclaim, is the station after them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TtlSchedule {
    /// `cumulative[s]` = total age budget through station `s`.
    cumulative: Vec<Tick>,
    /// `D_th`: the value log's budget.
    d_th: Tick,
}

/// Where a delete obligation waits, which decides its budget in
/// [`TtlSchedule::due`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Station {
    /// The active write buffer.
    Buffer,
    /// A file's point tombstones, at disk level `.0`.
    Level(usize),
    /// A sort-key range tombstone whose station ([`Version::station`])
    /// is level `.0`. Its budget is that of the level above (of L0 for
    /// a station at L0): the tombstone entered the tree at L0, above
    /// the older entries it erases, so the merge that moves the
    /// station's files on is the one that applies it, and it must start
    /// while one level's budget is left.
    KeyRange(usize),
    /// A value-log segment's dead extents. Due once the oldest is a
    /// full `D_th` old.
    Log,
}

impl TtlSchedule {
    /// Build a schedule from options. `opts.fade` must be set.
    pub fn new(opts: &DbOptions) -> TtlSchedule {
        let fade = opts
            .fade
            .as_ref()
            .expect("TtlSchedule requires fade options");
        let d_th = fade.delete_persistence_threshold;
        // Reserve a 1/16 margin for trigger-detection latency so the
        // *measured* purge latency stays <= D_th.
        let d_eff = (d_th - d_th / 16).max(1);
        // Stations: buffer + disk levels 0..=max_levels-2.
        let stations = opts.max_levels;
        let per_station: Vec<Tick> = match fade.ttl_allocation {
            TtlAllocation::Uniform => {
                let d = (d_eff / stations as u64).max(1);
                vec![d; stations]
            }
            TtlAllocation::Exponential => {
                let t = opts.size_ratio as u128;
                let denom: u128 = (0..stations).map(|i| t.pow(i as u32)).sum();
                (0..stations)
                    .map(|i| ((d_eff as u128 * t.pow(i as u32) / denom) as u64).max(1))
                    .collect()
            }
        };
        let mut cumulative = Vec::with_capacity(stations);
        let mut acc = 0u64;
        for d in &per_station {
            acc = acc.saturating_add(*d);
            cumulative.push(acc);
        }
        TtlSchedule { cumulative, d_th }
    }

    /// The one due rule: the tick after which an obligation at
    /// `station` whose oldest delete was at `oldest` is overdue. The
    /// budget of a disk level is cumulative through it, saturating at
    /// the last station for the bottom level; `due(0, …)` is the budget
    /// itself.
    pub fn due(&self, oldest: Tick, station: Station) -> Tick {
        let last = self.cumulative.len() - 1;
        let budget = match station {
            Station::Buffer => self.cumulative[0],
            Station::Level(level) => self.cumulative[(level + 1).min(last)],
            Station::KeyRange(level) => self.cumulative[level.clamp(1, last)],
            // `now > stamp + D_th - 1`, i.e. `now - stamp >= D_th`.
            Station::Log => self.d_th.saturating_sub(1),
        };
        oldest.saturating_add(budget)
    }

    /// When `mem`'s oldest tombstone — point *or* sort-key range — is
    /// due out of the buffer (`None` when it holds neither).
    pub fn buffer_due(&self, mem: &Memtable) -> Option<Tick> {
        let s = mem.stats();
        let oldest = (s.oldest_tombstone_tick.into_iter()).chain(s.oldest_range_tombstone_tick);
        Some(self.due(oldest.min()?, Station::Buffer))
    }

    /// Index `version`'s delete obligations (see [`DueIndex`]).
    pub fn index(&self, version: &Version) -> DueIndex {
        let files = version.all_files().filter_map(|f| {
            let due = self.due(f.stats.oldest_tombstone_tick?, Station::Level(f.level));
            Some((due, Subject::File(Arc::clone(f))))
        });
        let key_ranges = version.key_range_tombstones.iter().filter_map(|k| {
            let level = version.station(k)?;
            let due = self.due(k.dkey, Station::KeyRange(level));
            Some((due, Subject::KeyRange(level, k.clone())))
        });
        let entries: Vec<_> = files.chain(key_ranges).collect();
        let earliest = entries.iter().map(|e| e.0).min();
        DueIndex { entries, earliest }
    }
}

/// A delete obligation in the tree.
#[derive(Debug, Clone)]
pub enum Subject {
    /// A file with point tombstones.
    File(Arc<FileMeta>),
    /// A sort-key range tombstone with its station level.
    KeyRange(usize, KeyRangeTombstone),
}

/// The due tick of every delete obligation in one version: each file
/// with a point tombstone, in [`Version::all_files`] order, then each
/// sort-key range tombstone that has a station, in list order — the
/// picker's tie-break order. Empty without FADE.
#[derive(Debug, Clone, Default)]
pub struct DueIndex {
    /// `(due, subject)` pairs.
    pub entries: Vec<(Tick, Subject)>,
    /// The earliest due tick among them.
    pub earliest: Option<Tick>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::options::{DbOptions, FadeOptions};
    use acheron_types::Entry;

    // The deadline rules as they stood before the one due rule and its
    // index, kept as the reference the index is checked against.

    /// Cumulative age budget through disk level `level`, saturating at
    /// the last station for the bottom level.
    fn reference_deadline(s: &TtlSchedule, level: usize) -> Tick {
        s.cumulative[(level + 1).min(s.cumulative.len() - 1)]
    }

    /// When `file`'s oldest point tombstone must leave its level.
    pub(crate) fn reference_file_deadline(s: &TtlSchedule, file: &FileMeta) -> Option<Tick> {
        let t0 = file.stats.oldest_tombstone_tick?;
        Some(t0.saturating_add(reference_deadline(s, file.level)))
    }

    /// The station of the sort-key range tombstone `k` and when it must
    /// leave it: the budget of the level above the station.
    pub(crate) fn reference_key_range_deadline(
        s: &TtlSchedule,
        version: &Version,
        k: &KeyRangeTombstone,
    ) -> Option<(usize, Tick)> {
        let level = version.station(k)?;
        let budget = reference_deadline(s, level.saturating_sub(1));
        Some((level, k.dkey.saturating_add(budget)))
    }

    /// The earliest deadline in `version`'s tree, folded over every
    /// file and sort-key range tombstone.
    pub(crate) fn reference_earliest(s: &TtlSchedule, version: &Version) -> Option<Tick> {
        let files = version
            .all_files()
            .filter_map(|f| reference_file_deadline(s, f));
        let key_ranges = (version.key_range_tombstones.iter())
            .filter_map(|k| Some(reference_key_range_deadline(s, version, k)?.1));
        files.chain(key_ranges).min()
    }

    fn opts(alloc: TtlAllocation, d_th: Tick, levels: usize, ratio: u64) -> DbOptions {
        DbOptions {
            max_levels: levels,
            size_ratio: ratio,
            fade: Some(FadeOptions {
                delete_persistence_threshold: d_th,
                ttl_allocation: alloc,
            }),
            ..DbOptions::default()
        }
    }

    /// Each station's own budget: station 0 is the buffer, station
    /// `i + 1` disk level `i`.
    fn budgets(s: &TtlSchedule) -> Vec<Tick> {
        let mut prev = 0;
        s.cumulative
            .iter()
            .map(|&c| c - std::mem::replace(&mut prev, c))
            .collect()
    }

    #[test]
    fn uniform_splits_evenly_with_margin() {
        // D_th = 1600 → margin 100 → D_eff = 1500 over 5 stations.
        let s = TtlSchedule::new(&opts(TtlAllocation::Uniform, 1600, 5, 4));
        assert_eq!(budgets(&s), vec![300; 5]);
        // Level 0 deadline = buffer + L0 budgets.
        assert_eq!(s.due(0, Station::Level(0)), 600);
        assert_eq!(s.due(0, Station::Level(3)), 1500);
        // Bottom level saturates at the last station.
        assert_eq!(s.due(0, Station::Level(4)), 1500);
    }

    #[test]
    fn exponential_gives_deeper_stations_more_time() {
        let s = TtlSchedule::new(&opts(TtlAllocation::Exponential, 1600, 4, 4));
        // D_eff = 1500; weights 1,4,16,64 over denom 85.
        assert_eq!(budgets(&s), vec![17, 70, 282, 1129]);
        assert!(s.due(0, Station::Level(2)) <= 1500);
    }

    #[test]
    fn cumulative_budget_never_exceeds_threshold() {
        for d_th in [100u64, 999, 123_456] {
            for levels in [2usize, 3, 7] {
                for ratio in [2u64, 4, 10] {
                    for alloc in [TtlAllocation::Uniform, TtlAllocation::Exponential] {
                        let s = TtlSchedule::new(&opts(alloc, d_th, levels, ratio));
                        // The clamp to >= 1 per station can push truly
                        // tiny budgets over; allow `levels` slack.
                        assert!(
                            s.due(0, Station::Level(levels - 2)) <= d_th + levels as u64,
                            "{alloc:?} L={levels} T={ratio} D={d_th}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_buffer_is_due_its_oldest_tombstone_plus_the_buffer_budget() {
        let s = TtlSchedule::new(&opts(TtlAllocation::Uniform, 1000, 5, 4));
        let mem = Memtable::new();
        mem.insert(Entry::put(&b"k"[..], &b"v"[..], 1, 100));
        assert_eq!(s.buffer_due(&mem), None, "no tombstones, nothing due");
        mem.insert(Entry::tombstone(&b"k"[..], 2, 500));
        // D_eff = 938 over 5 stations: 187 ticks in the buffer.
        assert_eq!(s.buffer_due(&mem), Some(687));
        assert_eq!(s.due(500, Station::Buffer), 687);
    }

    #[test]
    fn a_buffer_is_due_by_its_range_tombstones_too() {
        use acheron_types::KeyRangeTombstone;
        use bytes::Bytes;
        let s = TtlSchedule::new(&opts(TtlAllocation::Uniform, 1600, 5, 4));
        let mem = Memtable::new();
        mem.add_range_tombstone(KeyRangeTombstone {
            start: Bytes::from_static(b"a"),
            end: Bytes::from_static(b"m"),
            seqno: 1,
            dkey: 1000,
        });
        assert_eq!(s.buffer_due(&mem), Some(1300));
        // An older point tombstone makes the buffer due sooner.
        mem.insert(Entry::tombstone(&b"k"[..], 2, 500));
        assert_eq!(s.buffer_due(&mem), Some(800));
    }

    /// `version`'s index as `(due, file id or range tombstone seqno,
    /// level)` triples.
    fn indexed(s: &TtlSchedule, version: &Version) -> Vec<(Tick, u64, usize)> {
        let index = s.index(version);
        (index.entries.iter())
            .map(|(due, subject)| match subject {
                Subject::File(f) => (*due, f.id, f.level),
                Subject::KeyRange(level, k) => (*due, k.seqno, *level),
            })
            .collect()
    }

    #[test]
    fn a_file_is_due_its_oldest_tombstone_plus_its_level_budget() {
        use crate::testutil::{make_file, make_file_with};
        let fs = acheron_vfs::MemFs::new();
        let s = TtlSchedule::new(&opts(TtlAllocation::Uniform, 1600, 5, 4));
        // Uniform: 300 ticks a station; through L2 (station 3), 1200.
        assert_eq!(s.due(10, Station::Level(2)), 1210);
        // Tombstones every 5th key, born at their key ids: 10, 15, ...
        let files = vec![
            make_file(&fs, 1, 2, 0..50, 1),
            make_file_with(&fs, 2, 2, 0, 10..50, 1, 5, 0),
        ];
        let v = Version::empty(5).apply(files, &[], &[], &[]);
        assert_eq!(
            indexed(&s, &v),
            vec![(1210, 2, 2)],
            "no tombstones, no entry"
        );
        assert_eq!(s.index(&v).earliest, Some(1210));
    }

    #[test]
    fn a_range_tombstone_is_due_its_tick_plus_its_stations_budget() {
        use crate::testutil::make_file;
        use bytes::Bytes;
        let fs = acheron_vfs::MemFs::new();
        let s = TtlSchedule::new(&opts(TtlAllocation::Uniform, 1600, 5, 4));
        let k = KeyRangeTombstone {
            start: Bytes::from_static(b"key000010"),
            end: Bytes::from_static(b"key000020"),
            seqno: 1_000,
            dkey: 40,
        };
        let v = Version::empty(5).apply_key_ranges(std::slice::from_ref(&k), &[]);
        assert_eq!(indexed(&s, &v), vec![], "nothing under it, no station");
        // At L3 it has the budget through L2; at L0, that of L0.
        let v = v.apply(vec![make_file(&fs, 1, 3, 0..50, 1)], &[], &[], &[]);
        assert_eq!(s.due(40, Station::KeyRange(3)), 40 + 1200);
        assert_eq!(indexed(&s, &v), vec![(1240, 1_000, 3)]);
        assert_eq!(
            s.due(40, Station::KeyRange(0)),
            s.due(40, Station::Level(0))
        );
    }

    #[test]
    fn a_log_segment_is_due_a_full_threshold_after_its_stamp() {
        let s = TtlSchedule::new(&opts(TtlAllocation::Uniform, 1600, 5, 4));
        let due = s.due(100, Station::Log);
        assert!(100 + 1600 > due, "overdue at t + D_th");
        assert!(100 + 1600 - 1 <= due, "not one tick before");
        let s = TtlSchedule::new(&opts(TtlAllocation::Uniform, 1, 5, 4));
        assert!(
            100 + 1 > s.due(100, Station::Log),
            "D_th = 1: due the next tick"
        );
    }

    #[test]
    fn tiny_threshold_still_positive() {
        let s = TtlSchedule::new(&opts(TtlAllocation::Exponential, 3, 5, 10));
        assert!(budgets(&s).iter().all(|&d| d >= 1));
    }
}
