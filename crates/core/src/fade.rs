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

use acheron_memtable::Memtable;
use acheron_types::{KeyRangeTombstone, Tick};

use crate::options::{DbOptions, TtlAllocation};
use crate::version::{FileMeta, Version};

/// The per-station TTL schedule. Station 0 is the write buffer; station
/// `i + 1` is disk level `i`. The bottom disk level has no station —
/// arrival there is persistence. Every question the engine asks of it
/// is answered as a deadline, an absolute tick, which callers compare
/// with `now`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TtlSchedule {
    /// `cumulative[s]` = total age budget through station `s`.
    cumulative: Vec<Tick>,
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
        TtlSchedule { cumulative }
    }

    /// Cumulative age budget through disk level `level`: a tombstone at
    /// `level` older than this is overdue. Saturates at the last station
    /// for the bottom level.
    pub fn deadline(&self, level: usize) -> Tick {
        let idx = (level + 1).min(self.cumulative.len() - 1);
        self.cumulative[idx]
    }

    /// Absolute tick by which `mem`'s oldest tombstone — point *or*
    /// sort-key range — must leave the buffer (`None` when it holds
    /// neither). Sealed memtables awaiting flush are still "station 0",
    /// so the background executor applies this to them too when
    /// scheduling its next wake-up.
    pub fn buffer_deadline(&self, mem: &Memtable) -> Option<Tick> {
        let s = mem.stats();
        let oldest = match (s.oldest_tombstone_tick, s.oldest_range_tombstone_tick) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        oldest.map(|t0| t0.saturating_add(self.cumulative[0]))
    }

    /// Absolute tick by which `file`'s oldest point tombstone must leave
    /// the file's level (`None` when it holds none). The file is expired
    /// once `now` passes it.
    pub fn file_deadline(&self, file: &FileMeta) -> Option<Tick> {
        let t0 = file.stats.oldest_tombstone_tick?;
        Some(t0.saturating_add(self.deadline(file.level)))
    }

    /// The station of the sort-key range tombstone `k` in `version` (see
    /// [`Version::station`]) and the absolute tick by which it must
    /// leave it; `None` when no file is under it. The budget is that of
    /// the level above the station (of L0 for a station at L0): the
    /// tombstone entered the tree at L0, above the older entries it
    /// erases, so the merge that moves the station's files on is the
    /// one that applies it, and it must start while one level's budget
    /// is left.
    pub fn key_range_deadline(
        &self,
        version: &Version,
        k: &KeyRangeTombstone,
    ) -> Option<(usize, Tick)> {
        let level = version.station(k)?;
        let budget = self.deadline(level.saturating_sub(1));
        Some((level, k.dkey.saturating_add(budget)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{DbOptions, FadeOptions};
    use acheron_types::Entry;

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
        assert_eq!(s.deadline(0), 600);
        assert_eq!(s.deadline(3), 1500);
        // Bottom level saturates at the last station.
        assert_eq!(s.deadline(4), 1500);
    }

    #[test]
    fn exponential_gives_deeper_stations_more_time() {
        let s = TtlSchedule::new(&opts(TtlAllocation::Exponential, 1600, 4, 4));
        // D_eff = 1500; weights 1,4,16,64 over denom 85.
        assert_eq!(budgets(&s), vec![17, 70, 282, 1129]);
        assert!(s.deadline(2) <= 1500);
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
                            s.deadline(levels - 2) <= d_th + levels as u64,
                            "{alloc:?} L={levels} T={ratio} D={d_th}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn buffer_deadline_follows_the_oldest_tombstone() {
        let s = TtlSchedule::new(&opts(TtlAllocation::Uniform, 1000, 5, 4));
        let mem = Memtable::new();
        mem.insert(Entry::put(&b"k"[..], &b"v"[..], 1, 100));
        assert_eq!(s.buffer_deadline(&mem), None, "no tombstones, no deadline");
        mem.insert(Entry::tombstone(&b"k"[..], 2, 500));
        // D_eff = 938 over 5 stations: 187 ticks in the buffer.
        assert_eq!(s.buffer_deadline(&mem), Some(687));
    }

    #[test]
    fn buffer_deadline_counts_range_tombstones() {
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
        assert_eq!(s.buffer_deadline(&mem), Some(1300));
        // An older point tombstone tightens the deadline further.
        mem.insert(Entry::tombstone(&b"k"[..], 2, 500));
        assert_eq!(s.buffer_deadline(&mem), Some(800));
    }

    #[test]
    fn file_deadline_is_the_oldest_tombstone_plus_its_level_budget() {
        use crate::testutil::{make_file, make_file_with};
        let fs = acheron_vfs::MemFs::new();
        let s = TtlSchedule::new(&opts(TtlAllocation::Uniform, 1600, 5, 4));
        assert_eq!(s.file_deadline(&make_file(&fs, 1, 2, 0..50, 1)), None);
        // Tombstones every 5th key, born at their key ids: 10, 15, ...
        let f = make_file_with(&fs, 2, 2, 0, 10..50, 1, 5, 0);
        assert_eq!(s.file_deadline(&f), Some(10 + s.deadline(2)));
    }

    #[test]
    fn a_key_range_deadline_is_its_tick_plus_its_stations_budget() {
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
        let v = Version::empty(5);
        assert_eq!(s.key_range_deadline(&v, &k), None, "nothing under it");
        let v = v.apply(vec![make_file(&fs, 1, 3, 0..50, 1)], &[], &[], &[]);
        assert_eq!(s.key_range_deadline(&v, &k), Some((3, 40 + s.deadline(2))));
    }

    #[test]
    fn tiny_threshold_still_positive() {
        let s = TtlSchedule::new(&opts(TtlAllocation::Exponential, 3, 5, 10));
        assert!(budgets(&s).iter().all(|&d| d >= 1));
    }
}
