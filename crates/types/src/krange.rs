//! Sort-key range tombstones.
//!
//! A [`KeyRangeTombstone`] deletes every user key in an inclusive range
//! `[start, end]` of the *sort key* domain. Unlike the secondary-key
//! [`RangeTombstone`](crate::entry::RangeTombstone) (which lives in the
//! manifest), sort-key range tombstones travel with the data path: they
//! are logged to the WAL, buffered alongside the memtable, flushed into
//! an SSTable's stats meta block, and purged by bottommost compactions.
//!
//! Lookups and scans never walk the deleted range. Instead the active
//! tombstones are *fragmented* into a [`FragmentedRangeTombstones`]
//! index — disjoint half-open intervals, each carrying the sequence
//! numbers that cover it — and shadow checks are a binary search over
//! fragment start keys. This is the fragment-based design from
//! "Don't Forget Range Delete!": correctness without O(range) scans.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::clock::Tick;
use crate::codec::{put_length_prefixed, put_varint64, require_length_prefixed, require_varint64};
use crate::error::Result;
use crate::flat::FlatKeys;
use crate::key::UserKey;
use crate::seq::SeqNo;

/// A range tombstone over the sort-key domain: logically deletes every
/// older version of every user key in `[start, end]` (inclusive bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRangeTombstone {
    /// First user key covered (inclusive).
    pub start: UserKey,
    /// Last user key covered (inclusive).
    pub end: UserKey,
    /// Sequence number of the delete; entries with a seqno strictly
    /// below this are shadowed.
    pub seqno: SeqNo,
    /// Logical tick at which the delete was issued — the FADE deadline
    /// clock starts here, exactly as for point tombstones.
    pub dkey: Tick,
}

impl KeyRangeTombstone {
    /// True if this tombstone hides an entry with `entry_seqno` at
    /// `user_key`: the key falls inside the range and the entry is older
    /// than the delete.
    #[inline]
    pub fn shadows(&self, entry_seqno: SeqNo, user_key: &[u8]) -> bool {
        entry_seqno < self.seqno && self.contains(user_key)
    }

    /// True if `user_key` lies within `[start, end]`.
    #[inline]
    pub fn contains(&self, user_key: &[u8]) -> bool {
        user_key >= self.start.as_ref() && user_key <= self.end.as_ref()
    }

    /// Serialize: length-prefixed start and end, then seqno and dkey
    /// varints. Used by the WAL, the SSTable stats block, and the wire.
    pub fn encode(&self, dst: &mut Vec<u8>) {
        put_length_prefixed(dst, &self.start);
        put_length_prefixed(dst, &self.end);
        put_varint64(dst, self.seqno);
        put_varint64(dst, self.dkey);
    }

    /// Decode one tombstone from the front of `src`, returning the
    /// remainder. Total: malformed input yields a corruption error.
    pub fn decode<'a>(src: &'a [u8], what: &str) -> Result<(KeyRangeTombstone, &'a [u8])> {
        let (start, rest) = require_length_prefixed(src, what)?;
        let (end, rest) = require_length_prefixed(rest, what)?;
        let (seqno, rest) = require_varint64(rest, what)?;
        let (dkey, rest) = require_varint64(rest, what)?;
        Ok((
            KeyRangeTombstone {
                start: Bytes::copy_from_slice(start),
                end: Bytes::copy_from_slice(end),
                seqno,
                dkey,
            },
            rest,
        ))
    }
}

/// One end of a tombstone's span in the sweep of
/// [`FragmentedRangeTombstones::build`]: the span opens at its start and
/// closes at the successor of its end.
#[derive(Clone, Copy)]
enum Bound {
    Open(SeqNo),
    Close(SeqNo),
}

/// Smallest user key strictly greater than `k` in byte order: `k ++ 0x00`.
/// Converts an inclusive upper bound into an exclusive one.
fn key_successor(k: &[u8]) -> Bytes {
    let mut v = Vec::with_capacity(k.len() + 1);
    v.extend_from_slice(k);
    v.push(0);
    Bytes::from(v)
}

/// One fragment of the flattened tombstone index: a half-open key
/// interval `[start, end_ex)` and the seqnos of every tombstone covering
/// it, sorted descending. Borrowed from the index's flat arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeFragment<'a> {
    /// Inclusive fragment start.
    pub start: &'a [u8],
    /// Exclusive fragment end.
    pub end_ex: &'a [u8],
    /// Covering tombstone seqnos, descending (newest first).
    pub seqnos: &'a [SeqNo],
}

/// A search index over a set of [`KeyRangeTombstone`]s: the input ranges
/// are split at every boundary into disjoint, sorted fragments so that a
/// point query is a single binary search. Built by one sweep over the
/// sorted range boundaries, in O(B log B + output) for B tombstones.
///
/// Fragment bounds and seqnos live in flat arrays (keys back to back,
/// found by offset), so a probe touches contiguous memory only.
#[derive(Debug, Clone, Default)]
pub struct FragmentedRangeTombstones {
    starts: FlatKeys,
    ends: FlatKeys,
    /// Every fragment's seqnos, back to back.
    seqnos: Vec<SeqNo>,
    /// `seqno_ends[i]`: where fragment `i`'s seqnos end in `seqnos`.
    seqno_ends: Vec<u32>,
}

impl FragmentedRangeTombstones {
    /// Build the fragment index from a set of tombstones.
    ///
    /// Each tombstone opens at its start and closes at the successor of
    /// its inclusive end. The boundaries are sorted once and swept in
    /// order, keeping a counted set of the seqnos open: between two
    /// consecutive boundaries the covering set is constant, and it is
    /// the open set. (A tombstone with `start > end` covers nothing.)
    pub fn build(tombstones: &[KeyRangeTombstone]) -> FragmentedRangeTombstones {
        let mut bounds: Vec<(Bytes, Bound)> = Vec::with_capacity(tombstones.len() * 2);
        for t in tombstones.iter().filter(|t| t.start <= t.end) {
            bounds.push((t.start.clone(), Bound::Open(t.seqno)));
            bounds.push((key_successor(&t.end), Bound::Close(t.seqno)));
        }
        bounds.sort_unstable_by(|a, b| a.0.cmp(&b.0));

        let mut open: BTreeMap<SeqNo, usize> = BTreeMap::new();
        let mut index = FragmentedRangeTombstones::default();
        let mut at_key = bounds.chunk_by(|a, b| a.0 == b.0).peekable();
        while let Some(group) = at_key.next() {
            for (_, bound) in group {
                match *bound {
                    Bound::Open(seqno) => *open.entry(seqno).or_insert(0) += 1,
                    Bound::Close(seqno) => {
                        let count = open.get_mut(&seqno).expect("closed before opened");
                        *count -= 1;
                        if *count == 0 {
                            open.remove(&seqno);
                        }
                    }
                }
            }
            if let (Some(next), false) = (at_key.peek(), open.is_empty()) {
                index.push(&group[0].0, &next[0].0, open.keys().rev().copied());
            }
        }
        debug_assert!(open.is_empty(), "every opened range closes");
        index
    }

    /// Append the fragment `[start, end_ex)` covered by `seqnos`
    /// (descending).
    fn push(&mut self, start: &[u8], end_ex: &[u8], seqnos: impl Iterator<Item = SeqNo>) {
        self.starts.push(start);
        self.ends.push(end_ex);
        self.seqnos.extend(seqnos);
        let end = u32::try_from(self.seqnos.len()).expect("fragment seqnos exceed u32");
        self.seqno_ends.push(end);
    }

    /// True if no tombstone covers any key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Number of fragments.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Fragment `i` (fragments are disjoint and sorted by start key).
    ///
    /// # Panics
    /// If `i >= self.len()`.
    pub fn fragment(&self, i: usize) -> RangeFragment<'_> {
        let from = if i == 0 {
            0
        } else {
            self.seqno_ends[i - 1] as usize
        };
        RangeFragment {
            start: self.starts.get(i),
            end_ex: self.ends.get(i),
            seqnos: &self.seqnos[from..self.seqno_ends[i] as usize],
        }
    }

    /// The disjoint fragments, sorted by start key.
    pub fn fragments(&self) -> impl Iterator<Item = RangeFragment<'_>> + '_ {
        (0..self.len()).map(|i| self.fragment(i))
    }

    /// The newest seqno of fragment `i` visible at `snapshot`, if
    /// fragment `i` exists and starts at or before `user_key` (the
    /// caller has checked that it ends after it).
    fn visible_cover(&self, i: usize, user_key: &[u8], snapshot: SeqNo) -> Option<SeqNo> {
        if i >= self.len() || self.starts.get(i) > user_key {
            return None;
        }
        // Seqnos are descending; take the first visible one.
        self.fragment(i)
            .seqnos
            .iter()
            .copied()
            .find(|&s| s <= snapshot)
    }

    /// The newest tombstone seqno covering `user_key` that is visible at
    /// `snapshot` (seqno ≤ snapshot), or `None` if the key is uncovered.
    /// A binary search over fragment starts — never walks the range.
    pub fn max_seqno_covering(&self, user_key: &[u8], snapshot: SeqNo) -> Option<SeqNo> {
        // Find the last fragment with start <= user_key.
        let idx = self.starts.partition_point(|start| start <= user_key);
        if idx == 0 || user_key >= self.ends.get(idx - 1) {
            return None;
        }
        self.visible_cover(idx - 1, user_key, snapshot)
    }

    /// [`FragmentedRangeTombstones::max_seqno_covering`] for a caller
    /// that probes keys in ascending order (a scan, a compaction's
    /// survivors): `cursor`, 0 before the first probe, carries where the
    /// last probe landed. A probe at or just past the fragment the last
    /// one stopped at costs one or two key compares; one further ahead
    /// searches only the fragments past the cursor. A probe behind the
    /// cursor (a new scan reusing it, say) searches them all, so any
    /// probe order gets the same answers, only more slowly.
    pub fn max_seqno_covering_from(
        &self,
        user_key: &[u8],
        snapshot: SeqNo,
        cursor: &mut usize,
    ) -> Option<SeqNo> {
        // The cursor is the number of fragments that end at or before
        // the last key probed: the next one is the only one that can
        // hold that key.
        let n = self.len();
        let at = *cursor;
        let ended = |end_ex: &[u8]| end_ex <= user_key;
        let i = if at > n || (at > 0 && !ended(self.ends.get(at - 1))) {
            self.ends.partition_point(ended)
        } else if at == n || !ended(self.ends.get(at)) {
            at
        } else {
            self.ends.partition_point_from(at + 1, ended)
        };
        *cursor = i;
        self.visible_cover(i, user_key, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference builder the sweep replaced: every tombstone is
    /// filtered at every boundary (quadratic). Kept to check the sweep
    /// against.
    fn build_by_filter(tombstones: &[KeyRangeTombstone]) -> FragmentedRangeTombstones {
        let mut bounds: Vec<Bytes> = Vec::with_capacity(tombstones.len() * 2);
        for t in tombstones {
            bounds.push(t.start.clone());
            bounds.push(key_successor(&t.end));
        }
        bounds.sort();
        bounds.dedup();
        let mut index = FragmentedRangeTombstones::default();
        for w in bounds.windows(2) {
            let (lo, hi) = (&w[0], &w[1]);
            let mut seqnos: Vec<SeqNo> = tombstones
                .iter()
                .filter(|t| t.start.as_ref() <= lo.as_ref() && key_successor(&t.end) >= *hi)
                .map(|t| t.seqno)
                .collect();
            if seqnos.is_empty() {
                continue;
            }
            seqnos.sort_unstable_by(|a, b| b.cmp(a));
            seqnos.dedup();
            index.push(lo, hi, seqnos.into_iter());
        }
        index
    }

    fn fragments(index: &FragmentedRangeTombstones) -> Vec<RangeFragment<'_>> {
        index.fragments().collect()
    }

    /// Keys of up to three bytes over `{0x00, 0x01, b'a', 0xff}`: short
    /// enough that keys are often prefixes of one another, equal, or end
    /// in `0x00` (so one key is another's successor).
    fn short_key() -> impl Strategy<Value = Bytes> {
        prop::collection::vec(prop::sample::select(vec![0x00u8, 0x01, b'a', 0xff]), 0..=3)
            .prop_map(Bytes::from)
    }

    /// Up to 12 tombstones, spans ordered so most are non-empty; seqnos
    /// from a small range, so duplicates are common. Identical, nested
    /// and single-key spans come from the small key space.
    fn tombstone_set() -> impl Strategy<Value = Vec<KeyRangeTombstone>> {
        let one =
            (short_key(), short_key(), 1u64..6, any::<bool>()).prop_map(|(a, b, seqno, single)| {
                let (start, end) = if single {
                    (a.clone(), a)
                } else {
                    (a.clone().min(b.clone()), a.max(b))
                };
                KeyRangeTombstone {
                    start,
                    end,
                    seqno,
                    dkey: 0,
                }
            });
        prop::collection::vec(one, 0..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]
        #[test]
        fn sweep_build_matches_the_filter_reference(
            tombstones in tombstone_set(),
            probes in prop::collection::vec(short_key(), 8),
            snapshot in 0u64..7,
        ) {
            let sweep = FragmentedRangeTombstones::build(&tombstones);
            let reference = build_by_filter(&tombstones);
            prop_assert_eq!(fragments(&sweep), fragments(&reference), "{:?}", tombstones);
            for key in &probes {
                prop_assert_eq!(
                    sweep.max_seqno_covering(key, snapshot),
                    tombstones
                        .iter()
                        .filter(|t| t.seqno <= snapshot && t.contains(key))
                        .map(|t| t.seqno)
                        .max()
                );
            }
        }
    }

    #[test]
    fn sweep_build_matches_the_filter_reference_on_edge_cases() {
        let t = |start: &[u8], end: &[u8], seqno| KeyRangeTombstone {
            start: Bytes::copy_from_slice(start),
            end: Bytes::copy_from_slice(end),
            seqno,
            dkey: 0,
        };
        let cases: Vec<Vec<KeyRangeTombstone>> = vec![
            vec![],
            // Duplicate seqnos over different spans.
            vec![t(b"a", b"c", 4), t(b"b", b"d", 4)],
            // Identical spans, nested spans.
            vec![t(b"b", b"e", 2), t(b"b", b"e", 7), t(b"c", b"d", 5)],
            // Single-key spans, one the other's prefix.
            vec![t(b"k", b"k", 3), t(b"k\x00", b"k\x00", 4)],
            // An end that is a prefix of the next start, and an end in 0x00
            // (its successor is `a\x00\x00`).
            vec![t(b"", b"a", 1), t(b"a\x00", b"a\x00", 2), t(b"a", b"b", 3)],
            // An inverted span covers nothing.
            vec![t(b"z", b"a", 9), t(b"m", b"n", 1)],
        ];
        for case in cases {
            assert_eq!(
                fragments(&FragmentedRangeTombstones::build(&case)),
                fragments(&build_by_filter(&case)),
                "{case:?}"
            );
        }
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
    fn shadows_requires_older_entry_inside_range() {
        let t = krt("b", "d", 10, 3);
        assert!(t.shadows(9, b"b"));
        assert!(t.shadows(0, b"d"));
        assert!(t.shadows(9, b"c"));
        assert!(!t.shadows(10, b"c"), "same seqno is not shadowed");
        assert!(!t.shadows(11, b"c"), "newer entry survives");
        assert!(!t.shadows(9, b"a"), "below range");
        assert!(!t.shadows(9, b"e"), "above range");
        assert!(!t.shadows(9, b"d\x00"), "successor of end is outside");
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = krt("alpha", "omega", 123_456, 789);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        buf.extend_from_slice(b"tail");
        let (decoded, rest) = KeyRangeTombstone::decode(&buf, "test").unwrap();
        assert_eq!(decoded, t);
        assert_eq!(rest, b"tail");
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        let t = krt("k1", "k2", 7, 1);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                KeyRangeTombstone::decode(&buf[..cut], "test").is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn empty_build_covers_nothing() {
        let idx = FragmentedRangeTombstones::build(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.max_seqno_covering(b"anything", u64::MAX), None);
    }

    #[test]
    fn single_range_covers_inclusive_bounds() {
        let idx = FragmentedRangeTombstones::build(&[krt("b", "d", 10, 0)]);
        assert_eq!(idx.max_seqno_covering(b"a", 100), None);
        assert_eq!(idx.max_seqno_covering(b"b", 100), Some(10));
        assert_eq!(idx.max_seqno_covering(b"c", 100), Some(10));
        assert_eq!(idx.max_seqno_covering(b"d", 100), Some(10));
        assert_eq!(idx.max_seqno_covering(b"d\x00", 100), None);
        assert_eq!(idx.max_seqno_covering(b"e", 100), None);
    }

    #[test]
    fn snapshot_filters_invisible_tombstones() {
        let idx = FragmentedRangeTombstones::build(&[krt("a", "z", 50, 0)]);
        assert_eq!(idx.max_seqno_covering(b"m", 49), None);
        assert_eq!(idx.max_seqno_covering(b"m", 50), Some(50));
    }

    #[test]
    fn overlapping_ranges_fragment_correctly() {
        // [b, f]@10 and [d, j]@20 → [b,d):10, [d,f]:20 then 10, (f,j]:20.
        let idx = FragmentedRangeTombstones::build(&[krt("b", "f", 10, 0), krt("d", "j", 20, 0)]);
        assert_eq!(idx.max_seqno_covering(b"c", 100), Some(10));
        assert_eq!(idx.max_seqno_covering(b"e", 100), Some(20));
        assert_eq!(
            idx.max_seqno_covering(b"e", 15),
            Some(10),
            "older still covers"
        );
        assert_eq!(idx.max_seqno_covering(b"h", 100), Some(20));
        assert_eq!(idx.max_seqno_covering(b"h", 15), None);
        assert_eq!(idx.max_seqno_covering(b"k", 100), None);
    }

    #[test]
    fn disjoint_ranges_leave_gap_uncovered() {
        let idx = FragmentedRangeTombstones::build(&[krt("a", "b", 5, 0), krt("x", "y", 6, 0)]);
        assert_eq!(idx.max_seqno_covering(b"m", 100), None);
        assert_eq!(idx.max_seqno_covering(b"a", 100), Some(5));
        assert_eq!(idx.max_seqno_covering(b"y", 100), Some(6));
    }

    #[test]
    fn identical_ranges_dedup_seqnos() {
        let idx = FragmentedRangeTombstones::build(&[
            krt("a", "c", 5, 0),
            krt("a", "c", 9, 0),
            krt("a", "c", 9, 0),
        ]);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.fragment(0).seqnos, [9, 5]);
    }

    #[test]
    fn single_key_range_works() {
        let idx = FragmentedRangeTombstones::build(&[krt("k", "k", 3, 0)]);
        assert_eq!(idx.max_seqno_covering(b"k", 100), Some(3));
        assert_eq!(idx.max_seqno_covering(b"j", 100), None);
        assert_eq!(idx.max_seqno_covering(b"k\x00", 100), None);
    }

    #[test]
    fn fragments_are_sorted_and_disjoint() {
        let idx = FragmentedRangeTombstones::build(&[
            krt("d", "j", 20, 0),
            krt("b", "f", 10, 0),
            krt("p", "q", 7, 0),
        ]);
        let frags = fragments(&idx);
        for w in frags.windows(2) {
            assert!(w[0].end_ex <= w[1].start, "fragments overlap or unsorted");
        }
        for f in &frags {
            assert!(f.start < f.end_ex, "empty fragment");
            assert!(!f.seqnos.is_empty());
        }
    }
}
