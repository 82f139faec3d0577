//! K-way merging of heterogeneous entry sources in internal-key order.
//!
//! Sources implement [`KvSource`]; the engine merges table iterators and
//! materialized memtable ranges. The merge picks the minimum by linear
//! scan — source counts are tens at most, and keys are compared without
//! copying, which beats a heap that would have to own key copies.
//!
//! Sources *lend*: a key or value is borrowed from the page or memtable
//! entry it already lives in until a consumer decides to keep the entry,
//! and only then is an owned [`Entry`] built ([`MergeIterator::entry`]).

use std::collections::VecDeque;

use acheron_sstable::TableIterator;
use acheron_types::key::{compare_internal, InternalKeyRef};
use acheron_types::seq::pack_tag;
use acheron_types::{Entry, Error, RangeTombstone, Result, SeqNo, Tick, ValueKind, ValuePointer};
use bytes::Bytes;

/// A positioned stream of entries in internal-key order.
pub trait KvSource {
    /// True if positioned at an entry.
    fn valid(&self) -> bool;
    /// The current encoded internal key.
    fn key(&self) -> &[u8];
    /// The current secondary delete key.
    fn dkey(&self) -> u64;
    /// The current value: a handle sharing the source's allocation (a
    /// page slice, a memtable entry's value), made on request. It costs
    /// a reference count, so consumers ask only for entries they keep.
    fn value(&self) -> Bytes;
    /// Advance past the current entry.
    fn next(&mut self) -> Result<()>;
}

impl KvSource for TableIterator {
    fn valid(&self) -> bool {
        TableIterator::valid(self)
    }
    fn key(&self) -> &[u8] {
        TableIterator::key(self)
    }
    fn dkey(&self) -> u64 {
        TableIterator::dkey(self)
    }
    fn value(&self) -> Bytes {
        TableIterator::value(self)
    }
    fn next(&mut self) -> Result<()> {
        TableIterator::next(self)
    }
}

/// A source over owned, already-sorted entries (materialized memtable
/// ranges, test fixtures).
pub struct VecSource {
    entries: Vec<Entry>,
    pos: usize,
    /// Encoding of the current entry's internal key.
    key: Vec<u8>,
}

impl VecSource {
    /// Wrap entries that are already in internal-key order.
    pub fn new(entries: Vec<Entry>) -> VecSource {
        debug_assert!(entries
            .windows(2)
            .all(|w| w[0].internal_key() < w[1].internal_key()));
        let mut source = VecSource {
            entries,
            pos: 0,
            key: Vec::new(),
        };
        source.encode_key();
        source
    }

    fn encode_key(&mut self) {
        self.key.clear();
        if let Some(e) = self.entries.get(self.pos) {
            self.key.extend_from_slice(&e.key);
            self.key
                .extend_from_slice(&pack_tag(e.seqno, e.kind as u8).to_le_bytes());
        }
    }
}

impl KvSource for VecSource {
    fn valid(&self) -> bool {
        self.pos < self.entries.len()
    }
    fn key(&self) -> &[u8] {
        &self.key
    }
    fn dkey(&self) -> u64 {
        self.entries[self.pos].dkey
    }
    fn value(&self) -> Bytes {
        self.entries[self.pos].value.clone()
    }
    fn next(&mut self) -> Result<()> {
        self.pos += 1;
        self.encode_key();
        Ok(())
    }
}

/// Split an encoded internal key into its parts, rejecting encodings a
/// table could only hold through corruption.
pub(crate) fn decode_key(encoded: &[u8]) -> Result<(InternalKeyRef<'_>, ValueKind)> {
    let key =
        InternalKeyRef::decode(encoded).ok_or_else(|| Error::corruption("short key in merge"))?;
    let kind = ValueKind::from_u8(key.kind_byte())
        .ok_or_else(|| Error::corruption(format!("bad kind byte {:#x}", key.kind_byte())))?;
    Ok((key, kind))
}

/// Merges multiple sources into one internal-key-ordered stream.
///
/// Ties cannot occur between *distinct* mutations (sequence numbers are
/// unique); if two sources present the identical internal key (e.g. an
/// entry visible both in an immutable memtable and an L0 file during a
/// race-free handoff, which the engine never produces), the
/// lower-indexed source wins and the other copy is skipped.
pub struct MergeIterator {
    sources: Vec<Box<dyn KvSource>>,
    current: Option<usize>,
}

impl MergeIterator {
    /// Merge the given sources (each already positioned at its start).
    pub fn new(sources: Vec<Box<dyn KvSource>>) -> MergeIterator {
        let mut m = MergeIterator {
            sources,
            current: None,
        };
        m.pick();
        m
    }

    fn pick(&mut self) {
        self.current = self
            .sources
            .iter()
            .enumerate()
            .filter(|(_, s)| s.valid())
            .min_by(|(_, a), (_, b)| compare_internal(a.key(), b.key()))
            .map(|(i, _)| i);
    }

    fn source(&self) -> &dyn KvSource {
        self.sources[self.current.expect("read of an exhausted merge")].as_ref()
    }

    /// True if positioned at an entry.
    pub fn valid(&self) -> bool {
        self.current.is_some()
    }

    /// Current encoded internal key.
    pub fn key(&self) -> &[u8] {
        self.source().key()
    }

    /// Current delete key.
    pub fn dkey(&self) -> u64 {
        self.source().dkey()
    }

    /// Current value (see [`KvSource::value`]).
    pub fn value(&self) -> Bytes {
        self.source().value()
    }

    /// Materialize the current entry: the one point where a merged key
    /// is copied to the heap, paid only for entries a consumer keeps.
    pub fn entry(&self) -> Result<Entry> {
        let source = self.source();
        let (key, kind) = decode_key(source.key())?;
        Ok(Entry {
            key: Bytes::copy_from_slice(key.user_key()),
            seqno: key.seqno(),
            kind,
            dkey: source.dkey(),
            value: source.value(),
        })
    }

    /// Advance past the current entry (and past any identical duplicate
    /// keys in other sources).
    pub fn advance(&mut self) -> Result<()> {
        let cur = self.current.expect("advance() on exhausted merge");
        for i in 0..self.sources.len() {
            if i != cur
                && self.sources[i].valid()
                && self.sources[i].key() == self.sources[cur].key()
            {
                self.sources[i].next()?;
            }
        }
        self.sources[cur].next()?;
        self.pick();
        Ok(())
    }
}

/// A deduplicated, garbage-collecting view over a [`MergeIterator`]:
/// yields the surviving entries of a compaction, applying
///
/// * **version dedup** — for each user key, keep the newest version plus
///   any versions still visible to a live snapshot,
/// * **range-tombstone purge** — drop entries shadowed by a live
///   secondary range tombstone (unless a snapshot still needs them),
/// * **tombstone drop** — at the bottommost level, point tombstones that
///   no snapshot needs are dropped and reported through `on_purge`.
pub struct CompactionStream<'a> {
    merge: MergeIterator,
    rts: &'a [RangeTombstone],
    snapshots: &'a [SeqNo],
    bottommost: bool,
    /// The compaction's clock reading, stamped onto dead vlog extents
    /// whose covering mutation carries no delete tick of its own.
    now: Tick,
    /// Survivors of the current user key's chain not yet handed out
    /// (non-empty only while snapshots force multiple versions).
    pending: VecDeque<Entry>,
    /// The current chain's user key (scratch of the snapshot-free path).
    head_key: Vec<u8>,
    /// Entries dropped because a newer kept version shadowed them.
    pub shadowed: u64,
    /// Entries purged by a secondary range tombstone.
    pub range_purged: u64,
    /// `(delete tick, seqno)` of each point tombstone physically dropped.
    pub tombstones_dropped: Vec<(u64, SeqNo)>,
    /// Seqnos of tombstones that exited the tree *without* reaching a
    /// bottommost purge: shadowed by a newer version of the same key or
    /// swallowed by a secondary range tombstone. The delete-lifecycle
    /// ledger treats these as resolved too — the obligation passed to
    /// the newer mutation — so every tombstone has exactly one exit.
    pub tombstones_superseded: Vec<SeqNo>,
    /// `(segment, bytes, stamp tick)` of each value-log extent whose
    /// last tree reference this compaction dropped. When the covering
    /// head is a tombstone the stamp is the tombstone's delete tick —
    /// the FADE-correct age seed — otherwise the compaction's `now`.
    pub vlog_dead: Vec<(u64, u64, Tick)>,
}

/// The value-log pointer an entry of `kind` carries in its value, if any.
fn pointer_of(kind: ValueKind, value: impl FnOnce() -> Bytes) -> Option<ValuePointer> {
    (kind == ValueKind::ValuePointer)
        .then(|| ValuePointer::decode(&value()))
        .flatten()
}

impl<'a> CompactionStream<'a> {
    /// Wrap a merge with compaction semantics.
    pub fn new(
        merge: MergeIterator,
        rts: &'a [RangeTombstone],
        snapshots: &'a [SeqNo],
        bottommost: bool,
        now: Tick,
    ) -> CompactionStream<'a> {
        CompactionStream {
            merge,
            rts,
            snapshots,
            bottommost,
            now,
            pending: VecDeque::new(),
            head_key: Vec::new(),
            shadowed: 0,
            range_purged: 0,
            tombstones_dropped: Vec::new(),
            tombstones_superseded: Vec::new(),
            vlog_dead: Vec::new(),
        }
    }

    /// Record the vlog extent behind a dropped value-pointer entry.
    fn note_dead_pointer(&mut self, dropped: Option<ValuePointer>, stamp: Tick) {
        if let Some(ptr) = dropped {
            self.vlog_dead
                .push((ptr.segment, u64::from(ptr.len), stamp));
        }
    }

    /// Account an entry dropped because the head of its stratum shadows
    /// it (rule 1 of [`CompactionStream::next_surviving`]).
    fn note_shadowed(
        &mut self,
        seqno: SeqNo,
        is_tombstone: bool,
        ptr: Option<ValuePointer>,
        stamp: Tick,
    ) {
        self.shadowed += 1;
        if is_tombstone {
            self.tombstones_superseded.push(seqno);
        }
        self.note_dead_pointer(ptr, stamp);
    }

    /// Apply rules 2 and 3 of [`CompactionStream::next_surviving`] to the
    /// head of a stratum; `false` means it was purged or dropped (and
    /// accounted).
    fn head_survives(
        &mut self,
        seqno: SeqNo,
        is_tombstone: bool,
        dkey: u64,
        ptr: Option<ValuePointer>,
        older_pinned: bool,
    ) -> bool {
        let droppable = self.bottommost && !self.visible_to_snapshot(seqno) && !older_pinned;
        if !droppable {
            return true;
        }
        if self.rts.iter().any(|rt| rt.shadows(seqno, dkey)) {
            self.range_purged += 1;
            if is_tombstone {
                self.tombstones_superseded.push(seqno);
            }
            self.note_dead_pointer(ptr, self.now);
            return false;
        }
        if is_tombstone {
            self.tombstones_dropped.push((dkey, seqno));
            return false;
        }
        true
    }

    /// True if `newer` and `older` fall in the same snapshot stratum (no
    /// snapshot separates them), meaning the older version is invisible
    /// to every reader once the newer exists.
    fn same_stratum(&self, newer: SeqNo, older: SeqNo) -> bool {
        !self.snapshots.iter().any(|&s| older <= s && s < newer)
    }

    /// True if some snapshot can still observe an entry with `seqno`.
    fn visible_to_snapshot(&self, seqno: SeqNo) -> bool {
        self.snapshots.iter().any(|&s| seqno <= s)
    }

    /// Produce the next surviving entry, or `None` at end of input.
    ///
    /// Per user key, candidates are processed newest → oldest under the
    /// engine's *newest-version-decides* semantics:
    ///
    /// 1. an entry in the same snapshot stratum as the last surviving
    ///    chain head is dropped as shadowed (no reader can see it);
    /// 2. a chain head shadowed by a live range tombstone is **purged
    ///    only at the bottommost level** (purging higher up would let an
    ///    older, deeper version resurface) — it still ends its stratum;
    /// 3. a point tombstone at the bottommost level with no snapshot
    ///    pinning it is dropped — the delete is now persisted; it too
    ///    still ends its stratum.
    ///
    /// Rules 2 and 3 additionally require that no snapshot pins an
    /// *older* version of the same key: a pinned older version survives
    /// the stratum dedup, and physically dropping the newer head would
    /// promote it to chain head — resurrecting it for live readers.
    pub fn next_surviving(&mut self) -> Result<Option<Entry>> {
        loop {
            if let Some(e) = self.pending.pop_front() {
                return Ok(Some(e));
            }
            if !self.merge.valid() {
                return Ok(None);
            }
            if !self.snapshots.is_empty() {
                self.next_chain_pinned()?;
            } else if let Some(e) = self.next_chain_unpinned()? {
                return Ok(Some(e));
            }
        }
    }

    /// One user key's chain with no live snapshot: the whole chain is a
    /// single stratum, so only its head can survive and nothing older
    /// needs to be looked at before deciding. The chain streams past
    /// without being collected; the head is the only entry materialized,
    /// and only if it survives.
    fn next_chain_unpinned(&mut self) -> Result<Option<Entry>> {
        let (key, kind) = decode_key(self.merge.key())?;
        let (seqno, dkey) = (key.seqno(), self.merge.dkey());
        self.head_key.clear();
        self.head_key.extend_from_slice(key.user_key());
        let ptr = pointer_of(kind, || self.merge.value());
        let survivor = self
            .head_survives(seqno, kind.is_tombstone(), dkey, ptr, false)
            .then(|| self.merge.entry())
            .transpose()?;
        self.merge.advance()?;
        // A separated value shadowed by a tombstone dies *because of
        // that delete*: seed its dead-extent age from the delete's own
        // tick so the vlog GC deadline measures delete-to-reclaim end to
        // end.
        let stamp = if kind.is_tombstone() { dkey } else { self.now };
        while self.merge.valid() {
            let (key, kind) = decode_key(self.merge.key())?;
            if key.user_key() != self.head_key {
                break;
            }
            let seqno = key.seqno();
            let ptr = pointer_of(kind, || self.merge.value());
            self.note_shadowed(seqno, kind.is_tombstone(), ptr, stamp);
            self.merge.advance()?;
        }
        Ok(survivor)
    }

    /// One user key's chain while snapshots are live: collect it, then
    /// walk it newest → oldest, queueing survivors on `pending`.
    fn next_chain_pinned(&mut self) -> Result<()> {
        let mut chain = vec![self.merge.entry()?];
        self.merge.advance()?;
        while self.merge.valid() {
            let (key, _) = decode_key(self.merge.key())?;
            if key.user_key() != &chain[0].key[..] {
                break;
            }
            chain.push(self.merge.entry()?);
            self.merge.advance()?;
        }

        // `last_head` = the newest candidate that survived stratum
        // dedup (whether emitted, purged, or dropped): the version
        // that *decides* reads in its stratum. `(seqno, is_tombstone,
        // dkey)` — the extra fields stamp dead vlog extents.
        let mut last_head: Option<(SeqNo, bool, u64)> = None;
        let mut rest = chain.drain(..);
        while let Some(candidate) = rest.next() {
            let ptr = pointer_of(candidate.kind, || candidate.value.clone());
            if let Some((head_seqno, head_is_del, head_dkey)) = last_head {
                if self.same_stratum(head_seqno, candidate.seqno) {
                    let stamp = if head_is_del { head_dkey } else { self.now };
                    self.note_shadowed(candidate.seqno, candidate.is_tombstone(), ptr, stamp);
                    continue;
                }
            }
            last_head = Some((candidate.seqno, candidate.is_tombstone(), candidate.dkey));
            // Does some snapshot pin an *older* version of this key?
            // Such a version survives dedup, so the candidate must stay
            // to keep shadowing it (`rest` is what is older).
            let older_pinned = rest.as_slice().iter().any(|older| {
                self.snapshots
                    .iter()
                    .any(|&s| older.seqno <= s && s < candidate.seqno)
            });
            if self.head_survives(
                candidate.seqno,
                candidate.is_tombstone(),
                candidate.dkey,
                ptr,
                older_pinned,
            ) {
                self.pending.push_back(candidate);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acheron_types::DeleteKeyRange;

    fn put(k: &str, seq: SeqNo, dkey: u64) -> Entry {
        Entry::put(
            k.as_bytes().to_vec(),
            format!("v{seq}").into_bytes(),
            seq,
            dkey,
        )
    }

    fn del(k: &str, seq: SeqNo, tick: u64) -> Entry {
        Entry::tombstone(k.as_bytes().to_vec(), seq, tick)
    }

    fn sorted(mut v: Vec<Entry>) -> Vec<Entry> {
        v.sort_by_key(|a| a.internal_key());
        v
    }

    fn merge_of(sources: Vec<Vec<Entry>>) -> MergeIterator {
        MergeIterator::new(
            sources
                .into_iter()
                .map(|v| Box::new(VecSource::new(sorted(v))) as Box<dyn KvSource>)
                .collect(),
        )
    }

    fn drain_merge(mut m: MergeIterator) -> Vec<Entry> {
        let mut out = Vec::new();
        while m.valid() {
            out.push(m.entry().unwrap());
            m.advance().unwrap();
        }
        out
    }

    #[test]
    fn merge_interleaves_in_order() {
        let m = merge_of(vec![
            vec![put("a", 1, 0), put("c", 3, 0)],
            vec![put("b", 2, 0), put("d", 4, 0)],
        ]);
        let keys: Vec<Vec<u8>> = drain_merge(m).into_iter().map(|e| e.key.to_vec()).collect();
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn merge_orders_same_key_newest_first() {
        let m = merge_of(vec![
            vec![put("k", 5, 0)],
            vec![put("k", 9, 0)],
            vec![del("k", 7, 0)],
        ]);
        let seqs: Vec<SeqNo> = drain_merge(m).into_iter().map(|e| e.seqno).collect();
        assert_eq!(seqs, vec![9, 7, 5]);
    }

    #[test]
    fn merge_empty_sources() {
        let m = merge_of(vec![vec![], vec![], vec![]]);
        assert!(!m.valid());
        let m = merge_of(vec![]);
        assert!(!m.valid());
    }

    fn drain_stream(mut s: CompactionStream<'_>) -> (Vec<Entry>, u64, u64, usize) {
        let mut out = Vec::new();
        while let Some(e) = s.next_surviving().unwrap() {
            out.push(e);
        }
        (out, s.shadowed, s.range_purged, s.tombstones_dropped.len())
    }

    #[test]
    fn dedup_keeps_only_newest_without_snapshots() {
        let m = merge_of(vec![
            vec![put("k", 1, 0), put("k", 5, 0)],
            vec![put("k", 3, 0), put("other", 2, 0)],
        ]);
        let s = CompactionStream::new(m, &[], &[], false, 0);
        let (out, shadowed, _, _) = drain_stream(s);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seqno, 5);
        assert_eq!(&out[1].key[..], b"other");
        assert_eq!(shadowed, 2);
    }

    #[test]
    fn snapshot_free_path_matches_the_general_path() {
        // With no snapshots both chain walkers must agree on survivors
        // and on every counter, in order. Chains of 1–4 versions mixing
        // puts, tombstones and value pointers, some under a range
        // tombstone.
        let rts = [RangeTombstone {
            seqno: 1_000,
            range: DeleteKeyRange::new(0, 2),
        }];
        let make = || {
            let mut entries = Vec::new();
            let mut seq = 1u64;
            for k in 0..40u64 {
                for v in 0..=(k % 4) {
                    let key = format!("k{k:03}").into_bytes();
                    let n = k * 7 + v * 3;
                    entries.push(match n % 3 {
                        0 => Entry::tombstone(key, seq, n % 5),
                        1 => Entry::put(key, vec![b'v'; 3], seq, n % 5),
                        _ => Entry::value_pointer(
                            key,
                            ValuePointer {
                                segment: n % 4,
                                offset: n * 100,
                                len: 100,
                            },
                            seq,
                            n % 5,
                        ),
                    });
                    seq += 1;
                }
            }
            merge_of(vec![entries])
        };
        for bottommost in [false, true] {
            let run = |general: bool| {
                let mut s = CompactionStream::new(make(), &rts, &[], bottommost, 77);
                let mut out = Vec::new();
                while s.merge.valid() {
                    if general {
                        s.next_chain_pinned().unwrap();
                        out.extend(s.pending.drain(..));
                    } else {
                        out.extend(s.next_chain_unpinned().unwrap());
                    }
                }
                (
                    out,
                    s.shadowed,
                    s.range_purged,
                    s.tombstones_dropped,
                    s.tombstones_superseded,
                    s.vlog_dead,
                )
            };
            let general = run(true);
            assert!(general.1 > 0 && !general.5.is_empty(), "the case has teeth");
            assert_eq!(run(false), general, "bottommost={bottommost}");
        }
    }

    #[test]
    fn tombstone_kept_above_bottom_dropped_at_bottom() {
        let make = || merge_of(vec![vec![del("k", 9, 42), put("k", 3, 0)]]);
        // Above the bottom the tombstone must survive (something below
        // may still hold an older version).
        let s = CompactionStream::new(make(), &[], &[], false, 0);
        let (out, ..) = drain_stream(s);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_tombstone());
        // At the bottom it is dropped and reported.
        let s = CompactionStream::new(make(), &[], &[], true, 0);
        let (out, _, _, dropped) = drain_stream(s);
        assert!(out.is_empty());
        assert_eq!(dropped, 1);
    }

    #[test]
    fn snapshot_preserves_older_version() {
        let m = merge_of(vec![vec![put("k", 2, 0), put("k", 8, 0)]]);
        let snaps = [5u64];
        let s = CompactionStream::new(m, &[], &snaps, false, 0);
        let (out, ..) = drain_stream(s);
        // Both versions survive: seqno 8 is newest, seqno 2 is what
        // snapshot 5 sees.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seqno, 8);
        assert_eq!(out[1].seqno, 2);
    }

    #[test]
    fn snapshot_protects_tombstone_at_bottom() {
        let m = merge_of(vec![vec![del("k", 9, 0)]]);
        let snaps = [10u64];
        let s = CompactionStream::new(m, &[], &snaps, true, 0);
        let (out, _, _, dropped) = drain_stream(s);
        assert_eq!(out.len(), 1, "tombstone visible to snapshot must survive");
        assert_eq!(dropped, 0);
    }

    #[test]
    fn tombstone_survives_bottom_when_snapshot_pins_older_version() {
        // Snapshot 5 pins put(seqno 3); the tombstone (seqno 9) is not
        // itself visible to any snapshot, but dropping it would promote
        // the pinned put to chain head and resurrect it for live
        // readers. Both must survive.
        let m = merge_of(vec![vec![del("k", 9, 42), put("k", 3, 0)]]);
        let snaps = [5u64];
        let s = CompactionStream::new(m, &[], &snaps, true, 0);
        let (out, _, _, dropped) = drain_stream(s);
        assert_eq!(dropped, 0);
        assert_eq!(out.len(), 2);
        assert!(out[0].is_tombstone());
        assert_eq!(out[1].seqno, 3);
    }

    #[test]
    fn range_purge_blocked_when_snapshot_pins_older_version() {
        // The rt (seqno 100) covers the newer put's dkey but not the
        // older one's; snapshot 5 pins the older put. Purging the
        // covered head would expose the pinned older version to live
        // readers, so it must stay.
        let rts = [RangeTombstone {
            seqno: 100,
            range: DeleteKeyRange::new(10, 20),
        }];
        let m = merge_of(vec![vec![put("k", 9, 15), put("k", 3, 30)]]);
        let snaps = [5u64];
        let s = CompactionStream::new(m, &rts, &snaps, true, 0);
        let (out, _, range_purged, _) = drain_stream(s);
        assert_eq!(range_purged, 0);
        assert_eq!(out.len(), 2, "covered head and pinned older put survive");
    }

    #[test]
    fn range_tombstone_purges_covered_entries_at_bottom_only() {
        let rts = [RangeTombstone {
            seqno: 100,
            range: DeleteKeyRange::new(10, 20),
        }];
        let make = || {
            merge_of(vec![vec![
                put("a", 1, 15),   // covered
                put("b", 2, 25),   // outside range: kept
                put("c", 150, 15), // newer than rt: kept
            ]])
        };
        // At the bottom, the covered entry is purged.
        let s = CompactionStream::new(make(), &rts, &[], true, 0);
        let (out, _, purged, _) = drain_stream(s);
        let keys: Vec<Vec<u8>> = out.iter().map(|e| e.key.to_vec()).collect();
        assert_eq!(keys, vec![b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(purged, 1);
        // Above the bottom it must survive (an older version of "a" may
        // exist deeper, and the covered head decides reads).
        let s = CompactionStream::new(make(), &rts, &[], false, 0);
        let (out, _, purged, _) = drain_stream(s);
        assert_eq!(out.len(), 3);
        assert_eq!(purged, 0);
    }

    #[test]
    fn covered_chain_head_still_shadows_older_strata() {
        // Even when the head is purged at the bottom, an older version in
        // the same stratum must not be emitted (it never decided reads).
        let rts = [RangeTombstone {
            seqno: 100,
            range: DeleteKeyRange::new(10, 20),
        }];
        let m = merge_of(vec![vec![put("k", 9, 15), put("k", 3, 99)]]);
        let s = CompactionStream::new(m, &rts, &[], true, 0);
        let (out, shadowed, purged, _) = drain_stream(s);
        assert!(
            out.is_empty(),
            "older uncovered version must not resurface: {out:?}"
        );
        assert_eq!(purged, 1);
        assert_eq!(shadowed, 1);
    }

    #[test]
    fn range_purge_resurfaces_nothing_when_chain_fully_covered() {
        let rts = [RangeTombstone {
            seqno: 100,
            range: DeleteKeyRange::all(),
        }];
        let m = merge_of(vec![vec![put("k", 5, 1), put("k", 7, 2)]]);
        let s = CompactionStream::new(m, &rts, &[], true, 0);
        let (out, ..) = drain_stream(s);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_identical_keys_across_sources_yield_once() {
        let e = put("k", 5, 0);
        let m = merge_of(vec![vec![e.clone()], vec![e.clone()]]);
        let out = drain_merge(m);
        assert_eq!(out.len(), 1);
    }
}
