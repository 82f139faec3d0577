//! K-way merging of heterogeneous entry sources in internal-key order.
//!
//! Sources implement [`KvSource`]; the engine merges table iterators and
//! materialized memtable ranges. The merge keeps a winner tree over
//! source *indices*: every internal node remembers which of its two
//! subtrees' current entries is smaller, so advancing one source replays
//! only the matches on its leaf-to-root path — ⌈log₂k⌉ key compares per
//! entry for `k` sources instead of a scan over all of them. Keys stay
//! in their sources and are compared in place; the tree owns no key.
//!
//! Sources *lend*: a key or value is borrowed from the page or memtable
//! entry it already lives in until a consumer decides to keep the entry.
//! A compaction hands each survivor to the table builder still borrowed
//! ([`CompactionStream::next_survivor`]); a scan builds an owned
//! [`Entry`] only for a row it yields ([`MergeIterator::entry`]).

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
    /// The winner tree, one word per internal node. With `k` sources,
    /// node `n` in `1..k` has children `2n` and `2n + 1`, node `k + i` is
    /// source `i`'s leaf, and `tree[n - 1]` holds the index of the source
    /// that won at `n`, plus [`TIED`] when both sides held the same key
    /// and [`DONE`] when the winner is exhausted. Empty (so never
    /// allocated) for one source.
    tree: Vec<u32>,
    current: Option<usize>,
}

/// Marks a tree node whose match was a tie: an identical internal key
/// sits in a second source.
const TIED: u32 = 1 << 31;
/// Marks a tree node whose winner is exhausted, and so is every source
/// beneath it.
const DONE: u32 = 1 << 30;
/// The source-index bits of a tree node.
const INDEX: u32 = DONE - 1;

/// A match entrant: a source's index and its current key (`None` once
/// the source is exhausted).
type Entrant<'k> = (usize, Option<&'k [u8]>);

/// The entrant that won at `node`: a leaf's own source, or an internal
/// node's recorded winner. Costs one `key` call (and a `valid` call for
/// a leaf); an exhausted internal winner costs none.
fn entrant<'k>(sources: &'k [Box<dyn KvSource>], tree: &[u32], node: usize) -> Entrant<'k> {
    let k = sources.len();
    let (i, done) = if node >= k {
        (node - k, !sources[node - k].valid())
    } else {
        let word = tree[node - 1];
        ((word & INDEX) as usize, word & DONE != 0)
    };
    (i, (!done).then(|| sources[i].key()))
}

/// One match: the smaller key wins, an exhausted entrant loses, and a
/// tie goes to the lower index. Returns the winner and the word its
/// node records.
fn duel<'k>(a: Entrant<'k>, b: Entrant<'k>) -> (Entrant<'k>, u32) {
    match (a.1, b.1) {
        (Some(ka), Some(kb)) => match compare_internal(ka, kb) {
            std::cmp::Ordering::Less => (a, a.0 as u32),
            std::cmp::Ordering::Greater => (b, b.0 as u32),
            std::cmp::Ordering::Equal => {
                let w = if a.0 < b.0 { a } else { b };
                (w, w.0 as u32 | TIED)
            }
        },
        (Some(_), None) => (a, a.0 as u32),
        (None, Some(_)) => (b, b.0 as u32),
        (None, None) => (a, a.0 as u32 | DONE),
    }
}

impl MergeIterator {
    /// Merge the given sources (each already positioned at its start).
    pub fn new(sources: Vec<Box<dyn KvSource>>) -> MergeIterator {
        assert!(sources.len() <= INDEX as usize, "too many merge sources");
        let mut tree = vec![0; sources.len().saturating_sub(1)];
        for node in (1..sources.len()).rev() {
            let left = entrant(&sources, &tree, 2 * node);
            let (_, word) = duel(left, entrant(&sources, &tree, 2 * node + 1));
            tree[node - 1] = word;
        }
        let mut m = MergeIterator {
            sources,
            tree,
            current: None,
        };
        m.set_current();
        m
    }

    /// Replay the matches on source `i`'s path to the root after `i`
    /// moved, carrying the winner's key up so each level costs one
    /// compare and one `key` call.
    fn replay(&mut self, i: usize) {
        let (sources, tree) = (&self.sources, &mut self.tree);
        let mut node = sources.len() + i;
        let mut carried = entrant(sources, tree, node);
        while node > 1 {
            let (won, word) = duel(carried, entrant(sources, tree, node ^ 1));
            node /= 2;
            tree[node - 1] = word;
            carried = won;
        }
    }

    /// True if a match on source `i`'s path to the root was a tie.
    fn tied_path(&self, i: usize) -> bool {
        let mut node = (self.sources.len() + i) / 2;
        while node >= 1 {
            if self.tree[node - 1] & TIED != 0 {
                return true;
            }
            node /= 2;
        }
        false
    }

    /// Point `current` at the root's winner, if it holds an entry.
    fn set_current(&mut self) {
        self.current = match self.tree.first() {
            Some(&root) => (root & DONE == 0).then_some((root & INDEX) as usize),
            None => (self.sources.len() == 1 && self.sources[0].valid()).then_some(0),
        };
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
        // The winner beat every other source's smallest key on its path
        // to the root, so a duplicate of its key shows as a tie there.
        if self.tied_path(cur) {
            for i in 0..self.sources.len() {
                if i != cur
                    && self.sources[i].valid()
                    && self.sources[i].key() == self.sources[cur].key()
                {
                    self.sources[i].next()?;
                    self.replay(i);
                }
            }
        }
        self.sources[cur].next()?;
        self.replay(cur);
        self.set_current();
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
    /// The encoded internal key of the pending survivor last lent out.
    pending_key: Vec<u8>,
    /// The current chain's user key (scratch of the snapshot-free path).
    head_key: Vec<u8>,
    /// Whether the merge still sits on a chain head lent out by the last
    /// call, with the rest of its chain unread.
    head_lent: bool,
    /// Stamp for the vlog extents of the entries the current head
    /// shadows (see [`CompactionStream::next_survivor`]).
    head_stamp: Tick,
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

/// One surviving entry of a compaction, lent from where it lives: the
/// key from its source page (or, for a snapshot-pinned chain, from the
/// stream's scratch), the value as a handle on its source's bytes.
pub struct Survivor<'s> {
    /// The encoded internal key.
    pub key: InternalKeyRef<'s>,
    /// The key's kind (already validated).
    pub kind: ValueKind,
    /// The secondary delete key.
    pub dkey: u64,
    /// The value.
    pub value: Bytes,
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
            pending_key: Vec::new(),
            head_key: Vec::new(),
            head_lent: false,
            head_stamp: 0,
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
    /// it (rule 1 of [`CompactionStream::next_survivor`]).
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

    /// Apply rules 2 and 3 of [`CompactionStream::next_survivor`] to the
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

    /// Lend out the next surviving entry, or `None` at end of input.
    /// The counters are complete once this has returned `None`.
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
    ///
    /// With no live snapshot a chain is a single stratum, so only its
    /// head can survive and nothing older needs to be looked at before
    /// deciding: the head is lent straight from its source, and the rest
    /// of its chain streams past (accounted as shadowed) on the next
    /// call. With snapshots a chain is collected and walked instead.
    pub fn next_survivor(&mut self) -> Result<Option<Survivor<'_>>> {
        if self.head_lent {
            self.head_lent = false;
            self.skip_chain()?;
        }
        loop {
            if let Some(e) = self.pending.pop_front() {
                self.pending_key.clear();
                self.pending_key.extend_from_slice(&e.key);
                self.pending_key
                    .extend_from_slice(&pack_tag(e.seqno, e.kind as u8).to_le_bytes());
                return Ok(Some(Survivor {
                    key: InternalKeyRef::decode(&self.pending_key).expect("key has a tag"),
                    kind: e.kind,
                    dkey: e.dkey,
                    value: e.value,
                }));
            }
            if !self.merge.valid() {
                return Ok(None);
            }
            if !self.snapshots.is_empty() {
                self.next_chain_pinned()?;
                continue;
            }
            let (key, kind) = decode_key(self.merge.key())?;
            let (seqno, dkey) = (key.seqno(), self.merge.dkey());
            self.head_key.clear();
            self.head_key.extend_from_slice(key.user_key());
            // A separated value shadowed by a tombstone dies *because of
            // that delete*: seed its dead-extent age from the delete's
            // own tick so the vlog GC deadline measures delete-to-reclaim
            // end to end.
            self.head_stamp = if kind.is_tombstone() { dkey } else { self.now };
            let ptr = pointer_of(kind, || self.merge.value());
            if self.head_survives(seqno, kind.is_tombstone(), dkey, ptr, false) {
                self.head_lent = true;
                let (key, kind) = decode_key(self.merge.key())?;
                return Ok(Some(Survivor {
                    key,
                    kind,
                    dkey,
                    value: self.merge.value(),
                }));
            }
            self.skip_chain()?;
        }
    }

    /// Step past the current chain head and every older version of its
    /// user key, accounting each as shadowed by the head.
    fn skip_chain(&mut self) -> Result<()> {
        self.merge.advance()?;
        while self.merge.valid() {
            let (key, kind) = decode_key(self.merge.key())?;
            if key.user_key() != self.head_key {
                break;
            }
            let seqno = key.seqno();
            let ptr = pointer_of(kind, || self.merge.value());
            self.note_shadowed(seqno, kind.is_tombstone(), ptr, self.head_stamp);
            self.merge.advance()?;
        }
        Ok(())
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

    /// Every survivor of `s`, owned.
    fn survivors(s: &mut CompactionStream<'_>) -> Vec<Entry> {
        let mut out = Vec::new();
        while let Some(v) = s.next_survivor().unwrap() {
            out.push(Entry {
                key: Bytes::copy_from_slice(v.key.user_key()),
                seqno: v.key.seqno(),
                kind: v.kind,
                dkey: v.dkey,
                value: v.value,
            });
        }
        out
    }

    fn drain_stream(mut s: CompactionStream<'_>) -> (Vec<Entry>, u64, u64, usize) {
        let out = survivors(&mut s);
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
                if general {
                    while s.merge.valid() {
                        s.next_chain_pinned().unwrap();
                        out.extend(s.pending.drain(..));
                    }
                } else {
                    out = survivors(&mut s);
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

    proptest::proptest! {
        /// The tree merge against a sort-and-dedup reference, over 0–17
        /// sources (most counts not a power of two), empty ones among
        /// them, drawn from a key space small enough that the same
        /// internal key often sits in several sources. Each entry's
        /// delete key names its source, so the output shows that the
        /// lowest-indexed copy won and the others were skipped.
        #[test]
        fn merge_matches_sort_and_dedup(
            sets in proptest::collection::vec(
                proptest::collection::btree_map((0u8..24, 1u64..40), proptest::bool::ANY, 0..30),
                0..=17,
            )
        ) {
            let entry = |src: usize, (k, seq): (u8, u64)| {
                let key = format!("k{k:02}").into_bytes();
                if (u64::from(k) + seq) % 3 == 0 {
                    Entry::tombstone(key, seq, src as u64)
                } else {
                    Entry::put(key, format!("s{src}").into_bytes(), seq, src as u64)
                }
            };
            let sources: Vec<Vec<Entry>> = sets
                .iter()
                .enumerate()
                .map(|(src, set)| set.keys().map(|&ks| entry(src, ks)).collect())
                .collect();
            let mut expected: Vec<Entry> = sources.iter().flatten().cloned().collect();
            // Stable: equal internal keys keep source order, so the
            // lowest index comes first and survives the dedup.
            expected.sort_by_key(|e| e.internal_key());
            expected.dedup_by(|b, a| a.internal_key() == b.internal_key());
            proptest::prop_assert_eq!(drain_merge(merge_of(sources)), expected);
        }
    }

    #[test]
    fn duplicate_identical_keys_across_sources_yield_once() {
        let e = put("k", 5, 0);
        let m = merge_of(vec![vec![e.clone()], vec![e.clone()]]);
        let out = drain_merge(m);
        assert_eq!(out.len(), 1);
    }
}
