//! User and internal keys.
//!
//! A *user key* is an arbitrary byte string chosen by the application
//! (the LSM *sort key*). An *internal key* is a user key plus an 8-byte
//! trailer packing the mutation's sequence number and kind:
//!
//! ```text
//! +----------------- user key ----------------+--- tag (8B LE) ---+
//! | arbitrary bytes                            | seqno<<8 | kind  |
//! +--------------------------------------------+-------------------+
//! ```
//!
//! Internal keys order by user key ascending, then by tag **descending**
//! — so within one user key the newest mutation sorts first. All SSTable
//! blocks, fence pointers, and merge iterators operate on this order.

use std::cmp::Ordering;
use std::fmt;

use bytes::Bytes;

use crate::seq::{pack_tag, unpack_tag, SeqNo, ValueKind, SEEK_KIND};

/// An application-visible key (the LSM sort key). Cheaply cloneable.
pub type UserKey = Bytes;

/// Length in bytes of the internal-key trailer.
pub const TAG_LEN: usize = 8;

/// An owned internal key: user key + packed `(seqno, kind)` trailer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct InternalKey {
    encoded: Bytes,
}

impl InternalKey {
    /// Build an internal key from parts.
    pub fn new(user_key: &[u8], seq: SeqNo, kind: ValueKind) -> InternalKey {
        Self::with_kind_byte(user_key, seq, kind as u8)
    }

    /// Build a *seek* key: positions at the first entry for `user_key`
    /// visible at snapshot `seq` (i.e. with seqno ≤ `seq`).
    pub fn for_seek(user_key: &[u8], seq: SeqNo) -> InternalKey {
        Self::with_kind_byte(user_key, seq, SEEK_KIND)
    }

    fn with_kind_byte(user_key: &[u8], seq: SeqNo, kind: u8) -> InternalKey {
        let mut buf = Vec::with_capacity(user_key.len() + TAG_LEN);
        buf.extend_from_slice(user_key);
        buf.extend_from_slice(&pack_tag(seq, kind).to_le_bytes());
        InternalKey {
            encoded: Bytes::from(buf),
        }
    }

    /// Reconstruct from an encoded byte string (e.g. read from a block).
    ///
    /// Returns `None` if `encoded` is shorter than the trailer.
    pub fn decode(encoded: Bytes) -> Option<InternalKey> {
        if encoded.len() < TAG_LEN {
            return None;
        }
        Some(InternalKey { encoded })
    }

    /// The full encoded representation.
    #[inline]
    pub fn encoded(&self) -> &[u8] {
        &self.encoded
    }

    /// Borrow as an [`InternalKeyRef`].
    #[inline]
    pub fn as_ref(&self) -> InternalKeyRef<'_> {
        InternalKeyRef {
            encoded: &self.encoded,
        }
    }

    /// The user-key prefix.
    #[inline]
    pub fn user_key(&self) -> &[u8] {
        &self.encoded[..self.encoded.len() - TAG_LEN]
    }

    /// The user-key prefix as a cheap `Bytes` slice of this key.
    #[inline]
    pub fn user_key_bytes(&self) -> Bytes {
        self.encoded.slice(..self.encoded.len() - TAG_LEN)
    }

    /// The sequence number in the trailer.
    #[inline]
    pub fn seqno(&self) -> SeqNo {
        self.as_ref().seqno()
    }

    /// The kind byte in the trailer (may be [`SEEK_KIND`]).
    #[inline]
    pub fn kind_byte(&self) -> u8 {
        self.as_ref().kind_byte()
    }

    /// The decoded [`ValueKind`], if the kind byte is a real kind.
    #[inline]
    pub fn kind(&self) -> Option<ValueKind> {
        ValueKind::from_u8(self.kind_byte())
    }
}

impl fmt::Debug for InternalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InternalKey({:?}@{}:{:#x})",
            String::from_utf8_lossy(self.user_key()),
            self.seqno(),
            self.kind_byte()
        )
    }
}

impl Ord for InternalKey {
    fn cmp(&self, other: &Self) -> Ordering {
        compare_internal(self.encoded(), other.encoded())
    }
}

impl PartialOrd for InternalKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A seek key (see [`InternalKey::for_seek`]) for one lookup, encoded on
/// the stack when the user key is short enough: point reads build one per
/// probe and must not pay a heap allocation for it.
pub struct SeekKey {
    inline: [u8; SeekKey::INLINE],
    heap: Vec<u8>,
    len: usize,
}

impl SeekKey {
    const INLINE: usize = 64;

    /// The key that positions at the first entry for `user_key` visible
    /// at snapshot `seq`.
    pub fn new(user_key: &[u8], seq: SeqNo) -> SeekKey {
        let len = user_key.len() + TAG_LEN;
        let mut key = SeekKey {
            inline: [0; SeekKey::INLINE],
            heap: Vec::new(),
            len,
        };
        let buf = if len <= SeekKey::INLINE {
            &mut key.inline[..len]
        } else {
            key.heap.resize(len, 0);
            &mut key.heap[..]
        };
        buf[..user_key.len()].copy_from_slice(user_key);
        buf[user_key.len()..].copy_from_slice(&pack_tag(seq, SEEK_KIND).to_le_bytes());
        key
    }

    /// The encoded internal key.
    #[inline]
    pub fn encoded(&self) -> &[u8] {
        if self.len <= SeekKey::INLINE {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

/// A borrowed view of an encoded internal key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InternalKeyRef<'a> {
    encoded: &'a [u8],
}

impl<'a> InternalKeyRef<'a> {
    /// Wrap an encoded internal key. Returns `None` if too short to hold
    /// the trailer.
    #[inline]
    pub fn decode(encoded: &'a [u8]) -> Option<InternalKeyRef<'a>> {
        if encoded.len() < TAG_LEN {
            return None;
        }
        Some(InternalKeyRef { encoded })
    }

    /// The full encoded bytes.
    #[inline]
    pub fn encoded(&self) -> &'a [u8] {
        self.encoded
    }

    /// The user-key prefix.
    #[inline]
    pub fn user_key(&self) -> &'a [u8] {
        &self.encoded[..self.encoded.len() - TAG_LEN]
    }

    /// The packed trailer.
    #[inline]
    pub fn tag(&self) -> u64 {
        let off = self.encoded.len() - TAG_LEN;
        u64::from_le_bytes(self.encoded[off..].try_into().unwrap())
    }

    /// The sequence number.
    #[inline]
    pub fn seqno(&self) -> SeqNo {
        unpack_tag(self.tag()).0
    }

    /// The kind byte.
    #[inline]
    pub fn kind_byte(&self) -> u8 {
        unpack_tag(self.tag()).1
    }

    /// Convert to an owned [`InternalKey`].
    pub fn to_owned(&self) -> InternalKey {
        InternalKey {
            encoded: Bytes::copy_from_slice(self.encoded),
        }
    }
}

impl fmt::Debug for InternalKeyRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InternalKeyRef({:?}@{}:{:#x})",
            String::from_utf8_lossy(self.user_key()),
            self.seqno(),
            self.kind_byte()
        )
    }
}

/// Compare two *encoded* internal keys: user key ascending, then tag
/// descending (newer mutations first).
///
/// Both inputs must be valid encodings (at least [`TAG_LEN`] bytes); in
/// release builds a short input compares by raw bytes, in debug builds it
/// asserts.
#[inline]
pub fn compare_internal(a: &[u8], b: &[u8]) -> Ordering {
    debug_assert!(
        a.len() >= TAG_LEN && b.len() >= TAG_LEN,
        "short internal key"
    );
    if a.len() < TAG_LEN || b.len() < TAG_LEN {
        return a.cmp(b);
    }
    let (ua, ta) = a.split_at(a.len() - TAG_LEN);
    let (ub, tb) = b.split_at(b.len() - TAG_LEN);
    match ua.cmp(ub) {
        Ordering::Equal => {
            let ta = u64::from_le_bytes(ta.try_into().unwrap());
            let tb = u64::from_le_bytes(tb.try_into().unwrap());
            tb.cmp(&ta) // descending: larger tag (newer) sorts first
        }
        ord => ord,
    }
}

/// [`compare_internal`] over keys held as `(user key, packed tag)` pairs,
/// for callers that keep the parts and never build the encoding.
#[inline]
pub fn compare_parts(ua: &[u8], ta: u64, ub: &[u8], tb: u64) -> Ordering {
    ua.cmp(ub).then_with(|| tb.cmp(&ta))
}

/// Compare user keys (plain byte order); named for symmetry and to keep
/// call sites explicit about which domain they compare in.
#[inline]
pub fn compare_user(a: &[u8], b: &[u8]) -> Ordering {
    a.cmp(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ik(k: &str, seq: SeqNo, kind: ValueKind) -> InternalKey {
        InternalKey::new(k.as_bytes(), seq, kind)
    }

    #[test]
    fn parts_round_trip() {
        let key = ik("apple", 42, ValueKind::Put);
        assert_eq!(key.user_key(), b"apple");
        assert_eq!(key.seqno(), 42);
        assert_eq!(key.kind(), Some(ValueKind::Put));
        assert_eq!(key.user_key_bytes(), Bytes::from_static(b"apple"));
    }

    #[test]
    fn empty_user_key_is_valid() {
        let key = ik("", 7, ValueKind::Tombstone);
        assert_eq!(key.user_key(), b"");
        assert_eq!(key.seqno(), 7);
        assert_eq!(key.encoded().len(), TAG_LEN);
    }

    #[test]
    fn decode_rejects_short_input() {
        assert!(InternalKey::decode(Bytes::from_static(b"1234567")).is_none());
        assert!(InternalKeyRef::decode(b"1234567").is_none());
        assert!(InternalKeyRef::decode(&[]).is_none());
    }

    #[test]
    fn ordering_user_key_ascending() {
        assert!(ik("a", 5, ValueKind::Put) < ik("b", 1, ValueKind::Put));
        assert!(ik("ab", 1, ValueKind::Put) < ik("b", 100, ValueKind::Put));
    }

    #[test]
    fn ordering_same_user_key_newer_first() {
        let newer = ik("k", 10, ValueKind::Tombstone);
        let older = ik("k", 9, ValueKind::Put);
        assert!(newer < older, "newer seqno must sort first");
    }

    #[test]
    fn seek_key_positions_before_equal_seqno_entries() {
        let seek = InternalKey::for_seek(b"k", 10);
        let put_at_10 = ik("k", 10, ValueKind::Put);
        let put_at_11 = ik("k", 11, ValueKind::Put);
        // Seek key sorts at-or-before seqno-10 entries ...
        assert!(seek <= put_at_10);
        // ... but after seqno-11 entries (which are invisible to snapshot 10).
        assert!(put_at_11 < seek);
    }

    #[test]
    fn stack_seek_key_matches_owned_encoding() {
        for len in [0usize, 1, 20, 56, 57, 300] {
            let user_key = vec![b'k'; len];
            let owned = InternalKey::for_seek(&user_key, 77);
            assert_eq!(SeekKey::new(&user_key, 77).encoded(), owned.encoded());
        }
    }

    #[test]
    fn compare_parts_matches_compare_internal() {
        let keys = [
            ik("a", 1, ValueKind::Put),
            ik("a", 2, ValueKind::Tombstone),
            ik("ab", 1, ValueKind::Put),
            ik("", 9, ValueKind::Put),
        ];
        for x in &keys {
            for y in &keys {
                let (rx, ry) = (x.as_ref(), y.as_ref());
                assert_eq!(
                    compare_parts(rx.user_key(), rx.tag(), ry.user_key(), ry.tag()),
                    compare_internal(x.encoded(), y.encoded())
                );
            }
        }
    }

    #[test]
    fn prefix_user_keys_order_correctly() {
        // "ab" < "abc" as user keys; the tag bytes must not leak into the
        // user-key comparison.
        let a = ik("ab", 1, ValueKind::Put);
        let b = ik("abc", 1_000_000, ValueKind::Put);
        assert!(a < b);
    }

    #[test]
    fn ref_and_owned_agree() {
        let a = ik("same", 3, ValueKind::Put);
        let r = InternalKeyRef::decode(a.encoded()).unwrap();
        assert_eq!(r.user_key(), a.user_key());
        assert_eq!(r.seqno(), a.seqno());
        assert_eq!(r.to_owned(), a);
    }

    #[test]
    fn compare_internal_matches_ord_impl() {
        let keys = [
            ik("a", 1, ValueKind::Put),
            ik("a", 2, ValueKind::Tombstone),
            ik("b", 1, ValueKind::Put),
            ik("", 0, ValueKind::Put),
        ];
        for x in &keys {
            for y in &keys {
                assert_eq!(x.cmp(y), compare_internal(x.encoded(), y.encoded()));
            }
        }
    }

    #[test]
    fn sorting_a_history_yields_newest_first_per_key() {
        let mut v = [
            ik("k", 1, ValueKind::Put),
            ik("k", 3, ValueKind::Tombstone),
            ik("j", 9, ValueKind::Put),
            ik("k", 2, ValueKind::Put),
        ];
        v.sort();
        let rendered: Vec<(Vec<u8>, SeqNo)> = v
            .iter()
            .map(|k| (k.user_key().to_vec(), k.seqno()))
            .collect();
        assert_eq!(
            rendered,
            vec![
                (b"j".to_vec(), 9),
                (b"k".to_vec(), 3),
                (b"k".to_vec(), 2),
                (b"k".to_vec(), 1),
            ]
        );
    }
}
