//! The logical WAL payload: an atomic batch of mutations.
//!
//! Wire format (all integers varint unless noted):
//!
//! ```text
//! base_seqno (fixed u64 LE) | count (varint u32) | count * op
//! op := kind (1B) | dkey (varint u64) | key (len-prefixed) | payload (len-prefixed)
//! ```
//!
//! For puts the payload is the value; for point deletes it is empty; for
//! sort-key range deletes the key is the start and the payload the end.
//! Secondary range deletes are not logged here: they are manifest edits.
//! Ops in a batch are stamped `base_seqno`, `base_seqno + 1`, … in order.
//!
//! A delete's dkey is its issue tick. A put's is whatever the caller
//! chose, so a put's kind byte carries [`TICK_MARK`] when its dkey is a
//! tick the engine's clock had reached when the batch was logged (the
//! one `Db::put` stamps, say): a replay starts the clock no earlier than
//! the newest of these ticks ([`WalBatch::tick`]), and a dkey the caller
//! set in the future does not move it.

use acheron_types::codec::{
    get_u64_le, put_length_prefixed, put_u64_le, put_varint32, put_varint64,
    require_length_prefixed, require_varint64,
};
use acheron_types::{
    Entry, Error, KeyRangeTombstone, Result, SeqNo, Tick, ValueKind, ValuePointer,
};
use bytes::Bytes;

/// One mutation inside a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert/update `key` with `value`; `dkey` is the secondary delete key.
    Put { key: Bytes, value: Bytes, dkey: u64 },
    /// Insert/update `key` with a value already appended to the value
    /// log; the op carries the pointer, not the value. Commit leaders
    /// append the vlog frame *before* logging this record, so a decoded
    /// `PutPtr` always names bytes written earlier in the same commit.
    PutPtr {
        /// The sort key.
        key: Bytes,
        /// Where the separated value lives.
        ptr: ValuePointer,
        /// The secondary delete key.
        dkey: u64,
    },
    /// Point-delete `key`; `tick` is the issue tick (FADE's age seed).
    Delete { key: Bytes, tick: u64 },
    /// Sort-key range delete over `[start, end]` (inclusive); `tick` is
    /// the issue tick (FADE's age seed, same as point deletes).
    RangeDeleteKeys { start: Bytes, end: Bytes, tick: u64 },
}

impl WalOp {
    fn kind(&self) -> ValueKind {
        match self {
            WalOp::Put { .. } => ValueKind::Put,
            WalOp::PutPtr { .. } => ValueKind::ValuePointer,
            WalOp::Delete { .. } => ValueKind::Tombstone,
            WalOp::RangeDeleteKeys { .. } => ValueKind::KeyRangeTombstone,
        }
    }

    /// The memtable entry this op becomes at `seqno`, sharing the op's
    /// key and value allocations; `None` for a range delete, which does
    /// not live in the skiplist.
    pub fn entry(&self, seqno: SeqNo) -> Option<Entry> {
        match self {
            WalOp::Put { key, value, dkey } => {
                Some(Entry::put(key.clone(), value.clone(), seqno, *dkey))
            }
            WalOp::PutPtr { key, ptr, dkey } => {
                Some(Entry::value_pointer(key.clone(), *ptr, seqno, *dkey))
            }
            WalOp::Delete { key, tick } => Some(Entry::tombstone(key.clone(), seqno, *tick)),
            WalOp::RangeDeleteKeys { .. } => None,
        }
    }
}

/// Set in a put's kind byte when its dkey is no later than the clock the
/// batch was logged at (see the module docs).
pub const TICK_MARK: u8 = 0x80;

/// Append the wire encoding of a batch of `ops` starting at `base_seqno`
/// and logged at `clock` to `out` — [`WalBatch::encode`] for callers
/// that borrow their ops and own a reusable buffer (the commit path).
pub fn encode_ops(base_seqno: SeqNo, ops: &[WalOp], clock: Tick, out: &mut Vec<u8>) {
    put_u64_le(out, base_seqno);
    put_varint32(out, ops.len() as u32);
    for op in ops {
        // op := kind | dkey | key | payload, whatever the kind.
        let ptr;
        let (dkey, key, payload): (u64, &[u8], &[u8]) = match op {
            WalOp::Put { key, value, dkey } => (*dkey, key, value),
            WalOp::PutPtr { key, ptr: p, dkey } => {
                ptr = p.encode();
                (*dkey, key, &ptr)
            }
            WalOp::Delete { key, tick } => (*tick, key, &[]),
            WalOp::RangeDeleteKeys { start, end, tick } => (*tick, start, end),
        };
        let put = matches!(op, WalOp::Put { .. } | WalOp::PutPtr { .. });
        out.push(op.kind() as u8 | if put && dkey <= clock { TICK_MARK } else { 0 });
        put_varint64(out, dkey);
        put_length_prefixed(out, key);
        put_length_prefixed(out, payload);
    }
}

/// An atomic group of operations sharing consecutive sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// Sequence number of the first op.
    pub base_seqno: SeqNo,
    /// The operations, in application order.
    pub ops: Vec<WalOp>,
    /// The clock the batch was logged at, as far as its record keeps it:
    /// the newest of its deletes' ticks and of its puts' dkeys no later
    /// than that clock (0 with neither). Encoding marks the puts whose
    /// dkey is at most `tick`.
    pub tick: Tick,
}

impl WalBatch {
    /// An empty batch starting at `base_seqno`.
    pub fn new(base_seqno: SeqNo) -> WalBatch {
        WalBatch {
            base_seqno,
            ops: Vec::new(),
            tick: 0,
        }
    }

    /// Encode to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.ops.len() * 32);
        encode_ops(self.base_seqno, &self.ops, self.tick, &mut out);
        out
    }

    /// Decode from the wire format, validating structure exhaustively.
    pub fn decode(data: &[u8]) -> Result<WalBatch> {
        let (base_seqno, rest) =
            get_u64_le(data).ok_or_else(|| Error::corruption("wal batch: truncated base seqno"))?;
        let (count, mut rest) = require_varint64(rest, "wal batch count")?;
        let mut ops = Vec::with_capacity(count.min(1024) as usize);
        let mut tick = 0;
        for i in 0..count {
            let (&kind_byte, r) = rest
                .split_first()
                .ok_or_else(|| Error::corruption(format!("wal batch: truncated op {i}")))?;
            let unknown = || Error::corruption(format!("wal batch: unknown op kind {kind_byte}"));
            let kind = ValueKind::from_u8(kind_byte & !TICK_MARK).ok_or_else(unknown)?;
            let (dkey, r) = require_varint64(r, "wal op dkey")?;
            let put = matches!(kind, ValueKind::Put | ValueKind::ValuePointer);
            if !put || kind_byte & TICK_MARK != 0 {
                tick = tick.max(dkey);
            }
            let (key, r) = require_length_prefixed(r, "wal op key")?;
            let (payload, r) = require_length_prefixed(r, "wal op payload")?;
            rest = r;
            ops.push(match kind {
                ValueKind::Put => WalOp::Put {
                    key: Bytes::copy_from_slice(key),
                    value: Bytes::copy_from_slice(payload),
                    dkey,
                },
                ValueKind::ValuePointer => {
                    let ptr = ValuePointer::decode(payload)
                        .ok_or_else(|| Error::corruption("wal put-ptr op: bad pointer encoding"))?;
                    WalOp::PutPtr {
                        key: Bytes::copy_from_slice(key),
                        ptr,
                        dkey,
                    }
                }
                ValueKind::Tombstone => {
                    if !payload.is_empty() {
                        return Err(Error::corruption("wal delete op carries a payload"));
                    }
                    WalOp::Delete {
                        key: Bytes::copy_from_slice(key),
                        tick: dkey,
                    }
                }
                // Secondary range deletes are manifest edits; no engine
                // has ever logged one.
                ValueKind::RangeTombstone => return Err(unknown()),
                ValueKind::KeyRangeTombstone => {
                    if payload < key {
                        return Err(Error::corruption(
                            "wal key-range-delete op: end sorts before start",
                        ));
                    }
                    WalOp::RangeDeleteKeys {
                        start: Bytes::copy_from_slice(key),
                        end: Bytes::copy_from_slice(payload),
                        tick: dkey,
                    }
                }
            });
        }
        if !rest.is_empty() {
            return Err(Error::corruption(format!(
                "wal batch: {} trailing bytes after {count} ops",
                rest.len()
            )));
        }
        Ok(WalBatch {
            base_seqno,
            ops,
            tick,
        })
    }

    /// Materialize the batch's point mutations as [`Entry`] values with
    /// their assigned sequence numbers, and its sort-key range deletes as
    /// [`KeyRangeTombstone`]s.
    pub fn entries(&self) -> (Vec<Entry>, Vec<KeyRangeTombstone>) {
        let mut entries = Vec::new();
        let mut key_ranges = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let seqno = self.base_seqno + i as u64;
            match op {
                WalOp::RangeDeleteKeys { start, end, tick } => {
                    key_ranges.push(KeyRangeTombstone {
                        start: start.clone(),
                        end: end.clone(),
                        seqno,
                        dkey: *tick,
                    });
                }
                point => entries.extend(point.entry(seqno)),
            }
        }
        (entries, key_ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WalBatch {
        WalBatch {
            base_seqno: 100,
            ops: vec![
                WalOp::Put {
                    key: Bytes::from_static(b"k1"),
                    value: Bytes::from_static(b"v1"),
                    dkey: 7,
                },
                WalOp::Delete {
                    key: Bytes::from_static(b"k2"),
                    tick: 55,
                },
                WalOp::Put {
                    key: Bytes::from_static(b""),
                    value: Bytes::from_static(b""),
                    dkey: 0,
                },
                WalOp::RangeDeleteKeys {
                    start: Bytes::from_static(b"a"),
                    end: Bytes::from_static(b"m"),
                    tick: 42,
                },
                WalOp::PutPtr {
                    key: Bytes::from_static(b"k3"),
                    ptr: ValuePointer {
                        segment: 2,
                        offset: 8192,
                        len: 517,
                    },
                    dkey: 9,
                },
            ],
            tick: 55,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let b = sample();
        let decoded = WalBatch::decode(&b.encode()).unwrap();
        assert_eq!(decoded, b);
    }

    #[test]
    fn empty_batch_round_trips() {
        let b = WalBatch::new(1);
        assert_eq!(WalBatch::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn entries_assign_consecutive_seqnos() {
        let (entries, key_ranges) = sample().entries();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].seqno, 100);
        assert_eq!(entries[1].seqno, 101);
        assert!(entries[1].is_tombstone());
        assert_eq!(entries[1].dkey, 55);
        assert_eq!(entries[2].seqno, 102);
        assert_eq!(entries[3].seqno, 104);
        assert_eq!(entries[3].kind, ValueKind::ValuePointer);
        assert_eq!(
            ValuePointer::decode(&entries[3].value),
            Some(ValuePointer {
                segment: 2,
                offset: 8192,
                len: 517,
            })
        );
        assert_eq!(
            key_ranges,
            vec![KeyRangeTombstone {
                start: Bytes::from_static(b"a"),
                end: Bytes::from_static(b"m"),
                seqno: 103,
                dkey: 42,
            }]
        );
    }

    #[test]
    fn decode_rejects_a_logged_secondary_range_delete() {
        // The record a secondary range delete would have been: empty key,
        // a 16-byte `[lo, hi]` payload. Such deletes are manifest edits,
        // so the kind is not a WAL op.
        let mut data = Vec::new();
        put_u64_le(&mut data, 1);
        put_varint32(&mut data, 1);
        data.push(ValueKind::RangeTombstone as u8);
        put_varint64(&mut data, 0);
        put_length_prefixed(&mut data, b"");
        put_length_prefixed(&mut data, &[0u8; 16]);
        let err = WalBatch::decode(&data).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("unknown op kind"), "{err}");
    }

    #[test]
    fn decode_rejects_inverted_key_range() {
        // Hand-encode a sort-key range delete whose end sorts before its
        // start; the decoder must refuse it.
        let mut data = Vec::new();
        put_u64_le(&mut data, 1);
        put_varint32(&mut data, 1);
        data.push(ValueKind::KeyRangeTombstone as u8);
        put_varint64(&mut data, 0);
        put_length_prefixed(&mut data, b"z");
        put_length_prefixed(&mut data, b"a");
        assert!(WalBatch::decode(&data).is_err());
    }

    #[test]
    fn decode_rejects_truncations() {
        let full = sample().encode();
        for cut in 0..full.len() {
            assert!(
                WalBatch::decode(&full[..cut]).is_err(),
                "prefix of length {cut} must not decode"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut data = sample().encode();
        data.push(0xaa);
        assert!(WalBatch::decode(&data).is_err());
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let b = WalBatch {
            base_seqno: 1,
            ops: vec![WalOp::Delete {
                key: Bytes::from_static(b"k"),
                tick: 0,
            }],
            tick: 0,
        };
        let mut data = b.encode();
        // kind byte is right after the 8-byte seqno + 1-byte count.
        data[9] = 9;
        assert!(WalBatch::decode(&data).is_err());
    }

    #[test]
    fn decode_rejects_put_ptr_with_bad_pointer() {
        // A value-pointer op whose payload is not the exact fixed-size
        // pointer encoding must be refused.
        for bad_len in [0usize, 19, 21] {
            let mut data = Vec::new();
            put_u64_le(&mut data, 1);
            put_varint32(&mut data, 1);
            data.push(ValueKind::ValuePointer as u8);
            put_varint64(&mut data, 0);
            put_length_prefixed(&mut data, b"k");
            put_length_prefixed(&mut data, &vec![0u8; bad_len]);
            assert!(
                WalBatch::decode(&data).is_err(),
                "pointer payload of {bad_len} bytes must not decode"
            );
        }
    }

    #[test]
    fn decode_rejects_delete_with_payload() {
        // Hand-encode a delete op with a non-empty payload.
        let mut data = Vec::new();
        put_u64_le(&mut data, 1);
        put_varint32(&mut data, 1);
        data.push(ValueKind::Tombstone as u8);
        put_varint64(&mut data, 0);
        put_length_prefixed(&mut data, b"k");
        put_length_prefixed(&mut data, b"oops");
        assert!(WalBatch::decode(&data).is_err());
    }

    #[test]
    fn large_batch_round_trip() {
        let mut b = WalBatch::new(5000);
        for i in 0..1000u32 {
            b.ops.push(WalOp::Put {
                key: Bytes::from(format!("key{i}").into_bytes()),
                value: Bytes::from(vec![(i % 256) as u8; (i % 64) as usize]),
                dkey: u64::from(i),
            });
        }
        b.tick = 999;
        let decoded = WalBatch::decode(&b.encode()).unwrap();
        assert_eq!(decoded, b);
    }

    /// A put's dkey counts towards the batch's tick only when it is no
    /// later than the clock the batch was logged at; a delete's always
    /// does. The mark costs no byte.
    #[test]
    fn a_batch_keeps_the_newest_tick_its_clock_had_reached() {
        let put = |dkey| WalOp::Put {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
            dkey,
        };
        let delete = |tick| WalOp::Delete {
            key: Bytes::from_static(b"d"),
            tick,
        };
        for (ops, clock, tick) in [
            (vec![put(30), delete(20)], 40, 30),
            (vec![put(1_700_000_000_000), delete(20)], 40, 20),
            (vec![put(1_700_000_000_000)], 40, 0),
            (vec![put(40)], 40, 40),
        ] {
            let batch = WalBatch {
                base_seqno: 1,
                ops,
                tick: clock,
            };
            let mut unmarked = Vec::new();
            encode_ops(1, &batch.ops, 0, &mut unmarked);
            assert_eq!(batch.encode().len(), unmarked.len());
            let decoded = WalBatch::decode(&batch.encode()).unwrap();
            assert_eq!((decoded.ops, decoded.tick), (batch.ops, tick));
        }
    }
}
