//! Data block (page) format: prefix-compressed entries with restart
//! points, mapping internal keys to `(dkey, value)`.
//!
//! Entry encoding:
//!
//! ```text
//! shared (varint) | non_shared (varint) | value_len (varint)
//!   | dkey (8B LE) | key_delta (non_shared bytes) | value
//! ```
//!
//! Every `restart_interval`-th entry is a *restart point*: its key is
//! stored whole, and its offset is appended to a trailer array, enabling
//! binary search. The block tail is:
//!
//! ```text
//! restart_offsets (u32 LE each) | n_restarts (u32 LE)
//! ```

use acheron_types::codec::{get_varint32, put_varint32};
use acheron_types::key::compare_internal;
use acheron_types::{Error, Result};
use bytes::Bytes;
use std::cmp::Ordering;

/// Serializes one page of entries.
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    entries_since_restart: usize,
    last_key: Vec<u8>,
    n_entries: usize,
}

impl BlockBuilder {
    /// A builder with the given restart interval (entries per restart).
    pub fn new(restart_interval: usize) -> BlockBuilder {
        assert!(restart_interval >= 1);
        BlockBuilder {
            buf: Vec::with_capacity(4096),
            restarts: vec![0],
            restart_interval,
            entries_since_restart: 0,
            last_key: Vec::new(),
            n_entries: 0,
        }
    }

    /// Append an entry. Keys must arrive in strictly increasing
    /// internal-key order.
    pub fn add(&mut self, ikey: &[u8], dkey: u64, value: &[u8]) {
        debug_assert!(
            self.n_entries == 0 || compare_internal(&self.last_key, ikey) == Ordering::Less,
            "block entries must be added in strictly increasing internal-key order"
        );
        let shared = if self.entries_since_restart < self.restart_interval {
            common_prefix_len(&self.last_key, ikey)
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.entries_since_restart = 0;
            0
        };
        let non_shared = ikey.len() - shared;
        put_varint32(&mut self.buf, shared as u32);
        put_varint32(&mut self.buf, non_shared as u32);
        put_varint32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&dkey.to_le_bytes());
        self.buf.extend_from_slice(&ikey[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(ikey);
        self.entries_since_restart += 1;
        self.n_entries += 1;
    }

    /// Number of entries added.
    pub fn len(&self) -> usize {
        self.n_entries
    }

    /// True if no entries were added.
    pub fn is_empty(&self) -> bool {
        self.n_entries == 0
    }

    /// Serialize, consuming accumulated state; the builder can be reused
    /// afterwards via [`BlockBuilder::reset`].
    pub fn finish(&mut self) -> Vec<u8> {
        self.finish_in_place();
        std::mem::take(&mut self.buf)
    }

    /// Serialize into the builder's own buffer and lend the result, so a
    /// builder that is [`reset`](BlockBuilder::reset) between blocks
    /// reuses one allocation for all of them.
    pub fn finish_in_place(&mut self) -> &[u8] {
        for r in &self.restarts {
            self.buf.extend_from_slice(&r.to_le_bytes());
        }
        self.buf
            .extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
        &self.buf
    }

    /// Clear for building the next block.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.restarts.clear();
        self.restarts.push(0);
        self.entries_since_restart = 0;
        self.last_key.clear();
        self.n_entries = 0;
    }
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// An immutable, decoded page.
#[derive(Clone)]
pub struct Block {
    data: Bytes,
    /// Offset where the restart array begins.
    restarts_offset: usize,
    n_restarts: usize,
}

impl Block {
    /// Wrap serialized block contents (without trailer).
    pub fn new(data: Bytes) -> Result<Block> {
        if data.len() < 4 {
            return Err(Error::corruption("block shorter than restart count"));
        }
        let n_restarts = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap()) as usize;
        let restarts_bytes = n_restarts
            .checked_mul(4)
            .and_then(|b| b.checked_add(4))
            .ok_or_else(|| Error::corruption("restart count overflow"))?;
        if restarts_bytes > data.len() {
            return Err(Error::corruption(format!(
                "block of {} bytes cannot hold {n_restarts} restarts",
                data.len()
            )));
        }
        if n_restarts == 0 {
            return Err(Error::corruption("block must have at least one restart"));
        }
        let restarts_offset = data.len() - restarts_bytes;
        Ok(Block {
            data,
            restarts_offset,
            n_restarts,
        })
    }

    fn restart_point(&self, i: usize) -> usize {
        debug_assert!(i < self.n_restarts);
        let off = self.restarts_offset + i * 4;
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap()) as usize
    }

    /// A cursor positioned before the first entry.
    pub fn iter(&self) -> BlockIter {
        BlockIter {
            block: self.clone(),
            offset: 0,
            key: Vec::new(),
            dkey: 0,
            value: 0..0,
            valid: false,
        }
    }
}

/// Cursor over a [`Block`]'s entries.
pub struct BlockIter {
    block: Block,
    /// Offset of the *next* entry to decode.
    offset: usize,
    key: Vec<u8>,
    dkey: u64,
    /// Where the current value sits in the block. Kept as a range, not a
    /// `Bytes`: stepping over an entry must not touch the page's
    /// reference count.
    value: std::ops::Range<usize>,
    valid: bool,
}

impl BlockIter {
    /// True if positioned at an entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// The current entry's internal key.
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.key
    }

    /// The current entry's secondary delete key.
    pub fn dkey(&self) -> u64 {
        debug_assert!(self.valid);
        self.dkey
    }

    /// The current entry's value: a handle on the page's allocation,
    /// made on request — ask only for the entries you keep.
    pub fn value(&self) -> Bytes {
        debug_assert!(self.valid);
        self.block.data.slice(self.value.clone())
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.offset = 0;
        self.key.clear();
        self.parse_next()
    }

    /// Position at the first entry with internal key `>= target`.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        // Binary search the restart array for the last restart whose key
        // is < target.
        let (mut lo, mut hi) = (0usize, self.block.n_restarts - 1);
        while lo < hi {
            let mid = hi - (hi - lo) / 2; // upper mid so the loop shrinks
            if compare_internal(self.restart_key(mid)?, target) == Ordering::Less {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        self.offset = self.block.restart_point(lo);
        self.key.clear();
        // Linear scan forward.
        loop {
            self.parse_next()?;
            if !self.valid || compare_internal(&self.key, target) != Ordering::Less {
                return Ok(());
            }
        }
    }

    /// Advance to the next entry (invalid at end).
    #[allow(clippy::should_implement_trait)] // fallible cursor, not an Iterator
    pub fn next(&mut self) -> Result<()> {
        debug_assert!(self.valid);
        self.parse_next()
    }

    /// The full key at restart point `i` (shared length is 0 there),
    /// borrowed from the block.
    fn restart_key(&self, i: usize) -> Result<&[u8]> {
        let offset = self.block.restart_point(i);
        let data = &self.block.data[..self.block.restarts_offset];
        let src = data
            .get(offset..)
            .ok_or_else(|| Error::corruption("restart offset out of bounds"))?;
        let (shared, src) =
            get_varint32(src).ok_or_else(|| Error::corruption("bad restart entry"))?;
        if shared != 0 {
            return Err(Error::corruption("restart entry has nonzero shared length"));
        }
        let (non_shared, src) =
            get_varint32(src).ok_or_else(|| Error::corruption("bad restart entry"))?;
        let (_value_len, src) =
            get_varint32(src).ok_or_else(|| Error::corruption("bad restart entry"))?;
        let src = src
            .get(8..)
            .ok_or_else(|| Error::corruption("bad restart entry"))?;
        src.get(..non_shared as usize)
            .ok_or_else(|| Error::corruption("restart key out of bounds"))
    }

    fn parse_next(&mut self) -> Result<()> {
        let data_end = self.block.restarts_offset;
        if self.offset >= data_end {
            self.valid = false;
            return Ok(());
        }
        let base = self.offset;
        let src = &self.block.data[base..data_end];
        let (shared, src) =
            get_varint32(src).ok_or_else(|| Error::corruption("truncated block entry header"))?;
        let (non_shared, src) =
            get_varint32(src).ok_or_else(|| Error::corruption("truncated block entry header"))?;
        let (value_len, src) =
            get_varint32(src).ok_or_else(|| Error::corruption("truncated block entry header"))?;
        let dkey_bytes = src
            .get(..8)
            .ok_or_else(|| Error::corruption("truncated dkey"))?;
        let dkey = u64::from_le_bytes(dkey_bytes.try_into().unwrap());
        let src = &src[8..];
        if (shared as usize) > self.key.len() {
            return Err(Error::corruption(format!(
                "entry shares {shared} bytes but previous key has {}",
                self.key.len()
            )));
        }
        let key_delta = src
            .get(..non_shared as usize)
            .ok_or_else(|| Error::corruption("truncated key delta"))?;
        let value_start = non_shared as usize;
        // Bounds check only; the value stays in the page.
        src.get(value_start..value_start + value_len as usize)
            .ok_or_else(|| Error::corruption("truncated block value"))?;

        self.key.truncate(shared as usize);
        self.key.extend_from_slice(key_delta);
        self.dkey = dkey;
        let consumed_before_value = (data_end - base) - src.len() + value_start;
        let abs_value_start = base + consumed_before_value;
        self.value = abs_value_start..abs_value_start + value_len as usize;
        self.offset = self.value.end;
        self.valid = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acheron_types::{InternalKey, ValueKind};

    fn ik(k: &str, seq: u64) -> Vec<u8> {
        InternalKey::new(k.as_bytes(), seq, ValueKind::Put)
            .encoded()
            .to_vec()
    }

    fn build(entries: &[(Vec<u8>, u64, Vec<u8>)], restart_interval: usize) -> Block {
        let mut b = BlockBuilder::new(restart_interval);
        for (k, d, v) in entries {
            b.add(k, *d, v);
        }
        Block::new(Bytes::from(b.finish())).unwrap()
    }

    fn sample(n: usize) -> Vec<(Vec<u8>, u64, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    ik(&format!("key{i:05}"), (n - i) as u64),
                    i as u64 * 10,
                    format!("value-{i}").into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn iterate_all_entries() {
        for restart in [1, 2, 16] {
            let entries = sample(100);
            let block = build(&entries, restart);
            let mut it = block.iter();
            it.seek_to_first().unwrap();
            for (k, d, v) in &entries {
                assert!(it.valid());
                assert_eq!(it.key(), &k[..]);
                assert_eq!(it.dkey(), *d);
                assert_eq!(&it.value()[..], &v[..]);
                it.next().unwrap();
            }
            assert!(!it.valid());
        }
    }

    #[test]
    fn seek_exact_and_between() {
        let entries = sample(50);
        let block = build(&entries, 4);
        let mut it = block.iter();

        // Exact hit.
        it.seek(&entries[17].0).unwrap();
        assert!(it.valid());
        assert_eq!(it.key(), &entries[17].0[..]);

        // Between two keys: lands on the next one. A seek key for
        // user key "key00017x" (which doesn't exist) lands on key00018.
        let between = InternalKey::for_seek(b"key00017x", u64::MAX >> 9);
        it.seek(between.encoded()).unwrap();
        assert!(it.valid());
        assert_eq!(it.key(), &entries[18].0[..]);

        // Before everything.
        let lowest = InternalKey::for_seek(b"a", 1);
        it.seek(lowest.encoded()).unwrap();
        assert!(it.valid());
        assert_eq!(it.key(), &entries[0].0[..]);

        // Past everything.
        let beyond = InternalKey::for_seek(b"zzz", 1);
        it.seek(beyond.encoded()).unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn seek_with_restart_interval_one() {
        let entries = sample(10);
        let block = build(&entries, 1);
        let mut it = block.iter();
        for (k, _, _) in &entries {
            it.seek(k).unwrap();
            assert!(it.valid());
            assert_eq!(it.key(), &k[..]);
        }
    }

    #[test]
    fn empty_block_iterates_nothing() {
        let block = build(&[], 16);
        let mut it = block.iter();
        it.seek_to_first().unwrap();
        assert!(!it.valid());
        it.seek(&ik("x", 1)).unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn single_entry_block() {
        let entries = sample(1);
        let block = build(&entries, 16);
        let mut it = block.iter();
        it.seek_to_first().unwrap();
        assert!(it.valid());
        assert_eq!(it.key(), &entries[0].0[..]);
        it.next().unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn prefix_compression_shrinks_output() {
        let entries = sample(200);
        let compressed = {
            let mut b = BlockBuilder::new(16);
            for (k, d, v) in &entries {
                b.add(k, *d, v);
            }
            b.finish().len()
        };
        let uncompressed = {
            let mut b = BlockBuilder::new(1);
            for (k, d, v) in &entries {
                b.add(k, *d, v);
            }
            b.finish().len()
        };
        assert!(
            compressed < uncompressed,
            "prefix compression should shrink shared-prefix keys: {compressed} vs {uncompressed}"
        );
    }

    #[test]
    fn builder_reset_reuses_cleanly() {
        let mut b = BlockBuilder::new(4);
        b.add(&ik("a", 1), 0, b"1");
        let first = b.finish();
        b.reset();
        b.add(&ik("a", 1), 0, b"1");
        let second = b.finish();
        assert_eq!(first, second);
    }

    #[test]
    fn corrupt_restart_count_rejected() {
        let entries = sample(5);
        let mut raw = {
            let mut b = BlockBuilder::new(16);
            for (k, d, v) in &entries {
                b.add(k, *d, v);
            }
            b.finish()
        };
        let n = raw.len();
        // Claim an absurd number of restarts.
        raw[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Block::new(Bytes::from(raw)).is_err());
    }

    #[test]
    fn too_short_block_rejected() {
        assert!(Block::new(Bytes::from_static(&[1, 2])).is_err());
    }

    #[test]
    fn zero_copy_values_share_block_storage() {
        let entries = sample(3);
        let block = build(&entries, 16);
        let mut it = block.iter();
        it.seek_to_first().unwrap();
        let v = it.value();
        drop(it);
        // The value must stay alive independently of the iterator.
        assert_eq!(&v[..], b"value-0");
    }

    #[test]
    fn binary_keys_with_embedded_zeros() {
        let keys: Vec<Vec<u8>> = vec![
            InternalKey::new(&[0, 0, 1], 1, ValueKind::Put)
                .encoded()
                .to_vec(),
            InternalKey::new(&[0, 1], 2, ValueKind::Put)
                .encoded()
                .to_vec(),
            InternalKey::new(&[1, 0, 255], 3, ValueKind::Put)
                .encoded()
                .to_vec(),
        ];
        let entries: Vec<(Vec<u8>, u64, Vec<u8>)> =
            keys.into_iter().map(|k| (k, 7, vec![0xaa])).collect();
        let block = build(&entries, 2);
        let mut it = block.iter();
        it.seek(&entries[1].0).unwrap();
        assert!(it.valid());
        assert_eq!(it.key(), &entries[1].0[..]);
    }
}
