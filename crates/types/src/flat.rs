//! Byte strings stored back to back in one buffer.
//!
//! The read path's in-memory searches (tile fences, level key bounds,
//! range-tombstone fragment bounds) binary-search lists of keys. Held as
//! one `Bytes` or `Vec<u8>` each, every probe of such a search is a
//! pointer hop to a separate heap block. A [`FlatKeys`] keeps the keys in
//! one buffer and finds key `i` by its `u32` end offset, so a search
//! touches two contiguous arrays and nothing else.

/// A list of byte strings stored back to back, each found by the `u32`
/// offset at which it ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatKeys {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl FlatKeys {
    /// An empty list; allocates nothing.
    pub const fn new() -> FlatKeys {
        FlatKeys {
            bytes: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// An empty list with room for `keys` keys of `bytes` bytes in all:
    /// sized exactly, pushing that much allocates nothing more.
    pub fn with_capacity(keys: usize, bytes: usize) -> FlatKeys {
        FlatKeys {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(keys),
        }
    }

    /// Append `key`.
    ///
    /// # Panics
    /// If the list would hold more than `u32::MAX` bytes in all.
    pub fn push(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        let end = u32::try_from(self.bytes.len()).expect("flat key list exceeds 4 GiB");
        self.ends.push(end);
    }

    /// Release spare capacity (of a list reserved for more than it got).
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the list holds no key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Key `i`.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// The first index in `from..len` whose key fails `pred`, where
    /// `pred` holds for a prefix of that range and fails for the rest
    /// (as [`slice::partition_point`]); `len` if it holds throughout.
    pub fn partition_point_from(&self, from: usize, mut pred: impl FnMut(&[u8]) -> bool) -> usize {
        let (mut lo, mut hi) = (from, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// [`FlatKeys::partition_point_from`] over the whole list.
    pub fn partition_point(&self, pred: impl FnMut(&[u8]) -> bool) -> usize {
        self.partition_point_from(0, pred)
    }

    /// Heap bytes the list holds (its two buffers' capacities).
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.ends.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_come_back_in_order_including_empty_ones() {
        let keys: [&[u8]; 5] = [b"", b"a", b"", b"bcd", b"\x00"];
        let mut flat = FlatKeys::with_capacity(keys.len(), 5);
        for k in keys {
            flat.push(k);
        }
        assert_eq!(flat.len(), 5);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(flat.get(i), *k);
        }
        assert_eq!(flat.heap_bytes(), 5 + 5 * 4, "sized exactly");
    }

    #[test]
    fn partition_point_matches_the_slice_one() {
        let keys: Vec<Vec<u8>> = (0..40u8).map(|i| vec![b'k', i / 3]).collect();
        let mut flat = FlatKeys::default();
        keys.iter().for_each(|k| flat.push(k));
        for probe in 0..16u8 {
            let probe = [b'k', probe];
            for from in [0, 1, 7, 39, 40] {
                let expect = from + keys[from..].partition_point(|k| k[..] < probe[..]);
                assert_eq!(flat.partition_point_from(from, |k| k < &probe[..]), expect);
            }
        }
        assert_eq!(FlatKeys::default().partition_point(|_| true), 0);
    }
}
