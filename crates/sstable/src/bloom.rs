//! Bloom filters over user keys, one per page.
//!
//! The filter uses double hashing (Kirsch–Mitzenmacker) over a 64-bit
//! FNV-1a-style base hash, with the probe count derived from the
//! configured bits-per-key (`k = bits_per_key * ln2`, clamped to
//! `[1, 30]`), matching the construction whose false-positive rate the
//! usual `(1 - e^{-kn/m})^k` formula describes.
//!
//! Serialized form: `filter bits | k (1 byte)`.

/// An immutable Bloom filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    k: u8,
}

fn base_hash(key: &[u8]) -> u64 {
    // FNV-1a 64-bit, then a finalizing mix (splitmix64 tail) to spread
    // short-key entropy into the high bits used by double hashing.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A Bloom filter read in place from its serialized form — what the
/// read path probes, so a lookup never copies filter bits.
#[derive(Debug, Clone, Copy)]
pub struct BloomFilterRef<'a> {
    bits: &'a [u8],
    k: u8,
}

impl<'a> BloomFilterRef<'a> {
    /// View a serialized filter. Returns `None` on an empty slice or an
    /// implausible probe count.
    pub fn decode(data: &'a [u8]) -> Option<BloomFilterRef<'a>> {
        let (&k, bits) = data.split_last()?;
        if k == 0 || k > 30 {
            return None;
        }
        Some(BloomFilterRef { bits, k })
    }

    /// True if `key` *may* be present; false means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let nbits = (self.bits.len() * 8) as u64;
        if nbits == 0 {
            return true;
        }
        let h = base_hash(key);
        let mut probe = h;
        let delta = h.rotate_left(31);
        for _ in 0..self.k {
            let bit = (probe % nbits) as usize;
            if self.bits[bit / 8] & (1 << (bit % 8)) == 0 {
                return false;
            }
            probe = probe.wrapping_add(delta);
        }
        true
    }
}

impl BloomFilter {
    /// Build a filter for `keys` at `bits_per_key` density.
    pub fn build<'a>(
        keys: impl ExactSizeIterator<Item = &'a [u8]>,
        bits_per_key: usize,
    ) -> BloomFilter {
        let mut bits = Vec::new();
        BloomFilter::build_into(keys, bits_per_key, &mut bits);
        let k = bits.pop().expect("serialized filter ends with k");
        BloomFilter { bits, k }
    }

    /// Build a filter for `keys` and append its serialized form to `out`
    /// (the table builder's filter block, grown in place).
    pub fn build_into<'a>(
        keys: impl ExactSizeIterator<Item = &'a [u8]>,
        bits_per_key: usize,
        out: &mut Vec<u8>,
    ) {
        let n = keys.len();
        let k = ((bits_per_key as f64 * std::f64::consts::LN_2) as u8).clamp(1, 30);
        // At least 64 bits to keep tiny filters from degenerating.
        let nbits = (n * bits_per_key).max(64);
        let nbytes = nbits.div_ceil(8);
        let nbits = nbytes * 8;
        let start = out.len();
        out.resize(start + nbytes, 0);
        let bits = &mut out[start..];
        for key in keys {
            let h = base_hash(key);
            let mut probe = h;
            let delta = h.rotate_left(31);
            for _ in 0..k {
                let bit = (probe % nbits as u64) as usize;
                bits[bit / 8] |= 1 << (bit % 8);
                probe = probe.wrapping_add(delta);
            }
        }
        out.push(k);
    }

    /// True if `key` *may* be present; false means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let view = BloomFilterRef {
            bits: &self.bits,
            k: self.k,
        };
        view.may_contain(key)
    }

    /// Serialize (`bits | k`).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bits.len() + 1);
        out.extend_from_slice(&self.bits);
        out.push(self.k);
        out
    }

    /// Deserialize into an owned filter. Returns `None` on an empty
    /// slice. Readers that only probe use [`BloomFilterRef::decode`].
    pub fn decode(data: &[u8]) -> Option<BloomFilter> {
        let view = BloomFilterRef::decode(data)?;
        Some(BloomFilter {
            bits: view.bits.to_vec(),
            k: view.k,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("{tag}-{i:06}").into_bytes())
            .collect()
    }

    fn build(keyset: &[Vec<u8>], bpk: usize) -> BloomFilter {
        BloomFilter::build(keyset.iter().map(|k| k.as_slice()), bpk)
    }

    #[test]
    fn no_false_negatives() {
        for n in [1usize, 10, 100, 5000] {
            let ks = keys(n, "present");
            let f = build(&ks, 10);
            for k in &ks {
                assert!(
                    f.may_contain(k),
                    "false negative for {:?}",
                    String::from_utf8_lossy(k)
                );
            }
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let ks = keys(10_000, "member");
        let f = build(&ks, 10);
        let probes = keys(10_000, "absent");
        let fp = probes.iter().filter(|k| f.may_contain(k)).count();
        let rate = fp as f64 / probes.len() as f64;
        // Theory for 10 bits/key is ~0.8%-1.2%; allow generous headroom.
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn more_bits_fewer_false_positives() {
        let ks = keys(5_000, "member");
        let probes = keys(20_000, "absent");
        let mut rates = Vec::new();
        for bpk in [4usize, 8, 16] {
            let f = build(&ks, bpk);
            let fp = probes.iter().filter(|k| f.may_contain(k)).count();
            rates.push(fp as f64 / probes.len() as f64);
        }
        assert!(
            rates[0] > rates[1] && rates[1] >= rates[2],
            "rates not decreasing: {rates:?}"
        );
    }

    #[test]
    fn empty_key_set() {
        let f = BloomFilter::build(std::iter::empty(), 10);
        // An empty filter answers "no" for everything (all bits zero).
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn empty_key_is_representable() {
        let ks = vec![Vec::new()];
        let f = build(&ks, 10);
        assert!(f.may_contain(b""));
    }

    #[test]
    fn encode_decode_round_trip() {
        let ks = keys(100, "x");
        let f = build(&ks, 12);
        let decoded = BloomFilter::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
        for k in &ks {
            assert!(decoded.may_contain(k));
        }
    }

    #[test]
    fn borrowed_view_and_in_place_build_agree_with_owned() {
        let ks = keys(300, "y");
        let f = build(&ks, 10);
        let mut block = vec![0xaa, 0xbb];
        BloomFilter::build_into(ks.iter().map(|k| k.as_slice()), 10, &mut block);
        assert_eq!(&block[2..], f.encode().as_slice());
        let view = BloomFilterRef::decode(&block[2..]).unwrap();
        for k in ks.iter().chain(keys(300, "z").iter()) {
            assert_eq!(view.may_contain(k), f.may_contain(k));
        }
        assert!(BloomFilterRef::decode(&[]).is_none());
        assert!(BloomFilterRef::decode(&[0xff, 31]).is_none());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BloomFilter::decode(&[]).is_none());
        assert!(BloomFilter::decode(&[0]).is_none(), "k = 0 invalid");
        assert!(
            BloomFilter::decode(&[0xff, 200]).is_none(),
            "k = 200 invalid"
        );
    }

    #[test]
    fn similar_keys_are_distinguished() {
        // Regression guard for weak hashing: single-character differences
        // and shared prefixes must not collide systematically.
        let ks: Vec<Vec<u8>> = (0..1000)
            .map(|i| format!("prefix-{i}").into_bytes())
            .collect();
        let f = build(&ks, 10);
        let absent: Vec<Vec<u8>> = (1000..2000)
            .map(|i| format!("prefix-{i}").into_bytes())
            .collect();
        let fp = absent.iter().filter(|k| f.may_contain(k)).count();
        assert!(fp < 100, "structured keys collide too often: {fp}/1000");
    }
}
