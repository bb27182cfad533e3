//! Bloom filter over user keys, one per SSTable.
//!
//! A read in an LSM tree must consult every on-disk component; bloom filters
//! keep most of those lookups from touching the file at all. We use the
//! standard double-hashing scheme (Kirsch–Mitzenmacher) over two independent
//! 64-bit FNV-1a variants.

use crate::util::{get_u32, put_u32};

/// Immutable bloom filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u8>,
    num_hashes: u32,
}

/// Builder that sizes the filter from an expected key count and a target
/// bits-per-key budget.
#[derive(Debug)]
pub struct BloomBuilder {
    hashes: Vec<(u64, u64)>,
    bits_per_key: usize,
}

fn fnv1a(data: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The filter hash of a key: the pair double hashing derives every probe
/// from. Filters of any size and probe count take the same pair, so a
/// lookup that checks many tables' filters hashes its key once.
pub fn hash_pair(key: &[u8]) -> (u64, u64) {
    let h1 = fnv1a(key, 0);
    // Derive the second hash by finalizing the first (splitmix64 mixer)
    // instead of a second pass over the key: the probe loop is on the warm
    // read path and double-hashing only needs the pair to be decorrelated,
    // not independently computed.
    let mut h2 = h1 ^ 0x9E37_79B9_7F4A_7C15;
    h2 = (h2 ^ (h2 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h2 = (h2 ^ (h2 >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h2 ^= h2 >> 31;
    // Avoid a degenerate second hash that would collapse all probes.
    (h1, h2 | 1)
}

impl BloomBuilder {
    /// Builder with the given bits-per-key budget (10 ≈ 1% FPR).
    pub fn new(bits_per_key: usize) -> Self {
        Self { hashes: Vec::new(), bits_per_key: bits_per_key.max(1) }
    }

    /// Add a key.
    pub fn add(&mut self, key: &[u8]) {
        self.hashes.push(hash_pair(key));
    }

    /// Number of keys added so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if no keys were added.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Finish into an immutable filter.
    pub fn build(self) -> Bloom {
        let n = self.hashes.len().max(1);
        // Round the bit count up to a power of two so probe positions come
        // from a mask rather than a 64-bit modulo: the probes are serially
        // dependent (double hashing), so k divisions in a row would dominate
        // the filter check. Costs at most 2x space over the exact size.
        let nbits = (n * self.bits_per_key).max(64).next_power_of_two();
        let nbytes = nbits / 8;
        let nbits = nbytes * 8;
        // k = ln2 * bits/key, clamped to a sane range.
        let k = ((self.bits_per_key as f64) * 0.69) as u32;
        let num_hashes = k.clamp(1, 30);
        let mask = nbits as u64 - 1;
        let mut bits = vec![0u8; nbytes];
        for (h1, h2) in &self.hashes {
            let mut h = *h1;
            for _ in 0..num_hashes {
                let bit = (h & mask) as usize;
                bits[bit / 8] |= 1 << (bit % 8);
                h = h.wrapping_add(*h2);
            }
        }
        Bloom { bits, num_hashes }
    }
}

impl Bloom {
    /// True if `key` *may* be present; false means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hashed(hash_pair(key))
    }

    /// [`Bloom::may_contain`] of the key whose [`hash_pair`] is `hash`.
    pub fn may_contain_hashed(&self, (h1, h2): (u64, u64)) -> bool {
        if self.bits.is_empty() {
            return false;
        }
        let nbits = (self.bits.len() * 8) as u64;
        let mut h = h1;
        if nbits.is_power_of_two() {
            // Fast path for filters we build ourselves: mask, no division.
            let mask = nbits - 1;
            for _ in 0..self.num_hashes {
                let bit = (h & mask) as usize;
                if self.bits[bit / 8] & (1 << (bit % 8)) == 0 {
                    return false;
                }
                h = h.wrapping_add(h2);
            }
        } else {
            // `decode` accepts arbitrary byte lengths; stay correct for them.
            for _ in 0..self.num_hashes {
                let bit = (h % nbits) as usize;
                if self.bits[bit / 8] & (1 << (bit % 8)) == 0 {
                    return false;
                }
                h = h.wrapping_add(h2);
            }
        }
        true
    }

    /// Serialize as `num_hashes: u32, bit bytes`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.bits.len());
        put_u32(&mut out, self.num_hashes);
        out.extend_from_slice(&self.bits);
        out
    }

    /// Decode from `encode` output.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let num_hashes = get_u32(buf, 0)?;
        if num_hashes == 0 || num_hashes > 64 {
            return None;
        }
        Some(Self { bits: buf[4..].to_vec(), num_hashes })
    }

    /// Size of the encoded filter in bytes.
    pub fn encoded_len(&self) -> usize {
        4 + self.bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomBuilder::new(10);
        let keys: Vec<Vec<u8>> = (0..2000).map(|i| format!("user{i:06}").into_bytes()).collect();
        for k in &keys {
            b.add(k);
        }
        let f = b.build();
        for k in &keys {
            assert!(f.may_contain(k), "bloom must never miss an inserted key");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut b = BloomBuilder::new(10);
        for i in 0..10_000 {
            b.add(format!("present{i}").as_bytes());
        }
        let f = b.build();
        let fp = (0..10_000)
            .filter(|i| f.may_contain(format!("absent{i}").as_bytes()))
            .count();
        // 10 bits/key targets ~1%; allow generous slack for hash quality.
        assert!(fp < 300, "false positive rate too high: {fp}/10000");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut b = BloomBuilder::new(12);
        for i in 0..100 {
            b.add(format!("k{i}").as_bytes());
        }
        let f = b.build();
        let enc = f.encode();
        assert_eq!(enc.len(), f.encoded_len());
        let g = Bloom::decode(&enc).unwrap();
        assert_eq!(f, g);
        for i in 0..100 {
            assert!(g.may_contain(format!("k{i}").as_bytes()));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Bloom::decode(&[]).is_none());
        assert!(Bloom::decode(&[0, 0, 0, 0]).is_none(), "zero hashes invalid");
        assert!(Bloom::decode(&[200, 0, 0, 0, 1]).is_none(), "too many hashes");
    }

    #[test]
    fn empty_filter_reports_absent() {
        let f = BloomBuilder::new(10).build();
        // Even an empty builder produces a valid (all-zero) filter.
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn builder_len() {
        let mut b = BloomBuilder::new(10);
        assert!(b.is_empty());
        b.add(b"x");
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
