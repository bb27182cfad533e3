//! Low-level encoding helpers: CRC-32 checksums and varints.
//!
//! Implemented locally because the workspace deliberately limits external
//! dependencies (see DESIGN.md §5). Every block read that misses the block
//! cache checksums the whole block, so the CRC is built for speed: a
//! carry-less-multiply kernel on x86_64 CPUs with `pclmulqdq` (chosen at run
//! time), slicing-by-16 everywhere else and for short inputs and tails.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul;

/// CRC-32 (IEEE 802.3 polynomial, reflected).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32: feed `state` from a previous call (start with
/// `0xFFFF_FFFF`, finish by XOR-ing with `0xFFFF_FFFF`).
///
/// Inputs of 64 bytes or more go through the PCLMULQDQ folding kernel when
/// the CPU has it; the rest, and the last `len % 16` bytes, through the
/// portable slicing-by-16 loop. Both compute the same values.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((state, tail)) = clmul::fold(state, data) {
        return crc32_update_slicing(state, tail);
    }
    crc32_update_slicing(state, data)
}

/// Portable incremental CRC-32, slicing-by-16: same contract as
/// [`crc32_update`].
///
/// Consumes 16 bytes per step with one lookup per byte into 16 tables. Only
/// the four lookups of the bytes XOR-ed with `state` wait on the previous
/// step; the other twelve run ahead of it. A tail shorter than 16 bytes
/// goes through the bytewise loop.
fn crc32_update_slicing(mut state: u32, data: &[u8]) -> u32 {
    let t = crc_tables();
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let c: &[u8; 16] = chunk.try_into().expect("chunks_exact yields 16 bytes");
        let rest = (4..16).fold(0, |acc, i| acc ^ t[15 - i][c[i] as usize]);
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = rest
            ^ t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Slicing-by-16 tables: `t[k][i]` is the CRC state reached from state `i`
/// after `k + 1` zero bytes, so `t[0]` is the classic bytewise table and a
/// byte `k` places before the end of a 16-byte chunk is looked up in `t[k]`.
fn crc_tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Append a LEB128 varint encoding of `v` to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a LEB128 varint from the front of `buf`, returning the value and
/// the number of bytes consumed, or `None` if the buffer is truncated or the
/// encoding overflows 64 bits.
pub fn get_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        let part = (byte & 0x7F) as u64;
        // Reject encodings whose high bits would be shifted out.
        if shift == 63 && part > 1 {
            return None;
        }
        v |= part << shift;
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
    }
    None
}

/// Append a length-prefixed byte slice (varint length then bytes).
pub fn put_len_prefixed(out: &mut Vec<u8>, data: &[u8]) {
    put_varint(out, data.len() as u64);
    out.extend_from_slice(data);
}

/// Decode a length-prefixed slice from the front of `buf`, returning the
/// slice and bytes consumed.
pub fn get_len_prefixed(buf: &[u8]) -> Option<(&[u8], usize)> {
    let (len, n) = get_varint(buf)?;
    let len = len as usize;
    if buf.len() < n + len {
        return None;
    }
    Some((&buf[n..n + len], n + len))
}

/// Fixed-width little-endian u32 append.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Fixed-width little-endian u64 append.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian u32 at `off`.
pub fn get_u32(buf: &[u8], off: usize) -> Option<u32> {
    buf.get(off..off + 4).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
}

/// Read a little-endian u64 at `off`.
pub fn get_u64(buf: &[u8], off: usize) -> Option<u64> {
    buf.get(off..off + 8).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
}

/// Fast non-cryptographic hasher (the multiply-rotate scheme rustc uses for
/// its interner maps). The default `SipHash` costs more than the bucket
/// probe it guards on short keys; memtable point lookups are hot enough for
/// that to show up, and none of our hash maps are exposed to untrusted
/// key-flooding.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// `BuildHasher` producing [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut tail = [0u8; 8];
            tail[..bytes.len()].copy_from_slice(bytes);
            self.add(u64::from_le_bytes(tail) | ((bytes.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let data = b"hello, log-structured world";
        let oneshot = crc32(data);
        let mut st = 0xFFFF_FFFF;
        st = crc32_update(st, &data[..7]);
        st = crc32_update(st, &data[7..]);
        assert_eq!(st ^ 0xFFFF_FFFF, oneshot);
    }

    /// The byte-at-a-time CRC the fast kernels replaced, kept as the
    /// reference they must agree with.
    fn crc32_update_bytewise(mut state: u32, data: &[u8]) -> u32 {
        let t = &crc_tables()[0];
        for &b in data {
            state = (state >> 8) ^ t[((state ^ b as u32) & 0xFF) as usize];
        }
        state
    }

    /// Deterministic pseudo-random bytes (64-bit LCG, high byte).
    fn lcg_bytes(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// One CRC kernel run on its own; `None` where it cannot run.
    type Kernel = fn(u32, &[u8]) -> Option<u32>;

    fn portable(state: u32, data: &[u8]) -> Option<u32> {
        Some(crc32_update_slicing(state, data))
    }

    /// The PCLMULQDQ kernel plus the portable tail: `None` for input
    /// shorter than its 64-byte minimum or on a CPU without `pclmulqdq`.
    #[cfg(target_arch = "x86_64")]
    fn hardware(state: u32, data: &[u8]) -> Option<u32> {
        clmul::fold(state, data).map(|(state, tail)| crc32_update_slicing(state, tail))
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn hardware(_: u32, _: &[u8]) -> Option<u32> {
        None
    }

    const KERNELS: [(&str, Kernel); 2] = [("portable", portable), ("pclmulqdq", hardware)];

    /// True when this CPU runs the hardware kernel.
    fn has_pclmulqdq() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("pclmulqdq");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_alignment() {
        let buf = lcg_bytes((64 << 10) + 16, 0xC0FFEE);
        for (name, kernel) in KERNELS {
            let accepts = |len| name == "portable" || (has_pclmulqdq() && len >= 64);
            for len in (0..=300).chain([4 << 10, 64 << 10]) {
                for start in 0..16 {
                    let data = &buf[start..start + len];
                    match kernel(0xFFFF_FFFF, data) {
                        Some(got) => assert_eq!(
                            got,
                            crc32_update_bytewise(0xFFFF_FFFF, data),
                            "{name}: start {start} len {len}"
                        ),
                        None => assert!(!accepts(len), "{name} refused len {len}"),
                    }
                }
            }
        }
    }

    #[test]
    fn crc32_split_at_every_point_matches_oneshot() {
        let buf = lcg_bytes(1024, 7);
        let oneshot = crc32(&buf);
        assert_eq!(oneshot, crc32_update_bytewise(0xFFFF_FFFF, &buf) ^ 0xFFFF_FFFF);
        for (name, kernel) in KERNELS {
            // Each half runs on `kernel` where it can, as `crc32_update` would.
            let update = |st, d: &[u8]| kernel(st, d).unwrap_or_else(|| portable(st, d).unwrap());
            for split in 0..=buf.len() {
                let st = update(0xFFFF_FFFF, &buf[..split]);
                assert_eq!(
                    update(st, &buf[split..]) ^ 0xFFFF_FFFF,
                    oneshot,
                    "{name}: split {split}"
                );
            }
        }
    }

    #[test]
    fn crc32_update_selects_the_hardware_kernel_when_the_cpu_has_it() {
        let buf = lcg_bytes(4096, 42);
        assert_eq!(hardware(0xFFFF_FFFF, &buf).is_some(), has_pclmulqdq());
        if let Some(crc) = hardware(0xFFFF_FFFF, &buf) {
            assert_eq!(crc32_update(0xFFFF_FFFF, &buf), crc);
        }
        assert_eq!(hardware(0xFFFF_FFFF, &buf[..63]), None, "below the kernel's minimum");
    }

    #[test]
    fn crc32_of_fixed_4k_buffer_is_pinned() {
        // Computed with the byte-at-a-time implementation; WAL and SSTable
        // checksums written by it must keep verifying.
        assert_eq!(crc32(&lcg_bytes(4096, 42)), 0x7161_13D5);
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (got, n) = get_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint_truncated_is_none() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        buf.pop();
        assert!(get_varint(&buf).is_none());
        assert!(get_varint(&[]).is_none());
    }

    #[test]
    fn varint_overflow_is_none() {
        // 11 continuation bytes would exceed 64 bits.
        let buf = [0xFFu8; 11];
        assert!(get_varint(&buf).is_none());
    }

    #[test]
    fn len_prefixed_roundtrip() {
        let mut buf = Vec::new();
        put_len_prefixed(&mut buf, b"abc");
        put_len_prefixed(&mut buf, b"");
        let (a, n) = get_len_prefixed(&buf).unwrap();
        assert_eq!(a, b"abc");
        let (b, m) = get_len_prefixed(&buf[n..]).unwrap();
        assert_eq!(b, b"");
        assert_eq!(n + m, buf.len());
    }

    #[test]
    fn len_prefixed_truncated_is_none() {
        let mut buf = Vec::new();
        put_len_prefixed(&mut buf, b"abcdef");
        assert!(get_len_prefixed(&buf[..3]).is_none());
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        use std::hash::{Hash, Hasher};
        let h = |b: &[u8]| {
            let mut hasher = FxHasher::default();
            b.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(b"user00000001"), h(b"user00000001"));
        assert_ne!(h(b"user00000001"), h(b"user00000002"));
        assert_ne!(h(b""), h(b"\0"));
        // Different lengths of zero bytes must not collide.
        assert_ne!(h(b"\0\0"), h(b"\0\0\0"));
    }

    #[test]
    fn fixed_width_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        assert_eq!(get_u32(&buf, 0), Some(0xDEAD_BEEF));
        assert_eq!(get_u64(&buf, 4), Some(0x0123_4567_89AB_CDEF));
        assert_eq!(get_u32(&buf, 9), None);
    }
}
