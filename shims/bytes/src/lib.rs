//! Minimal, dependency-free re-implementation of the subset of the `bytes`
//! crate used by this workspace.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! this shim (wired up via path dependencies in the root `Cargo.toml`). It is
//! API-compatible with the real crate for everything the repo calls:
//!
//! * [`Bytes`] — cheaply cloneable, immutable byte buffer backed by an
//!   `Arc<[u8]>` plus an offset/length window. [`Bytes::slice`] is O(1) and
//!   allocation-free, which the LSM read path relies on for zero-copy block
//!   decoding.
//! * [`BytesMut`] — growable buffer that freezes into a `Bytes`.
//! * [`BufMut`] — the small write-primitive trait (`put_u8` & friends).
//!
//! One behavioural difference: `From<Vec<u8>>`, `From<Box<[u8]>>`,
//! `From<String>` and [`BytesMut::freeze`] **copy** the buffer into a new
//! `Arc<[u8]>` allocation (the reference count has to live in front of the
//! bytes), where upstream `bytes` takes ownership without copying. Code
//! that has the bytes in a reusable buffer should call
//! [`Bytes::copy_from_slice`] once instead of building a `Vec` to convert.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes.
///
/// Internally an `Arc<[u8]>` with an `(offset, len)` window, so `clone` and
/// [`Bytes::slice`] are O(1) and share the underlying allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` means the empty buffer (avoids allocating for `Bytes::new()`).
    data: Option<Arc<[u8]>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// The empty buffer. Does not allocate.
    pub const fn new() -> Self {
        Bytes { data: None, off: 0, len: 0 }
    }

    /// Buffer over a static slice. (The shim copies once; semantics match.)
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Copy `data` into a freshly allocated buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.is_empty() {
            return Bytes::new();
        }
        Bytes { data: Some(Arc::from(data)), off: 0, len: data.len() }
    }

    /// Length of the visible window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The visible bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d[self.off..self.off + self.len],
            None => &[],
        }
    }

    /// O(1) sub-window sharing the same allocation. Panics if the range is
    /// out of bounds, mirroring the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end && end <= self.len, "slice {start}..{end} out of bounds of {}", self.len);
        if start == end {
            return Bytes::new();
        }
        Bytes { data: self.data.clone(), off: self.off + start, len: end - start }
    }

    /// Split off the tail at `at`, leaving `[0, at)` in `self`. O(1).
    pub fn split_off(&mut self, at: usize) -> Self {
        let tail = self.slice(at..);
        self.len = at;
        tail
    }

    /// Split off the head up to `at`, leaving `[at, len)` in `self`. O(1).
    pub fn split_to(&mut self, at: usize) -> Self {
        let head = self.slice(..at);
        self.off += at;
        self.len -= at;
        head
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (b' '..=b'~').contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

/// Copies `v` into a new allocation (upstream `bytes` does not copy).
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        Bytes { data: Some(Arc::from(v.into_boxed_slice())), off: 0, len }
    }
}

/// Copies `v` into a new allocation (upstream `bytes` does not copy).
impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        let len = v.len();
        if len == 0 {
            return Bytes::new();
        }
        Bytes { data: Some(Arc::from(v)), off: 0, len }
    }
}

/// Copies `s` into a new allocation (upstream `bytes` does not copy).
impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer that can be frozen into an immutable [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable [`Bytes`]. Copies the buffer into a new
    /// allocation, unlike upstream `bytes`.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bytes::copy_from_slice(&self.buf).fmt(f)
    }
}

/// Write primitives over growable byte sinks.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, b: u8);
    /// Append a slice.
    fn put_slice(&mut self, s: &[u8]);
    /// Append a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, b: u8) {
        self.push(b);
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_and_shares_allocation() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        let s2 = s.slice(1..2);
        assert_eq!(s2.as_slice(), &[3]);
        // Same backing Arc.
        assert!(Arc::ptr_eq(b.data.as_ref().unwrap(), s2.data.as_ref().unwrap()));
    }

    #[test]
    fn ordering_and_equality_match_slices() {
        let a = Bytes::from("apple");
        let b = Bytes::from("banana");
        assert!(a < b);
        assert_eq!(a, Bytes::copy_from_slice(b"apple"));
        assert_eq!(a, "apple");
        assert_eq!(a.as_ref(), b"apple");
    }

    #[test]
    fn bytesmut_roundtrip() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u8(0x01);
        m.extend_from_slice(b"xy");
        let b = m.freeze();
        assert_eq!(b.as_slice(), &[0x01, b'x', b'y']);
    }

    #[test]
    fn split_off_and_split_to() {
        let mut b = Bytes::from("hello world");
        let tail = b.split_off(5);
        assert_eq!(b, "hello");
        assert_eq!(tail, " world");
        let mut t = tail;
        let head = t.split_to(1);
        assert_eq!(head, " ");
        assert_eq!(t, "world");
    }

    #[test]
    fn empty_is_free() {
        assert!(Bytes::new().data.is_none());
        assert!(Bytes::from(Vec::new()).data.is_none());
        assert_eq!(Bytes::new().len(), 0);
    }

    #[test]
    fn borrow_enables_slice_keyed_lookup() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<Bytes, u32> = BTreeMap::new();
        m.insert(Bytes::from("k1"), 1);
        assert_eq!(m.get(b"k1".as_slice()), Some(&1));
        assert_eq!(m.range::<[u8], _>((Bound::Included(b"k0".as_slice()), Bound::Unbounded)).count(), 1);
    }
}
