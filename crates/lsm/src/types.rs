//! Core value types shared across the LSM engine.
//!
//! The engine stores *cells*: `(user key, timestamp, kind, value)` tuples. As
//! in HBase / BigTable, a `put` with a newer timestamp shadows older versions
//! of the same user key, and a delete is a *tombstone* cell rather than an
//! in-place removal (the paper's "no in-place update", §2.1).

use bytes::Bytes;
use std::cmp::Ordering;
use std::fmt;

/// Millisecond-granularity logical timestamp, as assigned by a region server
/// (the paper uses `System.currentTimeMillis()`; we use a monotonic counter
/// seeded from wall time so versions are totally ordered per server).
pub type Timestamp = u64;

/// The smallest representable time unit, the paper's `δ` (1 ms in HBase).
pub const DELTA: Timestamp = 1;

/// Kind of a stored cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellKind {
    /// A value write. In an LSM store `put` covers both insert and update —
    /// the writer cannot tell which one it is (Table 1 of the paper).
    Put,
    /// A deletion marker ("tombstone"). Shadows older versions of the key
    /// until compaction garbage-collects both.
    Delete,
}

impl CellKind {
    /// Single-byte wire encoding.
    pub fn to_u8(self) -> u8 {
        match self {
            CellKind::Put => 0,
            CellKind::Delete => 1,
        }
    }

    /// Decode from the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(CellKind::Put),
            1 => Some(CellKind::Delete),
            _ => None,
        }
    }
}

/// Internal key: user key plus version metadata.
///
/// Ordering sorts by user key ascending, then by timestamp *descending*
/// (newest version first), then by kind (`Delete` before `Put` at equal
/// timestamps, so a same-timestamp tombstone wins — matching HBase, where a
/// delete marker shadows a put carrying the identical timestamp).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternalKey {
    /// Application-visible key bytes.
    pub user_key: Bytes,
    /// Version timestamp.
    pub ts: Timestamp,
    /// Put or tombstone.
    pub kind: CellKind,
}

impl InternalKey {
    /// Construct an internal key.
    pub fn new(user_key: impl Into<Bytes>, ts: Timestamp, kind: CellKind) -> Self {
        Self { user_key: user_key.into(), ts, kind }
    }

    /// The smallest internal key for `user_key` at or below `ts` in internal
    /// order — i.e. the *newest* visible version slot. Used as a seek target.
    pub fn seek_to(user_key: impl Into<Bytes>, ts: Timestamp) -> Self {
        // Delete sorts before Put at equal (key, ts), so starting at Delete
        // covers both kinds.
        Self { user_key: user_key.into(), ts, kind: CellKind::Delete }
    }
}

impl Ord for InternalKey {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_internal(
            (self.user_key.as_ref(), self.ts, self.kind),
            (other.user_key.as_ref(), other.ts, other.kind),
        )
    }
}

/// Internal-key ordering over borrowed parts: user key ascending, timestamp
/// descending (newest first), `Delete` before `Put` at equal timestamps.
///
/// This is the single source of truth for internal-key order; `InternalKey`'s
/// `Ord` delegates here, and the zero-copy block reader uses it to binary
/// search encoded cells without materializing owned keys.
pub fn cmp_internal(
    a: (&[u8], Timestamp, CellKind),
    b: (&[u8], Timestamp, CellKind),
) -> Ordering {
    a.0.cmp(b.0)
        .then_with(|| b.1.cmp(&a.1)) // newer first
        .then_with(|| a.2.cmp(&b.2).reverse()) // Delete first
}

impl PartialOrd for InternalKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A full cell: internal key plus value bytes (empty for tombstones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Versioned key.
    pub key: InternalKey,
    /// Value payload; by convention empty for `Delete` cells.
    pub value: Bytes,
}

impl Cell {
    /// A value-carrying cell.
    pub fn put(user_key: impl Into<Bytes>, ts: Timestamp, value: impl Into<Bytes>) -> Self {
        Self { key: InternalKey::new(user_key, ts, CellKind::Put), value: value.into() }
    }

    /// A tombstone cell.
    pub fn delete(user_key: impl Into<Bytes>, ts: Timestamp) -> Self {
        Self { key: InternalKey::new(user_key, ts, CellKind::Delete), value: Bytes::new() }
    }

    /// True if this cell is a tombstone.
    pub fn is_tombstone(&self) -> bool {
        self.key.kind == CellKind::Delete
    }

    /// The value a reader sees in this cell: none for a tombstone.
    pub fn into_visible(self) -> Option<VersionedValue> {
        match self.key.kind {
            CellKind::Put => Some(VersionedValue { value: self.value, ts: self.key.ts }),
            CellKind::Delete => None,
        }
    }

    /// Approximate in-memory footprint, used for memtable accounting.
    pub fn approximate_size(&self) -> usize {
        self.key.user_key.len() + self.value.len() + 24
    }
}

/// A `(value, timestamp)` pair returned by reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// Value bytes.
    pub value: Bytes,
    /// Timestamp of the version that produced the value.
    pub ts: Timestamp,
}

impl fmt::Display for VersionedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{}", self.value, self.ts)
    }
}

/// Errors produced by the storage engine.
#[derive(Debug)]
pub enum LsmError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A persistent structure failed validation (bad magic, checksum, bounds).
    Corruption(String),
    /// The engine was asked to do something invalid (e.g. write after close).
    InvalidOperation(String),
}

impl fmt::Display for LsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LsmError::Io(e) => write!(f, "io error: {e}"),
            LsmError::Corruption(m) => write!(f, "corruption: {m}"),
            LsmError::InvalidOperation(m) => write!(f, "invalid operation: {m}"),
        }
    }
}

impl std::error::Error for LsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LsmError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LsmError {
    fn from(e: std::io::Error) -> Self {
        LsmError::Io(e)
    }
}

/// Convenience result alias for engine operations.
pub type Result<T> = std::result::Result<T, LsmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_key_orders_by_user_key_then_ts_desc() {
        let a = InternalKey::new("a", 5, CellKind::Put);
        let b = InternalKey::new("a", 9, CellKind::Put);
        let c = InternalKey::new("b", 1, CellKind::Put);
        assert!(b < a, "newer version sorts first");
        assert!(a < c, "user key dominates");
        assert!(b < c);
    }

    #[test]
    fn tombstone_sorts_before_put_at_same_version() {
        let d = InternalKey::new("k", 7, CellKind::Delete);
        let p = InternalKey::new("k", 7, CellKind::Put);
        assert!(d < p, "delete shadows put at identical timestamp");
    }

    #[test]
    fn seek_to_is_not_after_any_visible_version() {
        let seek = InternalKey::seek_to("k", 7);
        let put7 = InternalKey::new("k", 7, CellKind::Put);
        let del7 = InternalKey::new("k", 7, CellKind::Delete);
        let put6 = InternalKey::new("k", 6, CellKind::Put);
        assert!(seek <= del7);
        assert!(seek < put7);
        assert!(seek < put6);
        // ...but strictly after any newer version:
        let put8 = InternalKey::new("k", 8, CellKind::Put);
        assert!(put8 < seek);
    }

    #[test]
    fn cmp_internal_agrees_with_internal_key_ord() {
        let keys = [
            InternalKey::new("a", 5, CellKind::Put),
            InternalKey::new("a", 9, CellKind::Put),
            InternalKey::new("a", 9, CellKind::Delete),
            InternalKey::new("b", 1, CellKind::Put),
            InternalKey::new("b", 1, CellKind::Delete),
            InternalKey::new("ba", 7, CellKind::Put),
        ];
        for x in &keys {
            for y in &keys {
                assert_eq!(
                    x.cmp(y),
                    cmp_internal(
                        (x.user_key.as_ref(), x.ts, x.kind),
                        (y.user_key.as_ref(), y.ts, y.kind)
                    ),
                    "{x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn cell_kind_roundtrip() {
        for k in [CellKind::Put, CellKind::Delete] {
            assert_eq!(CellKind::from_u8(k.to_u8()), Some(k));
        }
        assert_eq!(CellKind::from_u8(9), None);
    }

    #[test]
    fn cell_constructors() {
        let c = Cell::put("k", 3, "v");
        assert!(!c.is_tombstone());
        assert_eq!(c.value, Bytes::from("v"));
        let d = Cell::delete("k", 4);
        assert!(d.is_tombstone());
        assert!(d.value.is_empty());
        assert!(d.approximate_size() >= 25);
    }

    #[test]
    fn error_display_and_source() {
        let e = LsmError::from(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());
        let c = LsmError::Corruption("bad magic".into());
        assert!(c.to_string().contains("bad magic"));
        assert!(std::error::Error::source(&c).is_none());
    }
}
