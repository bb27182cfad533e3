//! Index read path: `getByIndex` for exact-match and range queries, with
//! the `sync-insert` double-check-and-clean routine (Algorithm 2).

use crate::encoding::{decode_index_row, index_row, value_prefix, value_range};
use crate::error::Result;
use crate::maintain;
use crate::spec::{IndexScheme, IndexSpec};
use crate::store::Store;
use bytes::Bytes;

/// One index hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexHit {
    /// The indexed value(s) this entry was filed under.
    pub values: Vec<Bytes>,
    /// The base-table row key.
    pub row: Bytes,
    /// Timestamp of the index entry (== timestamp of the base entry it was
    /// created for).
    pub ts: u64,
}

/// Exact-match index lookup: all base rows whose indexed (first) column
/// equals `value`. For `sync-insert`, stale entries are verified against the
/// base table and deleted (read-repair); for the other schemes the index is
/// returned as-is (Table 2 read rows).
pub fn read_exact(
    store: &dyn Store,
    spec: &IndexSpec,
    value: &[u8],
    limit: usize,
) -> Result<Vec<IndexHit>> {
    let prefix = value_prefix(value);
    let raw = scan_index(store, spec, &prefix, None, limit)?;
    apply_scheme_read(store, spec, raw, limit)
}

/// Range index lookup over the first indexed column: `lo <= v <= hi` when
/// `inclusive`, else `lo <= v < hi` (the paper's Figure 9 experiment).
pub fn read_range(
    store: &dyn Store,
    spec: &IndexSpec,
    lo: &[u8],
    hi: &[u8],
    inclusive: bool,
    limit: usize,
) -> Result<Vec<IndexHit>> {
    let (start, end) = value_range(lo, hi, inclusive);
    let raw = scan_index(store, spec, &start, Some(&end), limit)?;
    apply_scheme_read(store, spec, raw, limit)
}

/// SR1: scan the index table, decoding each key-only row into a hit.
fn scan_index(
    store: &dyn Store,
    spec: &IndexSpec,
    start: &[u8],
    end: Option<&[u8]>,
    limit: usize,
) -> Result<Vec<IndexHit>> {
    // Over-fetch under sync-insert: some hits may be repaired away.
    let fetch = if spec.scheme == IndexScheme::SyncInsert {
        limit.saturating_mul(2).max(limit.saturating_add(16))
    } else {
        limit
    };
    let rows = match end {
        None => store.scan_rows_prefix(&spec.index_table(), start, u64::MAX, fetch)?,
        Some(e) => store.scan_rows_range(&spec.index_table(), start, Some(e), u64::MAX, fetch)?,
    };
    let mut hits = Vec::with_capacity(rows.len());
    for (key, cols) in rows {
        let Some((values, row)) = decode_index_row(&key, spec.columns.len()) else {
            continue; // foreign junk in the index table: ignore
        };
        let ts = cols.first().map(|(_, v)| v.ts).unwrap_or(0);
        hits.push(IndexHit { values, row, ts });
    }
    Ok(hits)
}

/// SR2 (Algorithm 2), applied only for `sync-insert`: for every hit, read
/// the base row; keep the hit if the base still carries the indexed value,
/// otherwise delete the stale index entry.
fn apply_scheme_read(
    store: &dyn Store,
    spec: &IndexSpec,
    hits: Vec<IndexHit>,
    limit: usize,
) -> Result<Vec<IndexHit>> {
    if spec.scheme != IndexScheme::SyncInsert {
        let mut hits = hits;
        hits.truncate(limit);
        return Ok(hits);
    }
    let mut kept = Vec::with_capacity(hits.len());
    for hit in hits {
        let current = maintain::values_at(store, spec, &hit.row, &[], u64::MAX)?;
        if current.as_ref() == Some(&hit.values) {
            kept.push(hit);
            if kept.len() >= limit {
                break;
            }
        } else {
            // Stale: delete 〈vindex ⊕ k, ts〉 from the index table.
            maintain::delete_entry(store, spec, &index_row(&hit.values, &hit.row), hit.ts)?;
        }
    }
    Ok(kept)
}

/// Convenience: fetch the full base rows for a set of hits.
pub fn fetch_rows(
    store: &dyn Store,
    spec: &IndexSpec,
    hits: &[IndexHit],
) -> Result<Vec<diff_index_cluster::RowGroup>> {
    let mut out = Vec::with_capacity(hits.len());
    for h in hits {
        let row = store.get_row(&spec.base_table, &h.row, u64::MAX)?;
        out.push((h.row.clone(), row));
    }
    Ok(out)
}
