//! Index read path: `getByIndex` for exact-match and range queries, with
//! the `sync-insert` double-check-and-clean routine (Algorithm 2).

use crate::encoding::{decode_index_row, index_row, value_prefix, value_range};
use crate::error::Result;
use crate::maintain;
use crate::spec::{IndexScheme, IndexSpec};
use crate::store::Store;
use bytes::Bytes;
use diff_index_cluster::encoding::prefix_end;

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
    let end = prefix_end(&prefix).expect("a terminated value encoding never ends in 0xFF");
    read_window(store, spec, Window::Prefix(&prefix), &end, limit)
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
    read_window(store, spec, Window::From(&start), &end, limit)
}

/// Where an index scan starts: a whole value prefix (exact match, one
/// `scan_rows_prefix` call as before), or a row key onwards (range reads and
/// continuations past an over-fetch window).
#[derive(Clone, Copy)]
enum Window<'a> {
    Prefix(&'a [u8]),
    From(&'a [u8]),
}

/// Scan index rows from `window` up to `end` (exclusive) and apply the
/// scheme's read rule. Under sync-insert, SR1 over-fetches because SR2 may
/// repair some hits away; when it does, the scan resumes after the last row
/// fetched until `limit` live hits are found or the range ends.
fn read_window(
    store: &dyn Store,
    spec: &IndexSpec,
    window: Window<'_>,
    end: &[u8],
    limit: usize,
) -> Result<Vec<IndexHit>> {
    if spec.scheme != IndexScheme::SyncInsert {
        let (hits, _) = scan_index(store, spec, window, end, limit)?;
        return Ok(hits);
    }
    let fetch = limit.saturating_mul(2).max(limit.saturating_add(16));
    let mut kept = Vec::new();
    let (hits, mut resume) = scan_index(store, spec, window, end, fetch)?;
    validate(store, spec, hits, limit, &mut kept)?;
    while kept.len() < limit {
        let Some(start) = resume else { break };
        let (hits, next) = scan_index(store, spec, Window::From(&start), end, fetch)?;
        validate(store, spec, hits, limit, &mut kept)?;
        resume = next;
    }
    Ok(kept)
}

/// SR1: scan up to `fetch` index rows, decoding each key-only row into a
/// hit. Also returns the row key just past the last one scanned when the
/// scan stopped at `fetch` rather than at `end`.
fn scan_index(
    store: &dyn Store,
    spec: &IndexSpec,
    window: Window<'_>,
    end: &[u8],
    fetch: usize,
) -> Result<(Vec<IndexHit>, Option<Vec<u8>>)> {
    let rows = match window {
        Window::Prefix(p) => store.scan_rows_prefix(&spec.index_table(), p, u64::MAX, fetch)?,
        Window::From(s) => {
            store.scan_rows_range(&spec.index_table(), s, Some(end), u64::MAX, fetch)?
        }
    };
    // The smallest row key after the last one: that key plus a zero byte.
    let next = match rows.last() {
        Some((last, _)) if rows.len() >= fetch => Some([last.as_ref(), &[0]].concat()),
        _ => None,
    };
    let mut hits = Vec::with_capacity(rows.len());
    for (key, cols) in rows {
        let Some((values, row)) = decode_index_row(&key, spec.columns.len()) else {
            continue; // foreign junk in the index table: ignore
        };
        let ts = cols.first().map(|(_, v)| v.ts).unwrap_or(0);
        hits.push(IndexHit { values, row, ts });
    }
    Ok((hits, next))
}

/// SR2 (Algorithm 2), applied only for `sync-insert`: for every hit, read
/// the base row; keep the hit (up to `limit` in `kept`) if the base still
/// carries the indexed value, otherwise delete the stale index entry. The
/// base rows are read in batches of the hits still needed to fill `limit`,
/// so no hit past the one that fills it is checked or repaired.
fn validate(
    store: &dyn Store,
    spec: &IndexSpec,
    hits: Vec<IndexHit>,
    limit: usize,
    kept: &mut Vec<IndexHit>,
) -> Result<()> {
    let mut hits = hits.into_iter().peekable();
    while kept.len() < limit && hits.peek().is_some() {
        let batch: Vec<IndexHit> = hits.by_ref().take(limit - kept.len()).collect();
        let rows: Vec<&[u8]> = batch.iter().map(|hit| hit.row.as_ref()).collect();
        let current = maintain::values_of_rows(store, spec, &rows, u64::MAX)?;
        for (hit, current) in batch.into_iter().zip(current) {
            if current.as_ref() == Some(&hit.values) {
                kept.push(hit);
            } else {
                // Stale: delete 〈vindex ⊕ k, ts〉 from the index table.
                maintain::delete_entry(store, spec, &index_row(&hit.values, &hit.row), hit.ts)?;
            }
        }
    }
    Ok(())
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
