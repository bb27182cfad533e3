//! The paper's index operations, written once: `PI(vnew ⊕ k, t)`,
//! `RB(k, t − δ)` and `DI(vold ⊕ k, t − δ)` (Table 2, Algorithms 1–4).
//!
//! The four schemes differ only in *where* these steps run — synchronously
//! in the observer, in the APS, or at read time — so the steps themselves
//! live here and the callers pick:
//!
//! * sync-full runs [`put_new`] (SU2) and [`replace_old`] (SU3→SU4) in
//!   parallel on every put, and [`replace_old`] alone on every delete;
//! * sync-insert runs [`put_new`] only;
//! * the APS runs [`replace_old`] (BA2→BA3) then [`put_new`] (BA4);
//! * read-repair, backfill and cleanse write single entries through
//!   [`put_entry`] / [`delete_entry`].
//!
//! Every index entry is key-only (§4, Remark): the row key is
//! `value₁ ⊕ … ⊕ valueₙ ⊕ base-row-key` and the payload is one empty
//! column, so that shape is spelled out in exactly one place below.

use crate::auq::IndexTask;
use crate::encoding::index_row;
use crate::error::Result;
use crate::spec::IndexSpec;
use crate::store::Store;
use bytes::Bytes;
use diff_index_cluster::{ClusterError, ColumnValue, Result as ClusterResult};
use diff_index_lsm::VersionedValue;

/// Put the key-only index entry `key` at `ts`.
pub(crate) fn put_entry(
    store: &dyn Store,
    spec: &IndexSpec,
    key: &[u8],
    ts: u64,
) -> ClusterResult<()> {
    store.raw_put(&spec.index_table(), key, &[(Bytes::new(), Bytes::new())], ts)
}

/// Delete the key-only index entry `key` at `ts`.
pub(crate) fn delete_entry(
    store: &dyn Store,
    spec: &IndexSpec,
    key: &[u8],
    ts: u64,
) -> ClusterResult<()> {
    store.raw_delete(&spec.index_table(), key, &[Bytes::new()], ts)
}

/// Indexed-value derivation: each of `spec`'s columns, in index order, from
/// `column`, plus the newest of their timestamps. `None` unless every
/// indexed column has a value — a partly populated row is not indexed.
pub(crate) fn index_values(
    spec: &IndexSpec,
    mut column: impl FnMut(&Bytes) -> Result<Option<VersionedValue>>,
) -> Result<Option<(Vec<Bytes>, u64)>> {
    let mut values = Vec::with_capacity(spec.columns.len());
    let mut ts = 0;
    for col in &spec.columns {
        match column(col)? {
            Some(v) => {
                values.push(v.value);
                ts = ts.max(v.ts);
            }
            None => return Ok(None),
        }
    }
    Ok(Some((values, ts)))
}

/// [`index_values`] of base row `row` as of `ts`, taking the columns a put
/// wrote at `ts` from `written` and reading the rest from the base table.
/// With nothing written this is the read `RB(k, ts)`.
pub(crate) fn values_at(
    store: &dyn Store,
    spec: &IndexSpec,
    row: &[u8],
    written: &[ColumnValue],
    ts: u64,
) -> Result<Option<Vec<Bytes>>> {
    let values = index_values(spec, |col| match written.iter().find(|(c, _)| c == col) {
        Some((_, v)) => Ok(Some(VersionedValue { value: v.clone(), ts })),
        None => Ok(store.get(&spec.base_table, row, col, ts)?),
    })?;
    Ok(values.map(|(values, _)| values))
}

/// An index write that failed: its error, and the task that retries it.
pub(crate) struct Failed {
    pub(crate) error: ClusterError,
    pub(crate) retry: IndexTask,
}

/// SU2 / BA4, `PI(vnew ⊕ k, ts)`: put `row`'s entry for the values `new`
/// at the base timestamp. Nothing to do when the row is not indexed.
pub(crate) fn put_new(
    store: &dyn Store,
    spec: &IndexSpec,
    row: &[u8],
    new: Option<&[Bytes]>,
    ts: u64,
) -> std::result::Result<(), Failed> {
    let Some(new) = new else { return Ok(()) };
    let key = index_row(new, row);
    put_entry(store, spec, &key, ts)
        .map_err(|error| Failed { error, retry: IndexTask::PutIndex { index_row: key, ts } })
}

/// SU3→SU4 / BA2→BA3: read `row`'s index values at `old_ts`, then delete
/// their entry at `old_ts` unless they equal `new`. The δ in
/// `old_ts = t − δ` matters twice (§4.3): reading at `t` would see the new
/// value, and deleting at `t` would kill the entry [`put_new`] writes when
/// vold = vnew. The outer `Err` is a failed base read; nothing was written.
pub(crate) fn replace_old(
    store: &dyn Store,
    spec: &IndexSpec,
    row: &[u8],
    new: Option<&[Bytes]>,
    old_ts: u64,
) -> Result<std::result::Result<(), Failed>> {
    let Some(old) = values_at(store, spec, row, &[], old_ts)? else { return Ok(Ok(())) };
    if Some(old.as_slice()) == new {
        return Ok(Ok(()));
    }
    let key = index_row(&old, row);
    Ok(delete_entry(store, spec, &key, old_ts).map_err(|error| Failed {
        error,
        retry: IndexTask::DeleteIndex { index_row: key, ts: old_ts },
    }))
}
