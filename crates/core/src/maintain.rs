//! The paper's index operations, written once: `PI(vnew ⊕ k, t)`,
//! `RB(k, t − δ)` and `DI(vold ⊕ k, t − δ)` (Table 2, Algorithms 1–4).
//!
//! The four schemes differ only in *where* these steps run — synchronously
//! in the observer, in the APS, or at read time — so the steps themselves
//! live here and the callers pick:
//!
//! * sync-full runs SU3 ([`old_entry`]) and then writes SU2 ([`new_entry`])
//!   and SU4 together on every put, and SU3→SU4 alone on every delete;
//! * sync-insert runs SU2 only;
//! * the APS runs BA2→BA3 ([`old_entry`]) and BA4 ([`new_entry`]);
//! * read-repair, backfill and cleanse write single entries through
//!   [`put_entry`] / [`delete_entry`].
//!
//! Every index entry is key-only (§4, Remark): the row key is
//! `value₁ ⊕ … ⊕ valueₙ ⊕ base-row-key` and the payload is one empty
//! column, so that shape is spelled out in exactly one place below.
//!
//! Index maintenance is split into *planning* entry writes ([`new_entry`],
//! [`old_entry`]), as the `PutIndex` / `DeleteIndex` tasks that would retry
//! them, and *writing* them: all of an operation's or a batch's entries as
//! one `Cluster::raw_write` ([`write_entries`]), which makes each index
//! region one WAL record.

use crate::auq::IndexTask;
use crate::encoding::index_row;
use crate::error::Result;
use crate::spec::IndexSpec;
use crate::store::Store;
use bytes::Bytes;
use diff_index_cluster::{Cluster, ColumnValue, Result as ClusterResult, Write};
use diff_index_lsm::{VersionedValue, DELTA};
use std::borrow::{Borrow, Cow};

/// The one empty column every key-only index entry is put with ...
static ENTRY_PUT: [ColumnValue; 1] = [(Bytes::new(), Bytes::new())];
/// ... and deleted by.
static ENTRY_DELETE: [Bytes; 1] = [Bytes::new()];

/// Put the key-only index entry `key` at `ts`.
pub(crate) fn put_entry(
    store: &dyn Store,
    spec: &IndexSpec,
    key: &[u8],
    ts: u64,
) -> ClusterResult<()> {
    store.raw_put(&spec.index_table(), key, &ENTRY_PUT, ts)
}

/// Delete the key-only index entry `key` at `ts`.
pub(crate) fn delete_entry(
    store: &dyn Store,
    spec: &IndexSpec,
    key: &[u8],
    ts: u64,
) -> ClusterResult<()> {
    store.raw_delete(&spec.index_table(), key, &ENTRY_DELETE, ts)
}

/// The timestamp old-entry operations use: `ts − δ` per §4.3, or `ts`
/// itself under the cluster's §4.3 sabotage switch
/// ([`FaultPlan::sabotage_delta`](diff_index_cluster::FaultPlan::sabotage_delta)).
/// Every old-entry site goes through here.
pub(crate) fn old_entry_ts(cluster: &Cluster, ts: u64) -> u64 {
    if cluster.faults().delta_sabotaged() {
        ts
    } else {
        ts - DELTA
    }
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

/// [`values_at`] of each of the base rows `rows` as of `ts`, with nothing
/// written: every row's indexed columns are read in one
/// [`Store::get_many`].
pub(crate) fn values_of_rows(
    store: &dyn Store,
    spec: &IndexSpec,
    rows: &[&[u8]],
    ts: u64,
) -> Result<Vec<Option<Vec<Bytes>>>> {
    let cells: Vec<(&[u8], &[u8])> = rows
        .iter()
        .flat_map(|&row| spec.columns.iter().map(move |col| (row, col.as_ref())))
        .collect();
    let mut read = store.get_many(&spec.base_table, &cells, ts)?;
    let n = spec.columns.len();
    (0..rows.len())
        .map(|i| {
            let mut columns = read[i * n..(i + 1) * n].iter_mut();
            let values = index_values(spec, |_| Ok(columns.next().and_then(Option::take)))?;
            Ok(values.map(|(values, _)| values))
        })
        .collect()
}

/// The raw write of one planned entry: `PutIndex` puts the key-only entry,
/// `DeleteIndex` deletes it, each at its fixed timestamp.
fn entry_write(entry: &IndexTask) -> (&[u8], Write<'static>, u64) {
    match entry {
        IndexTask::PutIndex { index_row, ts } => {
            (index_row, Write::Put(Cow::Borrowed(&ENTRY_PUT)), *ts)
        }
        IndexTask::DeleteIndex { index_row, ts } => {
            (index_row, Write::Delete(Cow::Borrowed(&ENTRY_DELETE)), *ts)
        }
        IndexTask::Maintain { .. } => unreachable!("only entry writes are planned"),
    }
}

/// SU2 / BA4, `PI(vnew ⊕ k, ts)`: the entry for `row`'s new values `new`
/// at the base timestamp. None when the row is not indexed.
pub(crate) fn new_entry(row: &[u8], new: Option<&[Bytes]>, ts: u64) -> Option<IndexTask> {
    new.map(|new| IndexTask::PutIndex { index_row: index_row(new, row), ts })
}

/// SU3 / BA2, `RB(k, t − δ)`: read `row`'s index values at `old_ts`. Unless
/// they equal `new`, their entry is the one SU4 / BA3 deletes at `old_ts`.
/// The δ in `old_ts = t − δ` matters twice (§4.3): reading at `t` would
/// see the new value, and deleting at `t` would kill the entry
/// [`new_entry`] puts when vold = vnew. `Err` is a failed base read.
pub(crate) fn old_entry(
    store: &dyn Store,
    spec: &IndexSpec,
    row: &[u8],
    new: Option<&[Bytes]>,
    old_ts: u64,
) -> Result<Option<IndexTask>> {
    let old = values_at(store, spec, row, &[], old_ts)?;
    Ok(old.filter(|old| Some(old.as_slice()) != new).map(|old| IndexTask::DeleteIndex {
        index_row: index_row(&old, row),
        ts: old_ts,
    }))
}

/// Write planned entries (from [`new_entry`] / [`old_entry`]) as one
/// `Cluster::raw_write` on the index table: one WAL record per index
/// region, the regions in parallel. Returns the entries of the region
/// groups that failed, which are their own AUQ retries (§6.2); the other
/// groups have landed. An entry may travel with data of the caller's (the
/// APS keeps its attempt count beside it), which comes back with it.
pub(crate) fn write_entries<E: Borrow<IndexTask>>(
    cluster: &Cluster,
    spec: &IndexSpec,
    entries: impl IntoIterator<Item = E>,
) -> Vec<E> {
    let entries: Vec<E> = entries.into_iter().collect();
    let writes: Vec<_> = entries.iter().map(|e| entry_write(e.borrow())).collect();
    let failed = cluster.raw_write(&spec.index_table(), &writes);
    if failed.is_empty() {
        return Vec::new();
    }
    let mut entries: Vec<_> = entries.into_iter().map(Some).collect();
    failed.into_iter().flat_map(|(idxs, _)| idxs).filter_map(|i| entries[i].take()).collect()
}
