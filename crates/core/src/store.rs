//! The store abstraction the index layer runs against.
//!
//! Diff-Index's read path, sessions, and verification tools only need the
//! client surface of the data store — puts, deletes, point reads, row
//! scans. [`Store`] captures exactly that surface, so the same scheme code
//! drives either the in-process [`Cluster`] or a
//! `net::RemoteClient` talking to region servers over TCP; the paper's
//! client library is precisely this indirection (§2.2, Figure 3).
//!
//! Index *maintenance* (observers + AUQ) is deliberately not part of the
//! trait: coprocessors run server-side, next to the data, in both
//! deployments. Remote index administration (`CREATE INDEX` etc.) travels
//! as dedicated admin requests with default implementations that reject on
//! backends that do not forward them.

use crate::spec::IndexSpec;
use bytes::Bytes;
use diff_index_cluster::{
    Cluster, ClusterError, ColumnValue, PutOutcome, Result as ClusterResult, RowGroup,
};
use diff_index_lsm::VersionedValue;

/// Client-visible operations of a Diff-Index data store. Implemented by the
/// in-process [`Cluster`] and by `net::RemoteClient`; everything in `core`
/// that runs client-side consumes this instead of a concrete backend.
///
/// Semantics mirror the [`Cluster`] methods of the same names, including
/// observer dispatch on `put`/`put_batch`/`put_returning`/`delete` and the
/// no-observer contract of `raw_put`/`raw_delete` (§4.3: index entries
/// carry their base entry's timestamp).
pub trait Store: Send + Sync {
    /// Client put with a server-assigned timestamp; observers run.
    fn put(&self, table: &str, row: &[u8], columns: &[ColumnValue]) -> ClusterResult<u64>;

    /// Batched client put; returns per-row timestamps in input order.
    fn put_batch(&self, table: &str, rows: &[(Bytes, Vec<ColumnValue>)])
        -> ClusterResult<Vec<u64>>;

    /// Put that also returns the values it replaced (§5.2 session client).
    fn put_returning(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
    ) -> ClusterResult<PutOutcome>;

    /// Client delete of the named columns.
    fn delete(&self, table: &str, row: &[u8], columns: &[Bytes]) -> ClusterResult<u64>;

    /// Put at an explicit timestamp, no observer dispatch (index writes).
    fn raw_put(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> ClusterResult<()>;

    /// Delete at an explicit timestamp, no observer dispatch.
    fn raw_delete(&self, table: &str, row: &[u8], columns: &[Bytes], ts: u64)
        -> ClusterResult<()>;

    /// Read one column of one row at snapshot `ts` (`u64::MAX` = latest).
    fn get(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> ClusterResult<Option<VersionedValue>>;

    /// [`Store::get`] of many `(row, column)` cells, in input order. The
    /// default reads them one by one; a backend that can batch them
    /// overrides it.
    fn get_many(
        &self,
        table: &str,
        cells: &[(&[u8], &[u8])],
        ts: u64,
    ) -> ClusterResult<Vec<Option<VersionedValue>>> {
        cells.iter().map(|(row, column)| self.get(table, row, column, ts)).collect()
    }

    /// Newest cell (tombstones included) for one column: `(ts, is_tombstone)`.
    fn get_cell_versioned(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> ClusterResult<Option<(u64, bool)>>;

    /// All columns of one row at snapshot `ts`.
    fn get_row(&self, table: &str, row: &[u8], ts: u64)
        -> ClusterResult<Vec<(Bytes, VersionedValue)>>;

    /// Scan whole rows in `[start_row, end_row)` (row-boundary semantics).
    fn scan_rows(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>>;

    /// Scan whole rows whose row key starts with `row_prefix`.
    fn scan_rows_prefix(
        &self,
        table: &str,
        row_prefix: &[u8],
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>>;

    /// Scan whole rows under plain byte-string order (index range reads).
    fn scan_rows_range(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>>;

    /// Create a table pre-split into `num_regions` regions.
    fn create_table(&self, name: &str, num_regions: usize) -> ClusterResult<()>;

    /// True if `table` exists.
    fn has_table(&self, table: &str) -> ClusterResult<bool>;

    /// Flush every region of `table`.
    fn flush_table(&self, table: &str) -> ClusterResult<()>;

    // -- index administration (forwarded over the wire) ----------------------

    /// `CREATE INDEX` executed where the observers can be attached — on the
    /// server for a remote backend. The in-process backend never calls
    /// this: `DiffIndex` drives observer registration directly.
    fn admin_create_index(&self, _spec: &IndexSpec, _num_regions: usize) -> ClusterResult<()> {
        Err(ClusterError::Unavailable("index admin not supported by this store backend".into()))
    }

    /// `DROP INDEX` forwarded to wherever the observer lives.
    fn admin_drop_index(&self, _base_table: &str, _name: &str) -> ClusterResult<()> {
        Err(ClusterError::Unavailable("index admin not supported by this store backend".into()))
    }

    /// Block until every AUQ behind `base_table`'s indexes is empty.
    fn admin_quiesce(&self, _base_table: &str) -> ClusterResult<()> {
        Err(ClusterError::Unavailable("index admin not supported by this store backend".into()))
    }
}

impl Store for Cluster {
    fn put(&self, table: &str, row: &[u8], columns: &[ColumnValue]) -> ClusterResult<u64> {
        Cluster::put(self, table, row, columns)
    }

    fn put_batch(
        &self,
        table: &str,
        rows: &[(Bytes, Vec<ColumnValue>)],
    ) -> ClusterResult<Vec<u64>> {
        Cluster::put_batch(self, table, rows)
    }

    fn put_returning(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
    ) -> ClusterResult<PutOutcome> {
        Cluster::put_returning(self, table, row, columns)
    }

    fn delete(&self, table: &str, row: &[u8], columns: &[Bytes]) -> ClusterResult<u64> {
        Cluster::delete(self, table, row, columns)
    }

    fn raw_put(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> ClusterResult<()> {
        Cluster::raw_put(self, table, row, columns, ts)
    }

    fn raw_delete(
        &self,
        table: &str,
        row: &[u8],
        columns: &[Bytes],
        ts: u64,
    ) -> ClusterResult<()> {
        Cluster::raw_delete(self, table, row, columns, ts)
    }

    fn get(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> ClusterResult<Option<VersionedValue>> {
        Cluster::get(self, table, row, column, ts)
    }

    fn get_many(
        &self,
        table: &str,
        cells: &[(&[u8], &[u8])],
        ts: u64,
    ) -> ClusterResult<Vec<Option<VersionedValue>>> {
        Cluster::get_many(self, table, cells, ts)
    }

    fn get_cell_versioned(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> ClusterResult<Option<(u64, bool)>> {
        Cluster::get_cell_versioned(self, table, row, column, ts)
    }

    fn get_row(
        &self,
        table: &str,
        row: &[u8],
        ts: u64,
    ) -> ClusterResult<Vec<(Bytes, VersionedValue)>> {
        Cluster::get_row(self, table, row, ts)
    }

    fn scan_rows(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        Cluster::scan_rows(self, table, start_row, end_row, ts, limit)
    }

    fn scan_rows_prefix(
        &self,
        table: &str,
        row_prefix: &[u8],
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        Cluster::scan_rows_prefix(self, table, row_prefix, ts, limit)
    }

    fn scan_rows_range(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        Cluster::scan_rows_range(self, table, start_row, end_row, ts, limit)
    }

    fn create_table(&self, name: &str, num_regions: usize) -> ClusterResult<()> {
        Cluster::create_table(self, name, num_regions)
    }

    fn has_table(&self, table: &str) -> ClusterResult<bool> {
        Ok(Cluster::has_table(self, table))
    }

    fn flush_table(&self, table: &str) -> ClusterResult<()> {
        Cluster::flush_table(self, table)
    }
}
