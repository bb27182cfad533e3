//! Operation-history recording for consistency checking.
//!
//! A chaos harness needs the *client's* view of every write it issued —
//! what was attempted, and whether the store acked it — to later decide
//! which final states are legal. [`RecordingStore`] wraps any [`Store`]
//! and appends one [`WriteRecord`] per client write to a shared
//! [`History`]:
//!
//! * `Ok(ts)` from the backend → [`WriteOutcome::Acked`] — the write is
//!   durable and **must** survive any subsequent crash/recovery;
//! * `Err(_)` → [`WriteOutcome::Ambiguous`] — the write may or may not
//!   have been applied (e.g. the server crashed between the durable WAL
//!   append and the ack, §5.3), so a checker must accept both worlds.
//!
//! Reads and index-maintenance writes (`raw_put`/`raw_delete`) pass
//! through unrecorded: they never change what the client was promised.

use crate::spec::IndexSpec;
use crate::store::Store;
use bytes::Bytes;
use diff_index_cluster::{ColumnValue, PutOutcome, Result as ClusterResult, RowGroup};
use diff_index_lsm::VersionedValue;
use parking_lot::Mutex;
use std::sync::Arc;

/// What a recorded client write did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteKind {
    /// `put` / `put_batch` / `put_returning` of these columns.
    Put {
        /// The column/value pairs written.
        columns: Vec<ColumnValue>,
    },
    /// `delete` of these columns.
    Delete {
        /// The columns deleted.
        columns: Vec<Bytes>,
    },
}

/// Whether the client saw the write succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The backend returned the assigned timestamp: durably applied.
    Acked {
        /// Server-assigned timestamp of the write.
        ts: u64,
    },
    /// The backend returned an error: applied-or-not is unknowable.
    Ambiguous {
        /// Display form of the error the client saw.
        error: String,
    },
}

impl WriteOutcome {
    /// True if the client received an ack for this write.
    pub fn is_acked(&self) -> bool {
        matches!(self, WriteOutcome::Acked { .. })
    }
}

/// One client write as observed at the issuing client.
#[derive(Debug, Clone)]
pub struct WriteRecord {
    /// Global issue order (0-based). Writes are recorded in completion
    /// order, which equals issue order for a single-threaded client.
    pub seq: u64,
    /// Base table the write targeted.
    pub table: String,
    /// Row key.
    pub row: Bytes,
    /// Put or delete, with the affected columns.
    pub kind: WriteKind,
    /// Acked or ambiguous.
    pub outcome: WriteOutcome,
}

/// Append-only log of client writes, shared between a [`RecordingStore`]
/// and the checker that later replays it against a model.
#[derive(Debug, Default)]
pub struct History {
    records: Mutex<Vec<WriteRecord>>,
}

impl History {
    /// Fresh, empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record, assigning it the next sequence number.
    pub fn record(&self, table: &str, row: &[u8], kind: WriteKind, outcome: WriteOutcome) {
        let mut records = self.records.lock();
        let seq = records.len() as u64;
        records.push(WriteRecord {
            seq,
            table: table.to_string(),
            row: Bytes::copy_from_slice(row),
            kind,
            outcome,
        });
    }

    /// Number of recorded writes.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Clone out the full record list, in sequence order.
    pub fn snapshot(&self) -> Vec<WriteRecord> {
        self.records.lock().clone()
    }

    /// The last `n` records (for failure reports).
    pub fn tail(&self, n: usize) -> Vec<WriteRecord> {
        let records = self.records.lock();
        records[records.len().saturating_sub(n)..].to_vec()
    }
}

/// A [`Store`] decorator that records every client write into a
/// [`History`] and forwards everything to the wrapped backend.
pub struct RecordingStore {
    inner: Arc<dyn Store>,
    history: Arc<History>,
}

impl RecordingStore {
    /// Wrap `inner`, recording into a fresh history.
    pub fn new(inner: Arc<dyn Store>) -> Self {
        Self { inner, history: Arc::new(History::new()) }
    }

    /// The shared history this store records into.
    pub fn history(&self) -> &Arc<History> {
        &self.history
    }
}

impl std::fmt::Debug for RecordingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingStore").field("recorded", &self.history.len()).finish()
    }
}

fn outcome_of<T>(res: &ClusterResult<T>, ts_of: impl Fn(&T) -> u64) -> WriteOutcome {
    match res {
        Ok(v) => WriteOutcome::Acked { ts: ts_of(v) },
        Err(e) => WriteOutcome::Ambiguous { error: e.to_string() },
    }
}

impl Store for RecordingStore {
    fn put(&self, table: &str, row: &[u8], columns: &[ColumnValue]) -> ClusterResult<u64> {
        let res = self.inner.put(table, row, columns);
        self.history.record(
            table,
            row,
            WriteKind::Put { columns: columns.to_vec() },
            outcome_of(&res, |ts| *ts),
        );
        res
    }

    fn put_batch(
        &self,
        table: &str,
        rows: &[(Bytes, Vec<ColumnValue>)],
    ) -> ClusterResult<Vec<u64>> {
        let res = self.inner.put_batch(table, rows);
        for (i, (row, columns)) in rows.iter().enumerate() {
            let outcome = match &res {
                Ok(tss) => WriteOutcome::Acked { ts: tss[i] },
                Err(e) => WriteOutcome::Ambiguous { error: e.to_string() },
            };
            self.history.record(table, row, WriteKind::Put { columns: columns.clone() }, outcome);
        }
        res
    }

    fn put_returning(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
    ) -> ClusterResult<PutOutcome> {
        let res = self.inner.put_returning(table, row, columns);
        self.history.record(
            table,
            row,
            WriteKind::Put { columns: columns.to_vec() },
            outcome_of(&res, |o| o.ts),
        );
        res
    }

    fn delete(&self, table: &str, row: &[u8], columns: &[Bytes]) -> ClusterResult<u64> {
        let res = self.inner.delete(table, row, columns);
        self.history.record(
            table,
            row,
            WriteKind::Delete { columns: columns.to_vec() },
            outcome_of(&res, |ts| *ts),
        );
        res
    }

    fn raw_put(
        &self,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> ClusterResult<()> {
        self.inner.raw_put(table, row, columns, ts)
    }

    fn raw_delete(
        &self,
        table: &str,
        row: &[u8],
        columns: &[Bytes],
        ts: u64,
    ) -> ClusterResult<()> {
        self.inner.raw_delete(table, row, columns, ts)
    }

    fn get(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> ClusterResult<Option<VersionedValue>> {
        self.inner.get(table, row, column, ts)
    }

    fn get_many(
        &self,
        table: &str,
        cells: &[(&[u8], &[u8])],
        ts: u64,
    ) -> ClusterResult<Vec<Option<VersionedValue>>> {
        self.inner.get_many(table, cells, ts)
    }

    fn get_cell_versioned(
        &self,
        table: &str,
        row: &[u8],
        column: &[u8],
        ts: u64,
    ) -> ClusterResult<Option<(u64, bool)>> {
        self.inner.get_cell_versioned(table, row, column, ts)
    }

    fn get_row(
        &self,
        table: &str,
        row: &[u8],
        ts: u64,
    ) -> ClusterResult<Vec<(Bytes, VersionedValue)>> {
        self.inner.get_row(table, row, ts)
    }

    fn scan_rows(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        self.inner.scan_rows(table, start_row, end_row, ts, limit)
    }

    fn scan_rows_prefix(
        &self,
        table: &str,
        row_prefix: &[u8],
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        self.inner.scan_rows_prefix(table, row_prefix, ts, limit)
    }

    fn scan_rows_range(
        &self,
        table: &str,
        start_row: &[u8],
        end_row: Option<&[u8]>,
        ts: u64,
        limit: usize,
    ) -> ClusterResult<Vec<RowGroup>> {
        self.inner.scan_rows_range(table, start_row, end_row, ts, limit)
    }

    fn create_table(&self, name: &str, num_regions: usize) -> ClusterResult<()> {
        self.inner.create_table(name, num_regions)
    }

    fn has_table(&self, table: &str) -> ClusterResult<bool> {
        self.inner.has_table(table)
    }

    fn flush_table(&self, table: &str) -> ClusterResult<()> {
        self.inner.flush_table(table)
    }

    fn admin_create_index(&self, spec: &IndexSpec, num_regions: usize) -> ClusterResult<()> {
        self.inner.admin_create_index(spec, num_regions)
    }

    fn admin_drop_index(&self, base_table: &str, name: &str) -> ClusterResult<()> {
        self.inner.admin_drop_index(base_table, name)
    }

    fn admin_quiesce(&self, base_table: &str) -> ClusterResult<()> {
        self.inner.admin_quiesce(base_table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diff_index_cluster::{Cluster, ClusterOptions};

    #[test]
    fn records_acks_and_passes_reads_through() {
        let dir = tempdir_lite::TempDir::new("history").unwrap();
        let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
        cluster.create_table("t", 2).unwrap();
        let store = RecordingStore::new(Arc::new(cluster));

        let ts = store.put("t", b"r1", &[(Bytes::from("c"), Bytes::from("v"))]).unwrap();
        store.delete("t", b"r1", &[Bytes::from("c")]).unwrap();
        store
            .put_batch(
                "t",
                &[
                    (Bytes::from("r2"), vec![(Bytes::from("c"), Bytes::from("v2"))]),
                    (Bytes::from("r3"), vec![(Bytes::from("c"), Bytes::from("v3"))]),
                ],
            )
            .unwrap();
        // Reads and raw writes are not recorded.
        store.get("t", b"r2", b"c", u64::MAX).unwrap();
        store.raw_put("t", b"x", &[(Bytes::new(), Bytes::new())], 1).unwrap();

        let records = store.history().snapshot();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].outcome, WriteOutcome::Acked { ts });
        assert_eq!(records[0].seq, 0);
        assert!(matches!(records[1].kind, WriteKind::Delete { .. }));
        assert_eq!(records[3].row, Bytes::from("r3"));
        assert!(records.iter().all(|r| r.outcome.is_acked()));
    }

    #[test]
    fn failed_writes_are_ambiguous() {
        let dir = tempdir_lite::TempDir::new("history-err").unwrap();
        let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
        let store = RecordingStore::new(Arc::new(cluster));

        // No such table: the error is surfaced AND recorded as ambiguous.
        assert!(store.put("absent", b"r", &[(Bytes::from("c"), Bytes::from("v"))]).is_err());
        let records = store.history().snapshot();
        assert_eq!(records.len(), 1);
        assert!(!records[0].outcome.is_acked());
    }
}
