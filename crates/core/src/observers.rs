//! The Diff-Index coprocessor (§7, Figure 6): one [`IndexObserver`] per
//! index, attached to the index's base table. It intercepts every base
//! mutation and runs the `maintain` steps where the index's scheme puts
//! them:
//!
//! * `sync-full` (Algorithm 1): SU2 in parallel with SU3→SU4 on a put,
//!   SU3→SU4 on a delete, before the client is acknowledged;
//! * `sync-insert` (§4.2): SU2 only — stale entries are repaired at read
//!   time (Algorithm 2);
//! * `async-simple` / `async-session` (Algorithms 3–4): enqueue the put on
//!   the AUQ and return; session consistency is layered on the client side
//!   (§5.2), so the server side of both is identical.
//!
//! A failed synchronous index write becomes an AUQ retry task instead of
//! rolling back the base put (§6.2). Every scheme keeps the §4.3 invariant:
//! **an index entry always carries the same timestamp as the base entry it
//! is associated with**, and old-entry operations happen at `t − δ`.

use crate::auq::{Auq, IndexTask};
use crate::error::Result;
use crate::maintain::{self, old_entry_ts};
use crate::spec::{IndexScheme, IndexSpec};
use bytes::Bytes;
use diff_index_cluster::{
    Cluster, ColumnValue, ReplayedOp, Result as ClusterResult, TableObserver,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The coprocessor for one index; `spec.scheme` picks the maintenance
/// scheme.
pub struct IndexObserver {
    spec: Arc<IndexSpec>,
    auq: Arc<Auq>,
}

/// [`IndexObserver`] under its `sync-full` name, which the benchmark crate uses.
pub type SyncFullObserver = IndexObserver;
/// [`IndexObserver`] under its `sync-insert` name, which the benchmark crate uses.
pub type SyncInsertObserver = IndexObserver;
/// [`IndexObserver`] under its async name, which the benchmark crate uses.
pub type AsyncObserver = IndexObserver;

impl IndexObserver {
    /// Build the observer and its AUQ for `spec`: the APS for the async
    /// schemes, the failure-retry queue for the sync ones. Also puts the
    /// indexed columns in the base table's column group, so the base
    /// reads of every scheme (SU3, BA2, the sync-insert check) read small
    /// SSTables that stay in the block cache.
    pub fn new(cluster: &Cluster, spec: Arc<IndexSpec>) -> Self {
        cluster.group_columns(&spec.base_table, &spec.columns);
        let auq = Auq::start(cluster.downgrade(), Arc::clone(&spec));
        Self { spec, auq }
    }

    /// The index's update queue.
    pub fn auq(&self) -> &Arc<Auq> {
        &self.auq
    }

    /// Algorithm 1 on a put: SU2 and SU3→SU4 touch *different* index rows
    /// (new-value vs old-value entry), typically in different index
    /// regions, so they run in parallel on the cluster's fan-out pool. Both
    /// carry timestamps fixed before the dispatch (`ts` and `t − δ`), so the
    /// index state after both land does not depend on their order (§4.3).
    fn sync_full_put(
        &self,
        cluster: &Cluster,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> Result<()> {
        // SU1, shared by both arms: the index values after this put.
        let new = maintain::values_at(cluster, &self.spec, row, columns, ts)?;
        let old_ts = old_entry_ts(cluster, ts);
        let row = Bytes::copy_from_slice(row);
        type Arm = Box<dyn FnOnce() -> Result<Vec<IndexTask>> + Send>;
        let su2: Arm = {
            let (cluster, spec, row, new) =
                (cluster.clone(), Arc::clone(&self.spec), row.clone(), new.clone());
            Box::new(move || {
                let entry = maintain::new_entry(&row, new.as_deref(), ts);
                Ok(maintain::write_entries(&cluster, &spec, entry))
            })
        };
        let su3_su4: Arm = {
            let (cluster, spec) = (cluster.clone(), Arc::clone(&self.spec));
            Box::new(move || {
                let entry = maintain::old_entry(&cluster, &spec, &row, new.as_deref(), old_ts)?;
                Ok(maintain::write_entries(&cluster, &spec, entry))
            })
        };
        let arms = vec![su2, su3_su4];
        let metrics = self.auq.metrics();
        metrics.fanout_dispatches.fetch_add(1, Ordering::Relaxed);
        metrics.fanout_tasks.fetch_add(arms.len() as u64, Ordering::Relaxed);

        // Failed writes degrade to the AUQ as one batch; a read error in
        // either arm surfaces after both arms have finished.
        let mut retries = Vec::new();
        let mut first_err = None;
        for result in cluster.fanout().run(arms) {
            match result {
                Ok(retry) => retries.extend(retry),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        self.auq.enqueue_many(retries);
        first_err.map_or(Ok(()), Err)
    }

    /// sync-insert, and sync-full over a batch: every row's SU2 entry and,
    /// under sync-full, its SU3 pre-image read and SU4 delete, the entries
    /// written as one `raw_write` (one WAL record per index region). A
    /// failed region group becomes AUQ retries of its own entries (§6.2).
    /// A failed base read drops only the entries that depend on it; the
    /// first such error, in row order, is returned once everything else has
    /// been written.
    fn sync_batch<'a>(
        &self,
        cluster: &Cluster,
        rows: impl IntoIterator<Item = (&'a [u8], &'a [ColumnValue], u64)>,
    ) -> Result<()> {
        let full = self.spec.scheme == IndexScheme::SyncFull;
        let mut entries = Vec::new();
        let mut first_err = None;
        for (row, columns, ts) in rows {
            let new = match maintain::values_at(cluster, &self.spec, row, columns, ts) {
                Ok(new) => new,
                Err(e) => {
                    first_err.get_or_insert(e);
                    continue;
                }
            };
            if full {
                let old_ts = old_entry_ts(cluster, ts);
                match maintain::old_entry(cluster, &self.spec, row, new.as_deref(), old_ts) {
                    Ok(old) => entries.extend(old),
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            entries.extend(maintain::new_entry(row, new.as_deref(), ts));
        }
        self.auq.enqueue_many(maintain::write_entries(cluster, &self.spec, entries));
        first_err.map_or(Ok(()), Err)
    }

    fn enqueue_maintain(
        &self,
        row: &[u8],
        ts: u64,
        is_delete: bool,
        put_columns: Vec<ColumnValue>,
    ) {
        self.auq.enqueue(IndexTask::Maintain {
            row: Bytes::copy_from_slice(row),
            ts,
            is_delete,
            put_columns,
        });
    }

    /// The columns of a put the index covers: what an AUQ entry carries.
    fn indexed(&self, columns: &[ColumnValue]) -> Vec<ColumnValue> {
        columns.iter().filter(|(c, _)| self.spec.columns.contains(c)).cloned().collect()
    }
}

impl TableObserver for IndexObserver {
    fn post_put(
        &self,
        cluster: &Cluster,
        _table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> ClusterResult<()> {
        if !self.spec.touches(columns.iter().map(|(c, _)| c)) {
            return Ok(());
        }
        match self.spec.scheme {
            IndexScheme::SyncFull => self.sync_full_put(cluster, row, columns, ts)?,
            IndexScheme::SyncInsert => self.sync_batch(cluster, [(row, columns, ts)])?,
            IndexScheme::AsyncSimple | IndexScheme::AsyncSession => {
                // AU1 (Algorithm 3): the base put is already logged and in
                // the memtable; enqueue ⟨k, vnew, tnew⟩ and return, so the
                // client is acked right away.
                self.enqueue_maintain(row, ts, false, self.indexed(columns));
            }
        }
        Ok(())
    }

    fn post_put_batch(
        self: Arc<Self>,
        cluster: &Cluster,
        _table: &str,
        rows: &[(Bytes, Vec<ColumnValue>)],
        ts: &[u64],
    ) -> ClusterResult<()> {
        let touched = rows
            .iter()
            .zip(ts)
            .filter(|((_, columns), _)| self.spec.touches(columns.iter().map(|(c, _)| c)));
        match self.spec.scheme {
            IndexScheme::SyncFull | IndexScheme::SyncInsert => {
                let rows = touched.map(|((row, columns), &ts)| (&row[..], &columns[..], ts));
                self.sync_batch(cluster, rows)?
            }
            IndexScheme::AsyncSimple | IndexScheme::AsyncSession => {
                // AU1 for the whole batch, admitted at once.
                self.auq.enqueue_many(touched.map(|((row, columns), &ts)| IndexTask::Maintain {
                    row: row.clone(),
                    ts,
                    is_delete: false,
                    put_columns: self.indexed(columns),
                }))
            }
        }
        Ok(())
    }

    fn post_delete(
        &self,
        cluster: &Cluster,
        _table: &str,
        row: &[u8],
        columns: &[Bytes],
        ts: u64,
    ) -> ClusterResult<()> {
        if !self.spec.touches(columns) {
            return Ok(());
        }
        match self.spec.scheme {
            IndexScheme::SyncFull => {
                let old_ts = old_entry_ts(cluster, ts);
                let entry = maintain::old_entry(cluster, &self.spec, row, None, old_ts)?;
                self.auq.enqueue_many(maintain::write_entries(cluster, &self.spec, entry));
            }
            // The now-stale entry is repaired at read time.
            IndexScheme::SyncInsert => {}
            IndexScheme::AsyncSimple | IndexScheme::AsyncSession => {
                self.enqueue_maintain(row, ts, true, Vec::new());
            }
        }
        Ok(())
    }

    fn pre_flush(&self, _cluster: &Cluster, _table: &str) {
        // Figure 5: pause intake, drain pending work, then let the base
        // memtable flush and roll its WAL forward — this keeps
        // PR(Flushed) = ∅ so the WAL stays a valid log for the AUQ.
        self.auq.pause_and_drain();
    }

    fn post_flush(&self, _cluster: &Cluster, _table: &str) {
        self.auq.resume();
    }

    fn pre_recovery(&self, _cluster: &Cluster, _table: &str) {
        // §5.3: the AUQ is blocked inside the recovery window. The APS
        // worker holds (tasks routed to dead regions would only burn
        // retries against ServerDown) while intake stays open so
        // WAL-replay re-enqueues land in the queue.
        self.auq.hold_for_recovery();
    }

    fn post_recovery(&self, _cluster: &Cluster, _table: &str) {
        // Regions are reassigned and replayed; queued tasks now drain
        // against their new owners — the AUQ handover.
        self.auq.release_recovery_hold();
    }

    fn post_replay(&self, _cluster: &Cluster, _table: &str, op: &ReplayedOp) -> ClusterResult<()> {
        // §5.3: every replayed base op is re-enqueued, whether or not it
        // was delivered before the crash. Idempotent because the index
        // entry timestamp equals the base timestamp.
        match op {
            ReplayedOp::Put { row, column, value, ts } => {
                if self.spec.touches([column]) {
                    let put = (Bytes::copy_from_slice(column), value.clone());
                    self.enqueue_maintain(row, *ts, false, vec![put]);
                }
            }
            ReplayedOp::Delete { row, column, ts } => {
                if self.spec.touches([column]) {
                    self.enqueue_maintain(row, *ts, true, Vec::new());
                }
            }
        }
        Ok(())
    }
}

impl Drop for IndexObserver {
    fn drop(&mut self) {
        self.auq.shutdown();
    }
}
