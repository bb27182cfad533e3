//! The Diff-Index coprocessors (§7, Figure 6): `SyncFullObserver`,
//! `SyncInsertObserver` and `AsyncObserver`, attached to index-enabled base
//! tables. They intercept every base-table mutation and maintain the index
//! according to the chosen scheme.
//!
//! All three share the concurrency-control invariant of §4.3: **an index
//! entry always carries the same timestamp as the base entry it is
//! associated with**, and old-entry operations happen at `t − δ`.

use crate::auq::{new_index_values, read_index_values, Auq, IndexTask};
use crate::encoding::index_row;
use crate::error::Result;
use crate::spec::IndexSpec;
use bytes::Bytes;
use diff_index_cluster::{Cluster, ColumnValue, ReplayedOp, TableObserver};
use diff_index_lsm::DELTA;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Key-only index entry payload: one empty column with an empty value.
fn null_cell() -> Vec<ColumnValue> {
    vec![(Bytes::new(), Bytes::new())]
}

/// The timestamp old-entry operations should use: `ts − δ` per §4.3, or
/// `ts` itself under the cluster's §4.3 sabotage switch
/// ([`FaultPlan::sabotage_delta`](diff_index_cluster::FaultPlan::sabotage_delta)).
fn old_entry_ts(cluster: &Cluster, ts: u64) -> u64 {
    if cluster.faults().delta_sabotaged() {
        ts
    } else {
        ts - DELTA
    }
}

/// Shared synchronous index-update steps SU2–SU4 of Algorithm 1. `do_repair`
/// controls whether SU3/SU4 (read old value, delete old entry) run —
/// `sync-full` does, `sync-insert` skips them. Failed operations are pushed
/// to the AUQ instead of rolling back the base put (§6.2).
///
/// With `do_repair`, SU2 and the SU3→SU4 chain touch *different* index rows
/// (new-value entry vs old-value entry) in what are typically different
/// index regions, so they run in parallel on the cluster's fan-out pool.
/// The §4.3 invariant is untouched by the reordering: both arms carry fixed
/// timestamps (`ts` and `ts − δ`) assigned before the dispatch, so the index
/// state after both arms land is identical regardless of execution order.
fn sync_update(
    cluster: &Cluster,
    spec: &Arc<IndexSpec>,
    auq: &Arc<Auq>,
    row: &[u8],
    columns: &[ColumnValue],
    ts: u64,
    do_repair: bool,
) -> Result<()> {
    // SU1 pre-computation shared by both arms: the index values after this
    // put (reads the stored row only for composite columns the put missed).
    let new_vals = new_index_values(cluster, spec, row, columns, ts)?;
    if !do_repair {
        // SU2 only — no repair arm, nothing to fan out.
        if let Some(vals) = &new_vals {
            let new_key = index_row(vals, row);
            if cluster.raw_put(&spec.index_table(), &new_key, &null_cell(), ts).is_err() {
                auq.enqueue(IndexTask::PutIndex { index_row: new_key, ts });
            }
        }
        return Ok(());
    }

    type Arm = Box<dyn FnOnce() -> Result<Vec<IndexTask>> + Send + 'static>;
    let row = Bytes::copy_from_slice(row);
    let mut arms: Vec<Arm> = Vec::with_capacity(2);
    {
        // SU2: put the new index entry, with the base timestamp.
        let cluster = cluster.clone();
        let spec = Arc::clone(spec);
        let new_vals = new_vals.clone();
        let row = row.clone();
        arms.push(Box::new(move || {
            if let Some(vals) = &new_vals {
                let new_key = index_row(vals, &row);
                if cluster.raw_put(&spec.index_table(), &new_key, &null_cell(), ts).is_err() {
                    return Ok(vec![IndexTask::PutIndex { index_row: new_key, ts }]);
                }
            }
            Ok(Vec::new())
        }));
    }
    {
        // SU3: read the pre-image — RB(k, tnew − δ).
        // SU4: delete the old entry at tnew − δ. The δ matters twice (§4.3):
        // reading at tnew would see the new value; deleting at tnew would
        // kill the entry just written when vold == vnew. Skipping the delete
        // when the values are equal avoids pointless work.
        let cluster = cluster.clone();
        let spec = Arc::clone(spec);
        arms.push(Box::new(move || {
            let old_ts = old_entry_ts(&cluster, ts);
            let old_vals = read_index_values(&cluster, &spec, &row, old_ts)?;
            if let Some(old) = old_vals {
                if Some(&old) != new_vals.as_ref() {
                    let old_key = index_row(&old, &row);
                    if cluster
                        .raw_delete(&spec.index_table(), &old_key, &[Bytes::new()], old_ts)
                        .is_err()
                    {
                        return Ok(vec![IndexTask::DeleteIndex {
                            index_row: old_key,
                            ts: old_ts,
                        }]);
                    }
                }
            }
            Ok(Vec::new())
        }));
    }

    let metrics = auq.metrics();
    metrics.fanout_dispatches.fetch_add(1, Ordering::Relaxed);
    metrics.fanout_tasks.fetch_add(arms.len() as u64, Ordering::Relaxed);
    let results = cluster.fanout().run(arms);

    // Failed index ops degrade to the AUQ as one batch; a read error in
    // either arm surfaces after both arms have finished (matching the
    // sequential code, where SU2's enqueue preceded an SU3 read error).
    let mut retries = Vec::new();
    let mut first_err = None;
    for result in results {
        match result {
            Ok(mut tasks) => retries.append(&mut tasks),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    auq.enqueue_many(retries);
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Synchronous handling of a base delete: remove the index entry of the
/// pre-image (used by `sync-full`; `sync-insert` leaves it for read-repair).
fn sync_delete(
    cluster: &Cluster,
    spec: &IndexSpec,
    auq: &Auq,
    row: &[u8],
    ts: u64,
) -> Result<()> {
    if let Some(old) = read_index_values(cluster, spec, row, ts - DELTA)? {
        let old_key = index_row(&old, row);
        if cluster
            .raw_delete(&spec.index_table(), &old_key, &[Bytes::new()], ts - DELTA)
            .is_err()
        {
            auq.enqueue(IndexTask::DeleteIndex { index_row: old_key, ts: ts - DELTA });
        }
    }
    Ok(())
}

macro_rules! replay_and_flush_impl {
    () => {
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

        fn post_replay(&self, _cluster: &Cluster, _table: &str, op: &ReplayedOp) -> Result2<()> {
            // §5.3: every replayed base op is re-enqueued, whether or not it
            // was delivered before the crash. Idempotent because the index
            // entry timestamp equals the base timestamp.
            match op {
                ReplayedOp::Put { row, column, value, ts } => {
                    if self.spec.columns.iter().any(|c| c.as_ref() == column.as_slice()) {
                        self.auq.enqueue(IndexTask::Maintain {
                            row: Bytes::copy_from_slice(row),
                            ts: *ts,
                            is_delete: false,
                            put_columns: vec![(
                                Bytes::copy_from_slice(column),
                                value.clone(),
                            )],
                        });
                    }
                }
                ReplayedOp::Delete { row, column, ts } => {
                    if self.spec.columns.iter().any(|c| c.as_ref() == column.as_slice()) {
                        self.auq.enqueue(IndexTask::Maintain {
                            row: Bytes::copy_from_slice(row),
                            ts: *ts,
                            is_delete: true,
                            put_columns: Vec::new(),
                        });
                    }
                }
            }
            Ok(())
        }
    };
}

use diff_index_cluster::Result as Result2;

/// Coprocessor for the `sync-full` scheme (Algorithm 1).
pub struct SyncFullObserver {
    spec: Arc<IndexSpec>,
    auq: Arc<Auq>,
}

/// Coprocessor for the `sync-insert` scheme (§4.2).
pub struct SyncInsertObserver {
    spec: Arc<IndexSpec>,
    auq: Arc<Auq>,
}

/// Coprocessor for `async-simple` and `async-session` (Algorithms 3–4);
/// session consistency is layered on the client side (§5.2), so the server
/// side of both schemes is identical.
pub struct AsyncObserver {
    spec: Arc<IndexSpec>,
    auq: Arc<Auq>,
}

impl SyncFullObserver {
    /// Build the observer (and its failure-retry AUQ) for `spec`.
    pub fn new(cluster: &Cluster, spec: Arc<IndexSpec>) -> Self {
        let auq = Auq::start(cluster.downgrade(), Arc::clone(&spec));
        Self { spec, auq }
    }

    /// The failure-retry queue.
    pub fn auq(&self) -> &Arc<Auq> {
        &self.auq
    }
}

impl SyncInsertObserver {
    /// Build the observer (and its failure-retry AUQ) for `spec`.
    pub fn new(cluster: &Cluster, spec: Arc<IndexSpec>) -> Self {
        let auq = Auq::start(cluster.downgrade(), Arc::clone(&spec));
        Self { spec, auq }
    }

    /// The failure-retry queue.
    pub fn auq(&self) -> &Arc<Auq> {
        &self.auq
    }
}

impl AsyncObserver {
    /// Build the observer and its AUQ/APS for `spec`.
    pub fn new(cluster: &Cluster, spec: Arc<IndexSpec>) -> Self {
        let auq = Auq::start(cluster.downgrade(), Arc::clone(&spec));
        Self { spec, auq }
    }

    /// The asynchronous update queue.
    pub fn auq(&self) -> &Arc<Auq> {
        &self.auq
    }
}

impl TableObserver for SyncFullObserver {
    fn post_put(
        &self,
        cluster: &Cluster,
        _table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> Result2<()> {
        if !self.spec.touches(&columns.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>()) {
            return Ok(());
        }
        sync_update(cluster, &self.spec, &self.auq, row, columns, ts, true)
            .map_err(Into::into)
    }

    fn post_delete(
        &self,
        cluster: &Cluster,
        _table: &str,
        row: &[u8],
        columns: &[Bytes],
        ts: u64,
    ) -> Result2<()> {
        if !self.spec.touches(columns) {
            return Ok(());
        }
        sync_delete(cluster, &self.spec, &self.auq, row, ts).map_err(Into::into)
    }

    replay_and_flush_impl!();
}

impl TableObserver for SyncInsertObserver {
    fn post_put(
        &self,
        cluster: &Cluster,
        _table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> Result2<()> {
        if !self.spec.touches(&columns.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>()) {
            return Ok(());
        }
        // SU1–SU2 only: the old entry is left stale, to be repaired by the
        // read path (Algorithm 2).
        sync_update(cluster, &self.spec, &self.auq, row, columns, ts, false)
            .map_err(Into::into)
    }

    fn post_delete(
        &self,
        _cluster: &Cluster,
        _table: &str,
        _row: &[u8],
        _columns: &[Bytes],
        _ts: u64,
    ) -> Result2<()> {
        // Nothing: the now-stale entry is repaired at read time.
        Ok(())
    }

    replay_and_flush_impl!();
}

impl TableObserver for AsyncObserver {
    fn post_put(
        &self,
        _cluster: &Cluster,
        _table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> Result2<()> {
        // AU1 (Algorithm 3): the base put is already logged + in the
        // memtable; just enqueue and return, the client is acked right away.
        if !self.spec.touches(&columns.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>()) {
            return Ok(());
        }
        self.auq.enqueue(IndexTask::Maintain {
            row: Bytes::copy_from_slice(row),
            ts,
            is_delete: false,
            put_columns: columns.to_vec(),
        });
        Ok(())
    }

    fn post_delete(
        &self,
        _cluster: &Cluster,
        _table: &str,
        row: &[u8],
        columns: &[Bytes],
        ts: u64,
    ) -> Result2<()> {
        if !self.spec.touches(columns) {
            return Ok(());
        }
        self.auq.enqueue(IndexTask::Maintain {
            row: Bytes::copy_from_slice(row),
            ts,
            is_delete: true,
            put_columns: Vec::new(),
        });
        Ok(())
    }

    replay_and_flush_impl!();
}

impl Drop for SyncFullObserver {
    fn drop(&mut self) {
        self.auq.shutdown();
    }
}

impl Drop for SyncInsertObserver {
    fn drop(&mut self) {
        self.auq.shutdown();
    }
}

impl Drop for AsyncObserver {
    fn drop(&mut self) {
        self.auq.shutdown();
    }
}
