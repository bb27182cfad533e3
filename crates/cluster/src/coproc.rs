//! Coprocessor-style observers.
//!
//! HBase coprocessors let code run server-side around table operations
//! without touching core code — Diff-Index is implemented as three such
//! observers (§7, Figure 6). Our in-process cluster mirrors the hook surface
//! Diff-Index needs: post-put, post-put-batch (one call per batched put,
//! so index maintenance can batch too), post-delete, pre/post-flush (for the
//! drain-AUQ-before-flush protocol), post-replay (to re-enqueue restored
//! base puts during recovery, §5.3) and pre/post-recovery (the AUQ hold).

use crate::cluster::Cluster;
use crate::error::Result;
use bytes::Bytes;
use std::sync::Arc;

/// A column write: `(column name, value)`.
pub type ColumnValue = (Bytes, Bytes);

/// Server-side observer attached to a table.
///
/// All hooks receive a [`Cluster`] handle so they can issue further
/// operations (e.g. write index tables hosted on other servers), exactly as
/// an HBase coprocessor uses an `HTable` client internally.
pub trait TableObserver: Send + Sync + 'static {
    /// Called after a client put has been applied (WAL + memtable) to the
    /// base table, with the server-assigned timestamp.
    fn post_put(
        &self,
        cluster: &Cluster,
        table: &str,
        row: &[u8],
        columns: &[ColumnValue],
        ts: u64,
    ) -> Result<()>;

    /// Called once after a batched client put has been applied, with every
    /// row of the batch: `ts[i]` is the timestamp of `rows[i]`. The default
    /// runs [`TableObserver::post_put`] for each row as one task on the
    /// cluster's fan-out pool and returns the first error in row order;
    /// Diff-Index overrides it to write a whole batch's index entries as one
    /// write per index region.
    fn post_put_batch(
        self: Arc<Self>,
        cluster: &Cluster,
        table: &str,
        rows: &[(Bytes, Vec<ColumnValue>)],
        ts: &[u64],
    ) -> Result<()> {
        let rows: Arc<[(Bytes, Vec<ColumnValue>, u64)]> = rows
            .iter()
            .zip(ts)
            .map(|((row, columns), &ts)| (row.clone(), columns.clone(), ts))
            .collect();
        let tasks: Vec<_> = (0..rows.len())
            .map(|i| {
                let (obs, rows, cluster) = (Arc::clone(&self), Arc::clone(&rows), cluster.clone());
                let table = table.to_string();
                move || {
                    let (row, columns, ts) = &rows[i];
                    obs.post_put(&cluster, &table, row, columns, *ts)
                }
            })
            .collect();
        cluster.fanout().run(tasks).into_iter().collect()
    }

    /// Called after a client delete has been applied to the base table.
    fn post_delete(
        &self,
        cluster: &Cluster,
        table: &str,
        row: &[u8],
        columns: &[Bytes],
        ts: u64,
    ) -> Result<()>;

    /// Called immediately before a region of `table` flushes its memtable.
    /// Diff-Index pauses and drains the AUQ here (Figure 5, "1. pause &
    /// drain") so that `PR(Flushed) = ∅` always holds. It runs on the
    /// thread whose write filled the memtable, never on the AUQ's own
    /// worker: that worker writes only through [`FanoutPool::run`], which
    /// never runs another caller's queued write.
    ///
    /// [`FanoutPool::run`]: crate::FanoutPool::run
    fn pre_flush(&self, cluster: &Cluster, table: &str) {
        let _ = (cluster, table);
    }

    /// Called after the flush (and WAL roll-forward) completes; Diff-Index
    /// resumes AUQ intake here.
    fn post_flush(&self, cluster: &Cluster, table: &str) {
        let _ = (cluster, table);
    }

    /// Called for every base operation restored by WAL replay during region
    /// recovery. Diff-Index re-enqueues each into the AUQ regardless of
    /// whether it was delivered before the failure — correct because index
    /// entries carry their base entry's timestamp, making re-delivery
    /// idempotent (§5.3).
    fn post_replay(&self, cluster: &Cluster, table: &str, op: &ReplayedOp) -> Result<()> {
        let _ = (cluster, table, op);
        Ok(())
    }

    /// Called when the master opens a §5.3 recovery window (regions of dead
    /// servers are about to be reassigned and replayed). Diff-Index holds
    /// its AUQ's worker here: queued tasks addressed to a dead region would
    /// otherwise burn their retry budget against `ServerDown` before the new
    /// owner is ready, and §5.3 requires the AUQ blocked inside the window.
    fn pre_recovery(&self, cluster: &Cluster, table: &str) {
        let _ = (cluster, table);
    }

    /// Called after reassignment + WAL replay (and `post_replay` delivery)
    /// complete: the queued tasks now drain against the region's new owner —
    /// the AUQ handover that keeps acked async writes from being lost.
    fn post_recovery(&self, cluster: &Cluster, table: &str) {
        let _ = (cluster, table);
    }
}

/// One base-table operation reconstructed from the WAL during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayedOp {
    /// A restored put.
    Put {
        /// Base row key.
        row: Vec<u8>,
        /// Column name.
        column: Vec<u8>,
        /// Value written.
        value: Bytes,
        /// Original server-assigned timestamp.
        ts: u64,
    },
    /// A restored delete (tombstone).
    Delete {
        /// Base row key.
        row: Vec<u8>,
        /// Column name.
        column: Vec<u8>,
        /// Original server-assigned timestamp.
        ts: u64,
    },
}

impl ReplayedOp {
    /// The timestamp of the restored operation.
    pub fn ts(&self) -> u64 {
        match self {
            ReplayedOp::Put { ts, .. } | ReplayedOp::Delete { ts, .. } => *ts,
        }
    }
}
