//! The Asynchronous Update Queue (AUQ) and its Asynchronous Processing
//! Service (APS) — §5.1 and §5.3 of the paper.
//!
//! * `async-simple` / `async-session` enqueue *all* index maintenance here
//!   and acknowledge the client immediately (Algorithm 3); the APS worker
//!   drains the queue in the background (Algorithm 4), running the same
//!   `maintain` steps the synchronous schemes run inline.
//! * The synchronous schemes enqueue *failed* index writes here, as
//!   `PutIndex` / `DeleteIndex` retries, which is how causal consistency
//!   degrades gracefully to eventual instead of rolling back the base put
//!   (§6.2, Atomicity/Durability).
//! * The APS takes the queue in runs of up to `MAX_RUN` tasks of any
//!   kind: every BA2 read, then all index entries as one write per index
//!   region. What fails goes back on the queue one attempt older: a task
//!   whose BA2 read failed whole, and the entries of a failed index region
//!   as the same `PutIndex` / `DeleteIndex` retries the synchronous
//!   schemes queue.
//! * Failure recovery (Figure 5): `pause()` blocks new enqueues, the queue
//!   is drained before the base memtable flushes (so `PR(Flushed) = ∅`),
//!   then `resume()` reopens intake after the WAL rolls forward. During WAL
//!   replay every restored base put is re-enqueued; re-delivery is
//!   idempotent because index entries carry their base entry's timestamp.

use crate::maintain::{self, old_entry_ts};
use crate::spec::IndexSpec;
use bytes::Bytes;
use diff_index_cluster::{Cluster, ColumnValue, WeakCluster};
use parking_lot::{Condvar, Mutex};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on re-delivery attempts for a failing task. The paper retries
/// "until eventually success"; a bound keeps a permanently broken cluster
/// from spinning forever, and is generous enough to survive any transient
/// unavailability window (e.g. a crashed server awaiting recovery).
const MAX_RETRIES: u32 = 64;

/// Most tasks the APS takes as one run: their BA2 reads, then all their
/// index entries as one index write per index region. Bounds the work a
/// flush drain can find in flight.
const MAX_RUN: usize = 256;

/// One unit of deferred index work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexTask {
    /// Full asynchronous maintenance for one observed base operation
    /// (Algorithm 4: `RB`, `DI`, `PI`). Carries the indexed columns the put
    /// wrote, as the paper's AUQ carries the put `⟨k, vnew, tnew⟩` itself —
    /// the new value does not need a second base read.
    Maintain {
        /// Base row that was written.
        row: Bytes,
        /// Timestamp of the base operation.
        ts: u64,
        /// True if the base operation was a delete.
        is_delete: bool,
        /// The indexed columns the observed put wrote (empty for deletes).
        put_columns: Vec<ColumnValue>,
    },
    /// Retry of a failed synchronous index insert (`PI`).
    PutIndex {
        /// Fully built index row key.
        index_row: Bytes,
        /// Timestamp to write with (== base entry timestamp).
        ts: u64,
    },
    /// Retry of a failed synchronous index delete (`DI`).
    DeleteIndex {
        /// Fully built index row key.
        index_row: Bytes,
        /// Timestamp to delete at.
        ts: u64,
    },
}

struct State {
    queue: VecDeque<(IndexTask, u32)>,
    paused: bool,
    in_flight: usize,
    shutdown: bool,
    /// §5.3 recovery window: the worker stops popping (queued tasks addressed
    /// to dead regions stop burning their retry budget) while intake stays
    /// open for WAL-replay re-enqueues; the whole backlog drains against
    /// the regions' new owners on release.
    held: bool,
    /// Chaos-testing switch: while set, the APS worker stops pulling tasks
    /// (the queue keeps accepting), simulating a wedged processing service.
    /// A flush's `pause_and_drain` overrides the stall — the drain contract
    /// (`PR(Flushed) = ∅`, Figure 5) must hold even mid-chaos, or the base
    /// flush would deadlock behind an injected fault.
    stalled: bool,
}

impl State {
    /// An injected stall or a recovery hold wedges the worker — unless a
    /// flush drain is waiting (paused), which takes precedence.
    fn wedged(&self) -> bool {
        (self.stalled || self.held) && !self.paused
    }
}

/// Cumulative AUQ counters plus staleness (index-after-data time-lag)
/// statistics, the measurement behind Figure 11.
#[derive(Debug, Default)]
pub struct AuqMetrics {
    /// Tasks accepted into the queue.
    pub enqueued: AtomicU64,
    /// Tasks completed successfully.
    pub completed: AtomicU64,
    /// Execution failures that led to a retry.
    pub retries: AtomicU64,
    /// Tasks dropped after exhausting retries.
    pub dropped: AtomicU64,
    /// Sum of (completion wall time − base timestamp) in ms, one sample
    /// per `Maintain` task whose pre-image read succeeded.
    pub lag_sum_ms: AtomicU64,
    /// Lag samples in `lag_sum_ms`. Retried entry writes complete without
    /// one, so this can be less than `completed`.
    pub lag_samples: AtomicU64,
    /// Maximum observed lag in ms.
    pub lag_max_ms: AtomicU64,
    /// Synchronous index updates whose SU2 (new-entry put) and SU3/SU4
    /// (pre-image read + old-entry delete) arms were dispatched in parallel.
    /// Always 0: a sync-full put writes both entries as one `raw_write`,
    /// whose index regions run in parallel in the cluster instead. Kept
    /// because the benchmark reports it.
    pub fanout_dispatches: AtomicU64,
    /// Total parallel sub-operations those dispatches fanned out. Always 0,
    /// as [`AuqMetrics::fanout_dispatches`].
    pub fanout_tasks: AtomicU64,
    /// Deepest queue depth ever observed (after an admission).
    pub high_watermark: AtomicU64,
    /// §5.3 recovery windows this queue was held through (AUQ handover).
    pub recovery_holds: AtomicU64,
}

impl AuqMetrics {
    fn record_lag(&self, lag_ms: u64) {
        self.lag_samples.fetch_add(1, Ordering::Relaxed);
        self.lag_sum_ms.fetch_add(lag_ms, Ordering::Relaxed);
        self.lag_max_ms.fetch_max(lag_ms, Ordering::Relaxed);
    }

    /// Mean index-after-data lag over the lag samples, in ms.
    pub fn mean_lag_ms(&self) -> f64 {
        let n = self.lag_samples.load(Ordering::Relaxed);
        if n == 0 {
            return 0.0;
        }
        self.lag_sum_ms.load(Ordering::Relaxed) as f64 / n as f64
    }
}

/// The queue plus its background APS worker, bound to one index.
pub struct Auq {
    state: Mutex<State>,
    cv: Condvar,
    cluster: WeakCluster,
    spec: Arc<IndexSpec>,
    metrics: Arc<AuqMetrics>,
}

impl std::fmt::Debug for Auq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("Auq")
            .field("index", &self.spec.name)
            .field("queued", &s.queue.len())
            .field("paused", &s.paused)
            .finish()
    }
}

impl Auq {
    /// Create the queue and start its APS worker thread. The queue is
    /// unbounded, as in the paper.
    pub fn start(cluster: WeakCluster, spec: Arc<IndexSpec>) -> Arc<Self> {
        let auq = Arc::new(Self {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                paused: false,
                in_flight: 0,
                shutdown: false,
                held: false,
                stalled: false,
            }),
            cv: Condvar::new(),
            cluster,
            spec,
            metrics: Arc::new(AuqMetrics::default()),
        });
        let worker = Arc::clone(&auq);
        std::thread::Builder::new()
            .name(format!("aps-{}", worker.spec.name))
            .spawn(move || worker.aps_loop())
            .expect("spawn APS worker");
        auq
    }

    /// Counters and staleness statistics.
    pub fn metrics(&self) -> &Arc<AuqMetrics> {
        &self.metrics
    }

    /// Add a task. Blocks while the queue is paused for a flush drain —
    /// the paper's "block the AUQ from receiving new entries" (§5.3).
    pub fn enqueue(&self, task: IndexTask) {
        self.enqueue_many(std::iter::once(task))
    }

    /// Add a batch of tasks under one queue lock with one worker wake-up,
    /// or none while the worker is wedged. The blocking-while-paused
    /// contract matches [`Auq::enqueue`]; the whole batch is admitted at
    /// once, so a flush drain never splits the tasks of one base operation
    /// across a pause boundary.
    pub fn enqueue_many<I: IntoIterator<Item = IndexTask>>(&self, tasks: I) {
        let batch: Vec<IndexTask> = tasks.into_iter().collect();
        if batch.is_empty() {
            return;
        }
        let mut s = self.state.lock();
        while s.paused && !s.shutdown {
            self.cv.wait(&mut s);
        }
        if s.shutdown {
            return;
        }
        let n = batch.len() as u64;
        s.queue.extend(batch.into_iter().map(|task| (task, 0)));
        self.metrics.enqueued.fetch_add(n, Ordering::Relaxed);
        self.metrics.high_watermark.fetch_max(s.queue.len() as u64, Ordering::Relaxed);
        // A wedged worker could not pop the batch; un-wedging wakes it.
        if !s.wedged() {
            self.cv.notify_all();
        }
    }

    /// Pause intake and wait until every queued and in-flight task has been
    /// executed (Figure 5, "1. pause & drain"). The caller must later call
    /// [`Auq::resume`].
    pub fn pause_and_drain(&self) {
        let mut s = self.state.lock();
        s.paused = true;
        self.cv.notify_all();
        while !s.queue.is_empty() || s.in_flight > 0 {
            self.cv.wait(&mut s);
        }
    }

    /// Reopen intake after a flush (Figure 5 step 4).
    pub fn resume(&self) {
        let mut s = self.state.lock();
        s.paused = false;
        self.cv.notify_all();
    }

    /// Chaos-testing control: stall (`true`) or un-stall (`false`) the APS
    /// worker. While stalled, tasks accumulate but are not executed —
    /// except during a flush's `pause_and_drain`, which overrides the stall
    /// so the drain-before-flush protocol cannot deadlock. A harness MUST
    /// clear the stall before calling [`Auq::wait_idle`] or quiescing.
    pub fn set_stalled(&self, stalled: bool) {
        let mut s = self.state.lock();
        s.stalled = stalled;
        self.cv.notify_all();
    }

    /// Open a §5.3 recovery window: wedge the worker (queued tasks would
    /// only burn retries against `ServerDown` until the new region owner is
    /// ready) while intake stays open — WAL-replay re-enqueues keep landing
    /// in the queue. A flush's [`Auq::pause_and_drain`] overrides the hold,
    /// same as a stall.
    pub fn hold_for_recovery(&self) {
        let mut s = self.state.lock();
        s.held = true;
        self.metrics.recovery_holds.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_all();
    }

    /// Close the recovery window: the worker resumes draining the queue — now
    /// routed to the regions' new owners.
    pub fn release_recovery_hold(&self) {
        let mut s = self.state.lock();
        s.held = false;
        self.cv.notify_all();
    }

    /// Convenience for tests: wait until the queue is empty without pausing
    /// intake permanently.
    pub fn wait_idle(&self) {
        let mut s = self.state.lock();
        while !s.queue.is_empty() || s.in_flight > 0 {
            self.cv.wait(&mut s);
        }
    }

    /// Number of tasks waiting (not counting one being executed).
    pub fn depth(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Stop the worker (remaining tasks are abandoned). Called on drop of
    /// the owning observer.
    pub fn shutdown(&self) {
        let mut s = self.state.lock();
        s.shutdown = true;
        self.cv.notify_all();
    }

    /// The APS: pop up to [`MAX_RUN`] queued tasks of any kind, unless the
    /// worker is wedged, execute them as one run and settle the run.
    fn aps_loop(&self) {
        loop {
            let run: Vec<_> = {
                let mut s = self.state.lock();
                loop {
                    if s.shutdown {
                        return;
                    }
                    let n = s.queue.len().min(MAX_RUN);
                    if n > 0 && !s.wedged() {
                        s.in_flight += n;
                        break s.queue.drain(..n).collect();
                    }
                    // Nothing to do; also wake periodically so a cluster
                    // that has gone away lets us exit.
                    self.cv.wait_for(&mut s, Duration::from_millis(100));
                }
            };
            let Some(cluster) = self.cluster.upgrade() else {
                // Cluster is gone; nothing will ever succeed again.
                let mut s = self.state.lock();
                s.in_flight -= run.len();
                s.shutdown = true;
                self.cv.notify_all();
                return;
            };
            let ran = run.len();
            let failed = self.execute(&cluster, run);
            self.settle(ran, failed);
        }
    }

    /// Account for a run of `ran` tasks that left `failed`: each failure
    /// goes back on the queue one attempt older, past a pause (it was
    /// admitted before the drain began), or is dropped once out of
    /// attempts. Every task of the run that did not come back whole has
    /// completed. A run with failures then backs off once.
    fn settle(&self, ran: usize, failed: Vec<Attempt>) {
        let mut s = self.state.lock();
        s.in_flight -= ran;
        let m = &self.metrics;
        let whole = failed.iter().filter(|f| f.whole).count();
        m.completed.fetch_add((ran - whole) as u64, Ordering::Relaxed);
        let mut oldest = None;
        for Attempt { task, attempts, .. } in failed {
            if attempts + 1 < MAX_RETRIES {
                m.retries.fetch_add(1, Ordering::Relaxed);
                s.queue.push_back((task, attempts + 1));
                oldest = oldest.max(Some(attempts));
            } else {
                m.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.cv.notify_all();
        drop(s);
        if let Some(attempts) = oldest {
            // Back off before the next attempt so a transiently unavailable
            // region (crashed server awaiting master recovery) gets time to
            // come back. Capped so that a drain waiting on a doomed task is
            // bounded.
            std::thread::sleep(Duration::from_millis((5u64 << attempts.min(5)).min(150)));
        }
    }

    /// Execute a run against the cluster, all its index writes as one
    /// `raw_write`. `Maintain` is Algorithm 4: BA2 read the pre-image, BA3
    /// delete the old index entry, BA4 insert the new one; `PutIndex` and
    /// `DeleteIndex` are entry writes already. Returns what failed: a
    /// `Maintain` whose BA2 read failed, whole, and the entries of each
    /// failed index-region group, as `PutIndex` / `DeleteIndex` (§6.2).
    /// Records the lag of every `Maintain` whose BA2 read succeeded.
    fn execute(&self, cluster: &Cluster, run: Vec<(IndexTask, u32)>) -> Vec<Attempt> {
        let mut failed = Vec::new();
        let mut entries = Vec::with_capacity(2 * run.len());
        let mut maintained = Vec::new();
        for (task, attempts) in run {
            let IndexTask::Maintain { row, ts, is_delete, put_columns } = &task else {
                entries.push(Attempt { task, attempts, whole: true });
                continue;
            };
            match self.plan(cluster, row, *ts, *is_delete, put_columns) {
                Ok(planned) => {
                    maintained.push(*ts);
                    entries.extend(planned.map(|task| Attempt { task, attempts, whole: false }));
                }
                Err(_) => failed.push(Attempt { task, attempts, whole: true }),
            }
        }
        failed.extend(maintain::write_entries(cluster, &self.spec, entries));
        let now = wall_ms();
        for ts in maintained {
            self.metrics.record_lag(now.saturating_sub(ts));
        }
        failed
    }

    /// BA2 of one `Maintain` task, and the BA3 delete and BA4 put it plans.
    fn plan(
        &self,
        cluster: &Cluster,
        row: &[u8],
        ts: u64,
        is_delete: bool,
        put_columns: &[ColumnValue],
    ) -> crate::error::Result<impl Iterator<Item = IndexTask>> {
        let spec = &self.spec;
        let new =
            if is_delete { None } else { maintain::values_at(cluster, spec, row, put_columns, ts)? };
        let old = maintain::old_entry(cluster, spec, row, new.as_deref(), old_entry_ts(cluster, ts))?;
        Ok(old.into_iter().chain(maintain::new_entry(row, new.as_deref(), ts)))
    }
}

/// One task's part in a run: the task, or an entry planned from it, with
/// the task's failed attempts so far.
struct Attempt {
    task: IndexTask,
    attempts: u32,
    /// True if `task` is the popped task itself, so that its failure puts
    /// the whole task back.
    whole: bool,
}

impl Borrow<IndexTask> for Attempt {
    fn borrow(&self) -> &IndexTask {
        &self.task
    }
}

impl Drop for Auq {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn wall_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::index_row;
    use crate::spec::IndexScheme;
    use diff_index_cluster::{ClusterOptions, Cluster};
    use tempdir_lite::TempDir;

    fn setup() -> (TempDir, Cluster, Arc<IndexSpec>, Arc<Auq>) {
        let dir = TempDir::new("auq").unwrap();
        let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
        cluster.create_table("base", 2).unwrap();
        let spec = Arc::new(IndexSpec::single("byname", "base", "name", IndexScheme::AsyncSimple));
        cluster.create_table(&spec.index_table(), 2).unwrap();
        let auq = Auq::start(cluster.downgrade(), Arc::clone(&spec));
        (dir, cluster, spec, auq)
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn maintain_inserts_new_index_entry() {
        let (_d, cluster, spec, auq) = setup();
        let ts = cluster.put("base", b"r1", &[(b("name"), b("alice"))]).unwrap();
        auq.enqueue(IndexTask::Maintain { row: b("r1"), ts, is_delete: false, put_columns: vec![(b("name"), b("alice"))] });
        auq.wait_idle();
        let key = index_row(&[b("alice")], b"r1");
        let got = cluster.get(&spec.index_table(), &key, b"", u64::MAX).unwrap();
        assert_eq!(got.unwrap().ts, ts, "index entry carries the base timestamp");
        assert_eq!(auq.metrics().completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn maintain_deletes_old_entry_on_update() {
        let (_d, cluster, spec, auq) = setup();
        let t1 = cluster.put("base", b"r1", &[(b("name"), b("alice"))]).unwrap();
        auq.enqueue(IndexTask::Maintain { row: b("r1"), ts: t1, is_delete: false, put_columns: vec![(b("name"), b("alice"))] });
        auq.wait_idle();
        let t2 = cluster.put("base", b"r1", &[(b("name"), b("bob"))]).unwrap();
        auq.enqueue(IndexTask::Maintain { row: b("r1"), ts: t2, is_delete: false, put_columns: vec![(b("name"), b("bob"))] });
        auq.wait_idle();
        let idx = spec.index_table();
        let old_key = index_row(&[b("alice")], b"r1");
        let new_key = index_row(&[b("bob")], b"r1");
        assert!(cluster.get(&idx, &old_key, b"", u64::MAX).unwrap().is_none());
        assert!(cluster.get(&idx, &new_key, b"", u64::MAX).unwrap().is_some());
    }

    #[test]
    fn maintain_handles_base_delete() {
        let (_d, cluster, spec, auq) = setup();
        let t1 = cluster.put("base", b"r1", &[(b("name"), b("alice"))]).unwrap();
        auq.enqueue(IndexTask::Maintain { row: b("r1"), ts: t1, is_delete: false, put_columns: vec![(b("name"), b("alice"))] });
        auq.wait_idle();
        let t2 = cluster.delete("base", b"r1", &[b("name")]).unwrap();
        auq.enqueue(IndexTask::Maintain { row: b("r1"), ts: t2, is_delete: true, put_columns: vec![] });
        auq.wait_idle();
        let old_key = index_row(&[b("alice")], b"r1");
        assert!(cluster.get(&spec.index_table(), &old_key, b"", u64::MAX).unwrap().is_none());
    }

    #[test]
    fn unchanged_value_does_not_delete_fresh_entry() {
        // Re-putting the SAME value: DI must be skipped (or the paper's δ
        // protects it); the entry must survive.
        let (_d, cluster, spec, auq) = setup();
        let t1 = cluster.put("base", b"r1", &[(b("name"), b("alice"))]).unwrap();
        auq.enqueue(IndexTask::Maintain { row: b("r1"), ts: t1, is_delete: false, put_columns: vec![(b("name"), b("alice"))] });
        auq.wait_idle();
        let t2 = cluster.put("base", b"r1", &[(b("name"), b("alice"))]).unwrap();
        auq.enqueue(IndexTask::Maintain { row: b("r1"), ts: t2, is_delete: false, put_columns: vec![(b("name"), b("alice"))] });
        auq.wait_idle();
        let key = index_row(&[b("alice")], b"r1");
        let got = cluster.get(&spec.index_table(), &key, b"", u64::MAX).unwrap();
        assert!(got.is_some(), "index entry for unchanged value must survive");
    }

    #[test]
    fn redelivery_is_idempotent() {
        let (_d, cluster, spec, auq) = setup();
        let ts = cluster.put("base", b"r1", &[(b("name"), b("alice"))]).unwrap();
        for _ in 0..3 {
            auq.enqueue(IndexTask::Maintain { row: b("r1"), ts, is_delete: false, put_columns: vec![(b("name"), b("alice"))] });
        }
        auq.wait_idle();
        let hits = cluster
            .scan_rows_prefix(&spec.index_table(), &crate::encoding::value_prefix(b"alice"), u64::MAX, 100)
            .unwrap();
        assert_eq!(hits.len(), 1, "same-timestamp re-delivery adds nothing");
    }

    #[test]
    fn pause_blocks_enqueue_until_resume() {
        let (_d, cluster, _spec, auq) = setup();
        let ts = cluster.put("base", b"r1", &[(b("name"), b("x"))]).unwrap();
        auq.pause_and_drain();
        let auq2 = Arc::clone(&auq);
        let handle = std::thread::spawn(move || {
            auq2.enqueue(IndexTask::Maintain { row: b("r1"), ts, is_delete: false, put_columns: vec![(b("name"), b("alice"))] });
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished(), "enqueue must block while paused");
        auq.resume();
        handle.join().unwrap();
        auq.wait_idle();
        assert_eq!(auq.metrics().completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drain_completes_all_pending_work() {
        let (_d, cluster, spec, auq) = setup();
        let mut expected = Vec::new();
        for i in 0..50 {
            let row = format!("row{i}");
            let val = format!("val{i}");
            let ts = cluster.put("base", row.as_bytes(), &[(b("name"), b(&val))]).unwrap();
            auq.enqueue(IndexTask::Maintain { row: b(&row), ts, is_delete: false, put_columns: vec![(b("name"), b(&val))] });
            expected.push((val, row));
        }
        auq.pause_and_drain();
        assert_eq!(auq.depth(), 0);
        for (val, row) in &expected {
            let key = index_row(&[b(val)], row.as_bytes());
            assert!(
                cluster.get(&spec.index_table(), &key, b"", u64::MAX).unwrap().is_some(),
                "drained queue must have delivered {val}"
            );
        }
        auq.resume();
    }

    #[test]
    fn failing_tasks_retry_and_eventually_drop() {
        let (_d, cluster, _spec, auq) = setup();
        // Target table rows route fine, but the index table for this AUQ
        // exists — so force failure by crashing the only... simpler: point a
        // fresh AUQ at a spec whose index table does not exist.
        let bad_spec =
            Arc::new(IndexSpec::single("ghost", "base", "name", IndexScheme::AsyncSimple));
        let bad = Auq::start(cluster.downgrade(), bad_spec);
        let ts = cluster.put("base", b"r1", &[(b("name"), b("v"))]).unwrap();
        bad.enqueue(IndexTask::Maintain { row: b("r1"), ts, is_delete: false, put_columns: vec![(b("name"), b("alice"))] });
        bad.wait_idle();
        assert_eq!(bad.metrics().dropped.load(Ordering::Relaxed), 1);
        assert!(bad.metrics().retries.load(Ordering::Relaxed) >= 1);
        drop(auq);
    }

    #[test]
    fn put_index_and_delete_index_retries() {
        let (_d, cluster, spec, auq) = setup();
        let key = index_row(&[b("v")], b"r9");
        auq.enqueue(IndexTask::PutIndex { index_row: key.clone(), ts: 500 });
        auq.wait_idle();
        assert_eq!(cluster.get(&spec.index_table(), &key, b"", u64::MAX).unwrap().unwrap().ts, 500);
        auq.enqueue(IndexTask::DeleteIndex { index_row: key.clone(), ts: 501 });
        auq.wait_idle();
        assert!(cluster.get(&spec.index_table(), &key, b"", u64::MAX).unwrap().is_none());
    }

    #[test]
    fn lag_metrics_are_recorded() {
        let (_d, cluster, _spec, auq) = setup();
        let ts = cluster.put("base", b"r1", &[(b("name"), b("v"))]).unwrap();
        auq.enqueue(IndexTask::Maintain { row: b("r1"), ts, is_delete: false, put_columns: vec![(b("name"), b("alice"))] });
        auq.wait_idle();
        assert_eq!(auq.metrics().completed.load(Ordering::Relaxed), 1);
        // Lag is wall-clock based; just check it is sane (< 10 s).
        assert!(auq.metrics().mean_lag_ms() < 10_000.0);
    }

    #[test]
    fn stalled_workers_resume_when_cleared() {
        let (_d, cluster, _spec, auq) = setup();
        auq.set_stalled(true);
        assert!(auq.state.lock().stalled);
        let ts = cluster.put("base", b"r1", &[(b("name"), b("v"))]).unwrap();
        auq.enqueue(IndexTask::Maintain {
            row: b("r1"),
            ts,
            is_delete: false,
            put_columns: vec![(b("name"), b("v"))],
        });
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(auq.metrics().completed.load(Ordering::Relaxed), 0, "stalled");
        assert_eq!(auq.depth(), 1);
        assert_eq!(auq.metrics().high_watermark.load(Ordering::Relaxed), 1);
        auq.set_stalled(false);
        auq.wait_idle();
        assert_eq!(auq.metrics().completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pause_and_drain_overrides_stall() {
        let (_d, cluster, _spec, auq) = setup();
        let ts = cluster.put("base", b"r1", &[(b("name"), b("v"))]).unwrap();
        auq.set_stalled(true);
        auq.enqueue(IndexTask::Maintain {
            row: b("r1"),
            ts,
            is_delete: false,
            put_columns: vec![(b("name"), b("v"))],
        });
        // A flush drain must complete even while the workers are stalled,
        // or every flush under chaos would deadlock.
        auq.pause_and_drain();
        assert_eq!(auq.depth(), 0);
        assert_eq!(auq.metrics().completed.load(Ordering::Relaxed), 1);
        auq.resume();
        auq.set_stalled(false);
    }

    #[test]
    fn shutdown_stops_worker() {
        let (_d, _cluster, _spec, auq) = setup();
        auq.shutdown();
        // Enqueue after shutdown is a no-op, not a hang.
        auq.enqueue(IndexTask::PutIndex { index_row: b("x"), ts: 1 });
        assert_eq!(auq.metrics().enqueued.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn async_put_queues_only_the_indexed_columns() {
        // The AUQ entry is the paper's ⟨k, vnew, tnew⟩: columns the index
        // does not cover stay out of the queue.
        let (_d, cluster, spec, _auq) = setup();
        let observer = Arc::new(crate::observers::IndexObserver::new(&cluster, Arc::clone(&spec)));
        let auq = Arc::clone(observer.auq());
        cluster.register_observer("base", observer).unwrap();
        auq.set_stalled(true);
        let filler = Bytes::from(vec![b'x'; 100]);
        cluster.put("base", b"r1", &[(b("name"), b("alice")), (b("filler"), filler)]).unwrap();
        match &auq.state.lock().queue.front().expect("the put is queued").0 {
            IndexTask::Maintain { put_columns, .. } => {
                assert_eq!(put_columns, &vec![(b("name"), b("alice"))]);
            }
            other => panic!("expected a Maintain task, got {other:?}"),
        }
        auq.set_stalled(false);
        auq.wait_idle();
        let key = index_row(&[b("alice")], b"r1");
        assert!(cluster.get(&spec.index_table(), &key, b"", u64::MAX).unwrap().is_some());
    }

    fn maintain_task(i: usize) -> IndexTask {
        IndexTask::Maintain {
            row: b(&format!("row{i}")),
            ts: 100 + i as u64,
            is_delete: false,
            put_columns: vec![(b("name"), b(&format!("val{i}")))],
        }
    }

    #[test]
    fn recovery_hold_wedges_worker_but_intake_stays_open() {
        let (_d, _cluster, _spec, auq) = setup();
        auq.hold_for_recovery();
        assert!(auq.state.lock().held);
        // Intake stays open inside the recovery window (§5.3 blocks the
        // *processing*, not the WAL-replay re-enqueues).
        auq.enqueue(maintain_task(0));
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(auq.metrics().completed.load(Ordering::Relaxed), 0, "worker held");
        assert_eq!(auq.depth(), 1);
        auq.release_recovery_hold();
        assert!(!auq.state.lock().held);
        auq.wait_idle();
        assert_eq!(auq.metrics().completed.load(Ordering::Relaxed), 1);
        assert_eq!(auq.metrics().recovery_holds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pause_and_drain_overrides_recovery_hold() {
        let (_d, _cluster, _spec, auq) = setup();
        auq.hold_for_recovery();
        auq.enqueue(maintain_task(0));
        // A flush drain must complete even while a recovery hold is set, for
        // the same reason it overrides a stall.
        auq.pause_and_drain();
        assert_eq!(auq.depth(), 0);
        assert_eq!(auq.metrics().completed.load(Ordering::Relaxed), 1);
        auq.resume();
        auq.release_recovery_hold();
    }

    /// A two-server cluster: the base table on server 0, index region 0 on
    /// server 0 and index region 1 (values from 0x80 up) on server 1. One
    /// first-attempt `Maintain` task per value, for rows `r00`, `r01`, …,
    /// is admitted as one run once server `dead` has crashed.
    fn run_against_a_dead_server(
        values: &[Bytes],
        dead: diff_index_cluster::ServerId,
    ) -> (TempDir, Cluster, Arc<IndexSpec>, Arc<Auq>, Vec<u64>) {
        let dir = TempDir::new("auq").unwrap();
        let opts = ClusterOptions { num_servers: 2, ..ClusterOptions::default() };
        let cluster = Cluster::new(dir.path(), opts).unwrap();
        cluster.create_table("base", 1).unwrap();
        let spec = Arc::new(IndexSpec::single("byname", "base", "name", IndexScheme::AsyncSimple));
        cluster.create_table(&spec.index_table(), 2).unwrap();
        let auq = Auq::start(cluster.downgrade(), Arc::clone(&spec));
        let (tasks, ts): (Vec<IndexTask>, Vec<u64>) = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let row = b(&format!("r{i:02}"));
                let put_columns = vec![(b("name"), v.clone())];
                let ts = cluster.put("base", &row, &put_columns).unwrap();
                (IndexTask::Maintain { row, ts, is_delete: false, put_columns }, ts)
            })
            .unzip();
        cluster.crash_server(dead);
        auq.set_stalled(true);
        auq.enqueue_many(tasks);
        auq.set_stalled(false);
        (dir, cluster, spec, auq, ts)
    }

    /// Wait until a failed run has requeued its retries and the worker is
    /// backing off, then stall it there: nothing is in flight and the
    /// queue holds exactly what the last run put back.
    fn stall_after_a_failed_run(auq: &Auq) -> parking_lot::MutexGuard<'_, State> {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let mut s = auq.state.lock();
            if auq.metrics().retries.load(Ordering::Relaxed) > 0 && s.in_flight == 0 {
                s.stalled = true;
                return s;
            }
            drop(s);
            assert!(std::time::Instant::now() < deadline, "no run ever failed");
            std::thread::yield_now();
        }
    }

    fn index_entry(cluster: &Cluster, spec: &IndexSpec, value: &Bytes, row: usize) -> bool {
        let key = index_row(std::slice::from_ref(value), format!("r{row:02}").as_bytes());
        cluster.get(&spec.index_table(), &key, b"", u64::MAX).unwrap().is_some()
    }

    #[test]
    fn a_wedge_stops_the_rest_of_a_failed_run() {
        // Every entry indexes into the dead region 1.
        let n = 16;
        let values: Vec<Bytes> = (0..n).map(|i| Bytes::from(vec![0x90, b'a' + i as u8])).collect();
        let (_d, cluster, spec, auq, _) = run_against_a_dead_server(&values, 1);
        let m = auq.metrics();
        let s = stall_after_a_failed_run(&auq);
        // Each run put all sixteen entries back, one attempt older.
        let tried = m.retries.load(Ordering::Relaxed);
        let runs = tried / n as u64;
        assert_eq!(tried, runs * n as u64);
        assert_eq!(s.queue.len(), n);
        assert!(s
            .queue
            .iter()
            .all(|(task, attempts)| matches!(task, IndexTask::PutIndex { .. })
                && u64::from(*attempts) == runs));
        drop(s);
        // Every failing run backs off 5-10 ms; a worker that ignored the
        // wedge would run again within this sleep.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(m.retries.load(Ordering::Relaxed), tried, "no attempt while wedged");
        assert_eq!(auq.state.lock().in_flight, 0);

        cluster.recover().unwrap();
        auq.set_stalled(false);
        auq.wait_idle();
        // The sixteen Maintain tasks, then the sixteen entries they left.
        assert_eq!(m.completed.load(Ordering::Relaxed) as usize, 2 * n);
        assert_eq!(m.dropped.load(Ordering::Relaxed), 0);
        assert!((0..n).all(|i| index_entry(&cluster, &spec, &values[i], i)));
    }

    #[test]
    fn a_failing_task_leaves_the_rest_of_its_run_to_complete_first_time() {
        // Values below 0x80 index into region 0; the last one into the dead
        // region 1.
        let values: Vec<Bytes> = (0..5u8)
            .map(|i| Bytes::from(vec![if i == 4 { 0x90 } else { b'a' + i }, b'v']))
            .collect();
        let (_d, cluster, spec, auq, ts) = run_against_a_dead_server(&values, 1);
        let m = auq.metrics();
        {
            // Only r04's entry came back, as a `PutIndex` retry: every retry
            // so far is its own, one per failed run.
            let s = stall_after_a_failed_run(&auq);
            let dead = IndexTask::PutIndex { index_row: index_row(&values[4..], b"r04"), ts: ts[4] };
            let retries = m.retries.load(Ordering::Relaxed) as u32;
            assert_eq!(s.queue.iter().cloned().collect::<Vec<_>>(), vec![(dead, retries)]);
            // The five tasks ran once each; the healthy four landed. All
            // five read their pre-image, so all five carry a lag sample.
            assert_eq!(m.completed.load(Ordering::Relaxed), 5);
            assert_eq!(m.lag_samples.load(Ordering::Relaxed), 5);
            assert!((0..4).all(|i| index_entry(&cluster, &spec, &values[i], i)));
        }

        cluster.recover().unwrap();
        auq.set_stalled(false);
        auq.wait_idle();
        assert_eq!(m.completed.load(Ordering::Relaxed), 6, "the five tasks and r04's entry");
        // The retried entry completed without a lag sample: the mean is
        // over the five samples, not the six completions.
        assert_eq!(m.lag_samples.load(Ordering::Relaxed), 5);
        let mean = m.lag_sum_ms.load(Ordering::Relaxed) as f64 / 5.0;
        assert_eq!(m.mean_lag_ms(), mean);
        assert_eq!(m.dropped.load(Ordering::Relaxed), 0);
        assert!(index_entry(&cluster, &spec, &values[4], 4));
    }

    #[test]
    fn a_failed_pre_image_read_puts_the_whole_task_back() {
        // The base region is on the dead server 0: every BA2 read fails.
        let values: Vec<Bytes> = (0..4u8).map(|i| Bytes::from(vec![b'a' + i, 0x90])).collect();
        let (_d, cluster, spec, auq, ts) = run_against_a_dead_server(&values, 0);
        let m = auq.metrics();
        {
            let s = stall_after_a_failed_run(&auq);
            let retries = m.retries.load(Ordering::Relaxed);
            assert_eq!(s.queue.len(), values.len());
            for (i, (task, attempts)) in s.queue.iter().enumerate() {
                assert!(matches!(task, IndexTask::Maintain { ts: t, .. } if *t == ts[i]));
                assert_eq!(u64::from(*attempts) * values.len() as u64, retries);
            }
            assert_eq!(m.completed.load(Ordering::Relaxed), 0);
        }

        cluster.recover().unwrap();
        auq.set_stalled(false);
        auq.wait_idle();
        assert_eq!(m.completed.load(Ordering::Relaxed), values.len() as u64);
        assert_eq!(m.dropped.load(Ordering::Relaxed), 0);
        assert!((0..values.len()).all(|i| index_entry(&cluster, &spec, &values[i], i)));
    }
}
