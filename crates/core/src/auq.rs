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
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on re-delivery attempts for a failing task. The paper retries
/// "until eventually success"; a bound keeps a permanently broken cluster
/// from spinning forever, and is generous enough to survive any transient
/// unavailability window (e.g. a crashed server awaiting recovery).
const MAX_RETRIES: u32 = 64;

/// Most first-attempt `Maintain` tasks the APS takes as one run: their BA2
/// reads, then all their BA3 deletes and BA4 puts as one index write per
/// index region. Bounds the work a flush drain can find in flight.
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
    /// How many tasks at the front of `queue` are the unrun rest of a failed
    /// run, put back by a wedge: they run one at a time, never as a run.
    solo: usize,
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
    /// Sum of (completion wall time − base timestamp) in ms.
    pub lag_sum_ms: AtomicU64,
    /// Maximum observed lag in ms.
    pub lag_max_ms: AtomicU64,
    /// Synchronous index updates whose SU2 (new-entry put) and SU3/SU4
    /// (pre-image read + old-entry delete) arms were dispatched in parallel.
    pub fanout_dispatches: AtomicU64,
    /// Total parallel sub-operations those dispatches fanned out.
    pub fanout_tasks: AtomicU64,
    /// Deepest queue depth ever observed (after an admission).
    pub high_watermark: AtomicU64,
    /// §5.3 recovery windows this queue was held through (AUQ handover).
    pub recovery_holds: AtomicU64,
}

impl AuqMetrics {
    fn record_lag(&self, lag_ms: u64) {
        self.lag_sum_ms.fetch_add(lag_ms, Ordering::Relaxed);
        self.lag_max_ms.fetch_max(lag_ms, Ordering::Relaxed);
    }

    /// Mean index-after-data lag over completed `Maintain` tasks, in ms.
    pub fn mean_lag_ms(&self) -> f64 {
        let n = self.completed.load(Ordering::Relaxed);
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
                solo: 0,
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

    /// Add a batch of tasks under one queue lock with a single worker
    /// wake-up. The blocking-while-paused contract matches [`Auq::enqueue`];
    /// the whole batch is admitted at once, so a flush drain never splits
    /// the tasks of one base operation across a pause boundary.
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
        self.cv.notify_all();
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

    /// True while [`Auq::set_stalled`] has the worker wedged.
    pub fn is_stalled(&self) -> bool {
        self.state.lock().stalled
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

    /// True while a recovery window holds the worker.
    pub fn is_held(&self) -> bool {
        self.state.lock().held
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

    fn aps_loop(&self) {
        loop {
            let run = {
                let mut s = self.state.lock();
                loop {
                    if s.shutdown {
                        return;
                    }
                    if !s.wedged() {
                        let run = pop_run(&mut s);
                        if !run.is_empty() {
                            s.in_flight += run.len();
                            break run;
                        }
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
            if run.len() > 1 && self.execute(&cluster, &run).is_ok() {
                let mut s = self.state.lock();
                s.in_flight -= run.len();
                for (task, _) in &run {
                    self.record_completion(task);
                }
                self.cv.notify_all();
                continue;
            }
            // A single task, or a run that failed somewhere: one task at a
            // time, each with its own retry count and backoff. Writes the
            // run already landed are re-done idempotently (same timestamps).
            // A stall or hold set meanwhile stops it before the next task:
            // the untried rest goes back to the front of the queue, attempts
            // unchanged, to run one at a time once the wedge lifts.
            let mut rest = run.into_iter();
            while rest.len() > 0 {
                let mut s = self.state.lock();
                if s.wedged() {
                    s.in_flight -= rest.len();
                    s.solo += rest.len();
                    for item in rest.rev() {
                        s.queue.push_front(item);
                    }
                    self.cv.notify_all();
                    break;
                }
                drop(s);
                let item = rest.next().expect("rest is not empty");
                let outcome = self.execute(&cluster, std::slice::from_ref(&item));
                self.settle(item, outcome);
            }
        }
    }

    fn record_completion(&self, task: &IndexTask) {
        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
        if let IndexTask::Maintain { ts, .. } = task {
            self.metrics.record_lag(wall_ms().saturating_sub(*ts));
        }
    }

    /// Account for one executed task: done, queued again for another
    /// attempt after a backoff, or dropped once out of retries.
    fn settle(&self, (task, attempts): (IndexTask, u32), outcome: crate::error::Result<()>) {
        let mut s = self.state.lock();
        s.in_flight -= 1;
        match outcome {
            Ok(()) => self.record_completion(&task),
            Err(_) if attempts + 1 < MAX_RETRIES => {
                self.metrics.retries.fetch_add(1, Ordering::Relaxed);
                s.queue.push_back((task, attempts + 1));
                // Back off before the next attempt so a transiently
                // unavailable region (crashed server awaiting master
                // recovery) gets time to come back. Capped so that a
                // drain waiting on a doomed task is bounded.
                let backoff = Duration::from_millis((5u64 << attempts.min(5)).min(150));
                drop(s);
                std::thread::sleep(backoff);
            }
            Err(_) => {
                self.metrics.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.cv.notify_all();
    }

    /// Execute tasks against the cluster, all their index writes as one
    /// `raw_write`. `Maintain` is Algorithm 4: BA2 read the pre-image, BA3
    /// delete the old index entry, BA4 insert the new one; `PutIndex` and
    /// `DeleteIndex` are entry writes already. Any failed read or write
    /// fails the whole call.
    fn execute(&self, cluster: &Cluster, tasks: &[(IndexTask, u32)]) -> crate::error::Result<()> {
        let spec = &self.spec;
        let mut entries = Vec::with_capacity(2 * tasks.len());
        for (task, _) in tasks {
            match task {
                IndexTask::Maintain { row, ts, is_delete, put_columns } => {
                    let new = if *is_delete {
                        None
                    } else {
                        maintain::values_at(cluster, spec, row, put_columns, *ts)?
                    };
                    let old_ts = old_entry_ts(cluster, *ts);
                    let old = maintain::old_entry(cluster, spec, row, new.as_deref(), old_ts)?;
                    entries.extend(old);
                    entries.extend(maintain::new_entry(row, new.as_deref(), *ts));
                }
                entry => entries.push(entry.clone()),
            }
        }
        maintain::write_entries(cluster, spec, entries).1.map_or(Ok(()), |e| Err(e.into()))
    }
}

/// Pop the next run: the front task alone if it is the rest of a failed run
/// ([`State::solo`]), else the longest prefix of first-attempt `Maintain`
/// tasks, up to [`MAX_RUN`], or else the one task at the front.
fn pop_run(s: &mut State) -> Vec<(IndexTask, u32)> {
    let batchable = |item: &(IndexTask, u32)| matches!(item, (IndexTask::Maintain { .. }, 0));
    let n = if s.solo > 0 {
        s.solo -= 1;
        1
    } else {
        match s.queue.iter().take(MAX_RUN).position(|item| !batchable(item)) {
            Some(0) => 1,
            Some(n) => n,
            None => s.queue.len().min(MAX_RUN),
        }
    };
    s.queue.drain(..n).collect()
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
        assert!(auq.is_stalled());
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
        assert!(auq.is_held());
        // Intake stays open inside the recovery window (§5.3 blocks the
        // *processing*, not the WAL-replay re-enqueues).
        auq.enqueue(maintain_task(0));
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(auq.metrics().completed.load(Ordering::Relaxed), 0, "worker held");
        assert_eq!(auq.depth(), 1);
        auq.release_recovery_hold();
        assert!(!auq.is_held());
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

    #[test]
    fn the_rest_of_a_wedged_run_pops_one_task_at_a_time() {
        let mut s = State {
            queue: (0..4).map(|i| (maintain_task(i), 0)).collect(),
            paused: false,
            in_flight: 0,
            shutdown: false,
            held: false,
            stalled: false,
            solo: 2,
        };
        let sizes: Vec<usize> = std::iter::from_fn(|| {
            let run = pop_run(&mut s);
            (!run.is_empty()).then_some(run.len())
        })
        .collect();
        assert_eq!(sizes, vec![1, 1, 2], "two solo tasks, then a run of the rest");
    }

    #[test]
    fn a_wedge_stops_the_rest_of_a_failed_run() {
        // Base on server 0; every entry indexes into region 1 (server 1).
        let dir = TempDir::new("auq").unwrap();
        let opts = ClusterOptions { num_servers: 2, ..ClusterOptions::default() };
        let cluster = Cluster::new(dir.path(), opts).unwrap();
        cluster.create_table("base", 1).unwrap();
        let spec = Arc::new(IndexSpec::single("byname", "base", "name", IndexScheme::AsyncSimple));
        cluster.create_table(&spec.index_table(), 2).unwrap();
        let auq = Auq::start(cluster.downgrade(), Arc::clone(&spec));
        let n = 16;
        let tasks: Vec<IndexTask> = (0..n)
            .map(|i| {
                let row = b(&format!("r{i:02}"));
                let put_columns = vec![(b("name"), Bytes::from(vec![0x90, b'a' + i as u8]))];
                let ts = cluster.put("base", &row, &put_columns).unwrap();
                IndexTask::Maintain { row, ts, is_delete: false, put_columns }
            })
            .collect();
        cluster.crash_server(1);

        // One run of sixteen tasks, all failing. Wedge the worker once the
        // one-at-a-time fallback has started.
        auq.set_stalled(true);
        auq.enqueue_many(tasks);
        auq.set_stalled(false);
        let m = auq.metrics();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while m.retries.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "the run never failed");
            std::thread::yield_now();
        }
        auq.set_stalled(true);
        // Every failing attempt backs off 5 ms; a worker that ignored the
        // wedge would go through all sixteen within this sleep.
        std::thread::sleep(Duration::from_millis(300));
        let tried = m.retries.load(Ordering::Relaxed) as usize;
        assert!(tried < n, "the fallback ran on while wedged ({tried} attempts)");
        {
            let s = auq.state.lock();
            assert_eq!((s.in_flight, s.queue.len(), s.solo), (0, n, n - tried));
            // The untried rest is at the front with its attempts unchanged.
            assert!(s.queue.iter().take(n - tried).all(|(_, attempts)| *attempts == 0));
        }
        assert_eq!(m.retries.load(Ordering::Relaxed) as usize, tried, "no attempt while wedged");

        cluster.recover().unwrap();
        auq.set_stalled(false);
        auq.wait_idle();
        assert_eq!(m.completed.load(Ordering::Relaxed) as usize, n);
        assert_eq!(m.dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_failing_task_leaves_the_rest_of_its_run_to_complete_first_time() {
        // Base on server 0; index regions 0 (server 0) and 1 (server 1).
        let dir = TempDir::new("auq").unwrap();
        let opts = ClusterOptions { num_servers: 2, ..ClusterOptions::default() };
        let cluster = Cluster::new(dir.path(), opts).unwrap();
        cluster.create_table("base", 1).unwrap();
        let spec = Arc::new(IndexSpec::single("byname", "base", "name", IndexScheme::AsyncSimple));
        cluster.create_table(&spec.index_table(), 2).unwrap();
        let auq = Auq::start(cluster.downgrade(), Arc::clone(&spec));
        // Values below 0x80 index into region 0; the last one into region 1.
        let values: Vec<Bytes> = (0..5u8)
            .map(|i| Bytes::from(vec![if i == 4 { 0x90 } else { b'a' + i }, b'v']))
            .collect();
        let tasks: Vec<IndexTask> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let row = b(&format!("r{i}"));
                let put_columns = vec![(b("name"), v.clone())];
                let ts = cluster.put("base", &row, &put_columns).unwrap();
                IndexTask::Maintain { row, ts, is_delete: false, put_columns }
            })
            .collect();
        cluster.crash_server(1);

        // One run of five first-attempt tasks.
        auq.set_stalled(true);
        auq.enqueue_many(tasks);
        auq.set_stalled(false);
        let m = auq.metrics();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            // Every retry so far is the failing task's own: its count
            // advances once per attempt.
            let s = auq.state.lock();
            let retried = m.retries.load(Ordering::Relaxed) > 0;
            if let Some((IndexTask::Maintain { row, .. }, attempts)) =
                s.queue.front().filter(|_| retried)
            {
                assert_eq!(row, &b("r4"));
                assert_eq!(*attempts as u64, m.retries.load(Ordering::Relaxed));
                if *attempts >= 3 {
                    break;
                }
            }
            drop(s);
            assert!(std::time::Instant::now() < deadline, "the failing task never retried");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.completed.load(Ordering::Relaxed), 4, "the others finish first time");
        for (i, v) in values.iter().take(4).enumerate() {
            let key = index_row(std::slice::from_ref(v), format!("r{i}").as_bytes());
            assert!(cluster.get(&spec.index_table(), &key, b"", u64::MAX).unwrap().is_some());
        }

        cluster.recover().unwrap();
        auq.wait_idle();
        assert_eq!(m.completed.load(Ordering::Relaxed), 5);
        assert_eq!(m.dropped.load(Ordering::Relaxed), 0);
        let key = index_row(&values[4..], b"r4");
        assert!(cluster.get(&spec.index_table(), &key, b"", u64::MAX).unwrap().is_some());
    }
}
