//! A small shared fan-out pool for parallelizing independent region
//! operations: observer dispatch across index specs, SU2 ∥ SU3/SU4 inside a
//! sync index update, and per-region stages of batched puts and raw writes.
//!
//! Why not one thread per task: an indexed put fans out 2–4 sub-operations
//! that each take tens to hundreds of microseconds, so a ~25 µs thread
//! spawn per sub-operation would eat the winnings. The pool keeps a fixed
//! set of workers and a submission queue instead.
//!
//! Deadlock freedom: tasks may themselves fan out (a batched put fans out
//! per region; each region's observers fan out per spec; each sync update
//! fans out SU2 vs SU3/SU4). A [`FanoutPool::run`] caller keeps its batch
//! in its own deque: free workers take tasks from it, and the caller runs
//! whatever is left itself. It then waits only on tasks another thread is
//! already running, each of which finishes by the same argument, so
//! nesting cannot exhaust the pool, even with zero workers.
//!
//! The caller never runs a job outside its own batch, such as a queued
//! client request or another caller's stage. A thread that other jobs may
//! be waiting on (an index's background worker in the middle of its
//! in-flight work, say) can therefore fan out safely.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signals workers that the queue is non-empty (or shutting down).
    work_cv: Condvar,
    shutdown: Mutex<bool>,
}

/// Fixed-size helper pool; cheap to clone, shuts down when the last clone
/// drops.
pub struct FanoutPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for FanoutPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutPool").field("workers", &self.workers.len()).finish()
    }
}

/// Per-batch completion state: results slots plus a done-count the caller
/// can wait on.
struct Batch<T> {
    results: Mutex<Vec<Option<T>>>,
    done: AtomicUsize,
    done_mutex: Mutex<()>,
    done_cv: Condvar,
}

impl FanoutPool {
    /// Pool sized for the host (between 2 and 8 workers).
    pub fn new_default() -> Self {
        let n = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
        Self::new(n.clamp(2, 8))
    }

    /// Pool with exactly `workers` background threads (0 is legal: every
    /// batch then runs on the thread that calls [`FanoutPool::run`]).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: Mutex::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fanout-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn fanout worker")
            })
            .collect();
        Self { shared, workers: handles }
    }

    /// Number of background worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submit one job without waiting for its completion — fire-and-forget
    /// dispatch. The network server pipelines per-connection requests this
    /// way: the connection reader thread keeps decoding frames while queued
    /// requests execute on the pool. Only workers run spawned jobs, so a
    /// zero-worker pool never runs them (the default pool always has ≥ 2).
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.shared.queue.lock().push_back(Box::new(job));
        self.shared.work_cv.notify_all();
    }

    /// Run every task, in parallel where workers are free, and return their
    /// results in task order. The caller runs whatever tasks of this batch
    /// no worker has taken and never any other queued job, so this
    /// completes even with every worker busy.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        if n <= 1 {
            return tasks.into_iter().map(|task| task()).collect();
        }
        let batch = Batch::new(n);
        let own: Arc<Mutex<VecDeque<(usize, F)>>> =
            Arc::new(Mutex::new(tasks.into_iter().enumerate().collect()));
        // One claim per worker that could help: a worker running a claim
        // takes this batch's tasks until none is left.
        {
            let mut queue = self.shared.queue.lock();
            for _ in 0..self.workers.len().min(n - 1) {
                let (own, batch) = (Arc::clone(&own), Arc::clone(&batch));
                queue.push_back(Box::new(move || drain(&own, &batch)));
            }
        }
        self.shared.work_cv.notify_all();
        drain(&own, &batch);
        while batch.done.load(Ordering::Acquire) < n {
            batch.wait_briefly(n);
        }
        batch.take_results()
    }
}

impl<T> Batch<T> {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Batch {
            results: Mutex::new((0..n).map(|_| None).collect()),
            done: AtomicUsize::new(0),
            done_mutex: Mutex::new(()),
            done_cv: Condvar::new(),
        })
    }

    /// Run task `index` and record its result. A panicking task must
    /// still count as done, or the caller would wait
    /// forever; the missing result panics on the *caller's* thread instead
    /// when collected.
    fn execute(&self, index: usize, task: impl FnOnce() -> T) {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
            Ok(v) => self.complete(index, v),
            Err(_) => self.abandon(),
        }
    }

    /// Park until a task of this batch (of `n`) completes, or 1 ms passes.
    fn wait_briefly(&self, n: usize) {
        let mut guard = self.done_mutex.lock();
        if self.done.load(Ordering::Acquire) < n {
            self.done_cv.wait_for(&mut guard, Duration::from_millis(1));
        }
    }

    fn take_results(&self) -> Vec<T> {
        let mut slots = self.results.lock();
        slots.iter_mut().map(|s| s.take().expect("fan-out task panicked")).collect()
    }

    fn complete(&self, index: usize, value: T) {
        self.results.lock()[index] = Some(value);
        self.bump_done();
    }

    /// Count a task as finished without a result (it panicked).
    fn abandon(&self) {
        self.bump_done();
    }

    fn bump_done(&self) {
        self.done.fetch_add(1, Ordering::Release);
        let _guard = self.done_mutex.lock();
        self.done_cv.notify_all();
    }
}

/// Run `own`'s tasks, recording them in `batch`, until none is left.
fn drain<T, F: FnOnce() -> T>(own: &Mutex<VecDeque<(usize, F)>>, batch: &Batch<T>) {
    loop {
        let next = own.lock().pop_front();
        let Some((i, task)) = next else { return };
        batch.execute(i, task);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock();
            queue.pop_front()
        };
        match job {
            Some(job) => job(),
            None => {
                let mut down = shared.shutdown.lock();
                if *down {
                    return;
                }
                // Re-check the queue under no lock-order hazard: a producer
                // enqueues then notifies, so a missed wakeup only costs one
                // timeout tick.
                shared.work_cv.wait_for(&mut down, Duration::from_millis(10));
                if *down {
                    return;
                }
            }
        }
    }
}

impl Drop for FanoutPool {
    fn drop(&mut self) {
        *self.shared.shutdown.lock() = true;
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_tasks_and_preserves_order() {
        let pool = FanoutPool::new(4);
        let out = pool.run((0..32).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = FanoutPool::new(2);
        assert_eq!(pool.run(Vec::<fn() -> u32>::new()), Vec::<u32>::new());
        assert_eq!(pool.run(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn zero_worker_pool_still_completes() {
        let pool = FanoutPool::new(0);
        let out = pool.run((0..8).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(out.len(), 8);
        assert_eq!(out[7], 8);
    }

    #[test]
    fn zero_worker_run_leaves_nothing_queued() {
        // No worker could take a claim, so a run queues none.
        let pool = FanoutPool::new(0);
        pool.run((0..4).map(|i| move || i).collect::<Vec<_>>());
        assert!(pool.shared.queue.lock().is_empty());
    }

    #[test]
    fn nested_fanout_does_not_deadlock() {
        let pool = Arc::new(FanoutPool::new(2));
        // Each outer task fans out again; with 2 workers and 4 outer tasks
        // the inner batches can only finish if each caller runs whatever of
        // its own batch no worker has taken.
        let outer: Vec<_> = (0..4)
            .map(|i| {
                let pool = Arc::clone(&pool);
                move || {
                    let inner = pool.run((0..4).map(|j| move || i * 10 + j).collect::<Vec<_>>());
                    inner.into_iter().sum::<i32>()
                }
            })
            .collect();
        let sums = pool.run(outer);
        assert_eq!(sums, vec![6, 46, 86, 126]);
    }

    #[test]
    fn tasks_actually_run_concurrently() {
        let pool = FanoutPool::new(4);
        let t0 = std::time::Instant::now();
        pool.run(
            (0..4)
                .map(|_| move || std::thread::sleep(Duration::from_millis(40)))
                .collect::<Vec<_>>(),
        );
        // Serial would be 160 ms; parallel should be well under 120 ms.
        assert!(
            t0.elapsed() < Duration::from_millis(120),
            "fan-out took {:?}, expected parallel execution",
            t0.elapsed()
        );
    }

    #[test]
    fn spawned_jobs_run_without_a_waiting_caller() {
        let pool = FanoutPool::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let t0 = std::time::Instant::now();
        while hits.load(Ordering::SeqCst) < 16 {
            assert!(t0.elapsed() < Duration::from_secs(5), "spawned jobs never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A zero-worker pool with one spawned job queued: the job could only
    /// run if a `run` caller ran a foreign job. Returns the pool and the
    /// job's run count.
    fn pool_with_a_queued_foreign_job() -> (Arc<FanoutPool>, Arc<AtomicUsize>) {
        let pool = Arc::new(FanoutPool::new(0));
        let foreign = Arc::new(AtomicUsize::new(0));
        let hit = Arc::clone(&foreign);
        pool.spawn(move || {
            hit.fetch_add(1, Ordering::SeqCst);
        });
        (pool, foreign)
    }

    #[test]
    fn run_never_runs_a_foreign_job() {
        let (pool, foreign) = pool_with_a_queued_foreign_job();
        let out = pool.run((0..4).map(|i| move || i * 3).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 3, 6, 9]);
        assert_eq!(foreign.load(Ordering::SeqCst), 0, "the caller ran a foreign job");
    }

    #[test]
    fn nested_run_never_runs_a_foreign_job() {
        let (pool, foreign) = pool_with_a_queued_foreign_job();
        let outer: Vec<_> = (0..2)
            .map(|i| {
                let pool = Arc::clone(&pool);
                move || {
                    let inner = pool.run((0..3).map(|j| move || i * 10 + j).collect::<Vec<_>>());
                    inner.into_iter().sum::<i32>()
                }
            })
            .collect();
        assert_eq!(pool.run(outer), vec![3, 33]);
        assert_eq!(foreign.load(Ordering::SeqCst), 0, "a nested caller ran a foreign job");
    }

    #[test]
    fn panicking_task_does_not_wedge_other_batches() {
        let pool = Arc::new(FanoutPool::new(2));
        let p = Arc::clone(&pool);
        let t = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // The panicking task is queued, so it may run on a worker;
                // the caller must still unwind instead of hanging.
                p.run(vec![|| (), || panic!("boom")]);
            }));
        });
        let _ = t.join(); // the panicked helper thread must not poison the pool
        let out = pool.run(vec![|| 1, || 2]);
        assert_eq!(out, vec![1, 2]);
    }
}
