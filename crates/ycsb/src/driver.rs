//! Closed-loop workload driver (YCSB's client model, §8.1 of the paper):
//! each of N client threads continuously submits a request and issues the
//! next one as soon as the previous completes.
//!
//! The driver runs against the *real* cluster + Diff-Index stack and
//! measures wall-clock latency. (The paper's latency-vs-throughput figures
//! are regenerated on the simulator, where hardware scale is configurable;
//! the driver exists to validate relative scheme cost on real I/O and to
//! drive the Criterion micro-benchmarks.)

use crate::generator::{KeyChooser, ScrambledZipfian, Uniform};
use crate::histogram::Histogram;
use crate::workload::{ItemWorkload, OpMix};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Driver parameters.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Concurrent client threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Update / read mix.
    pub mix: OpMix,
    /// Key space (item ids `0..key_space`).
    pub key_space: u64,
    /// Use a zipfian (true) or uniform (false) key distribution.
    pub zipfian: bool,
    /// RNG seed.
    pub seed: u64,
}

/// Aggregated driver results.
#[derive(Debug)]
pub struct DriverReport {
    /// Latency of update operations, µs.
    pub update_hist: Histogram,
    /// Latency of index-read operations, µs.
    pub read_hist: Histogram,
    /// Wall-clock duration of the run, µs.
    pub elapsed_us: u64,
    /// Completed operations.
    pub ops: u64,
}

impl DriverReport {
    /// Overall throughput in operations per second.
    pub fn tps(&self) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        self.ops as f64 / (self.elapsed_us as f64 / 1e6)
    }
}

/// The operations a driver knows how to issue; implemented for the real
/// Diff-Index stack (and mockable in tests).
pub trait Target: Send + Sync {
    /// Apply an update to item `row` with the given columns.
    fn update(&self, row: &Bytes, columns: &[(Bytes, Bytes)]);
    /// Exact-match index read; returns the hit count.
    fn read_index(&self, title: &Bytes) -> usize;
}

/// Run the closed loop and collect latency histograms.
pub fn run<T: Target>(target: &T, wl: &ItemWorkload, cfg: &DriverConfig) -> DriverReport {
    let version = Arc::new(AtomicU64::new(1));
    let start = Instant::now();
    let results: Vec<(Histogram, Histogram, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            let version = Arc::clone(&version);
            handles.push(scope.spawn(move || {
                let mut update_hist = Histogram::new();
                let mut read_hist = Histogram::new();
                let mut keys: Box<dyn KeyChooser> = if cfg.zipfian {
                    Box::new(ScrambledZipfian::new(cfg.key_space, cfg.seed ^ t as u64))
                } else {
                    Box::new(Uniform::new(cfg.key_space, cfg.seed ^ t as u64))
                };
                let mut ops = 0u64;
                let mut op_rng = cfg.seed.wrapping_mul(0x9E3779B97F4A7C15) ^ (t as u64) << 32;
                for _ in 0..cfg.ops_per_thread {
                    let id = keys.next_key();
                    // Cheap xorshift for the op-type coin.
                    op_rng ^= op_rng << 13;
                    op_rng ^= op_rng >> 7;
                    op_rng ^= op_rng << 17;
                    let is_update =
                        (op_rng as f64 / u64::MAX as f64) < cfg.mix.update_fraction;
                    if is_update {
                        let ver = version.fetch_add(1, Ordering::Relaxed);
                        let row = wl.row_key(id);
                        let cols = wl.updated_row(id, ver);
                        let t0 = Instant::now();
                        target.update(&row, &cols);
                        update_hist.record(t0.elapsed().as_micros() as u64);
                    } else {
                        let t0 = Instant::now();
                        let title = wl.title_of(id);
                        target.read_index(&title);
                        read_hist.record(t0.elapsed().as_micros() as u64);
                    }
                    ops += 1;
                }
                (update_hist, read_hist, ops)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("driver thread")).collect()
    });
    let elapsed_us = start.elapsed().as_micros() as u64;
    let mut update_hist = Histogram::new();
    let mut read_hist = Histogram::new();
    let mut ops = 0;
    for (u, r, n) in results {
        update_hist.merge(&u);
        read_hist.merge(&r);
        ops += n;
    }
    DriverReport { update_hist, read_hist, elapsed_us, ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    struct CountingTarget {
        updates: AtomicU64,
        reads: AtomicU64,
        rows_seen: Mutex<std::collections::HashSet<Bytes>>,
    }

    impl Target for CountingTarget {
        fn update(&self, row: &Bytes, _columns: &[(Bytes, Bytes)]) {
            self.updates.fetch_add(1, Ordering::Relaxed);
            self.rows_seen.lock().insert(row.clone());
        }
        fn read_index(&self, _title: &Bytes) -> usize {
            self.reads.fetch_add(1, Ordering::Relaxed);
            0
        }
    }

    #[test]
    fn driver_issues_the_requested_ops() {
        let target = CountingTarget {
            updates: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            rows_seen: Mutex::new(Default::default()),
        };
        let wl = ItemWorkload::new(100, 10_000, 1);
        let cfg = DriverConfig {
            threads: 4,
            ops_per_thread: 250,
            mix: OpMix { update_fraction: 0.5 },
            key_space: 1000,
            zipfian: true,
            seed: 9,
        };
        let report = run(&target, &wl, &cfg);
        assert_eq!(report.ops, 1000);
        let u = target.updates.load(Ordering::Relaxed);
        let r = target.reads.load(Ordering::Relaxed);
        assert_eq!(u + r, 1000);
        assert!(u > 300 && u < 700, "roughly half updates, got {u}");
        assert_eq!(report.update_hist.count() + report.read_hist.count(), 1000);
        assert!(report.tps() > 0.0);
        assert!(target.rows_seen.lock().len() > 10);
    }

    #[test]
    fn update_only_mix_never_reads() {
        let target = CountingTarget {
            updates: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            rows_seen: Mutex::new(Default::default()),
        };
        let wl = ItemWorkload::new(100, 10_000, 1);
        let cfg = DriverConfig {
            threads: 2,
            ops_per_thread: 100,
            mix: OpMix::update_only(),
            key_space: 100,
            zipfian: false,
            seed: 1,
        };
        let report = run(&target, &wl, &cfg);
        assert_eq!(target.reads.load(Ordering::Relaxed), 0);
        assert_eq!(report.update_hist.count(), 200);
    }
}
