//! Minimal re-implementation of the `criterion` API surface used by this
//! workspace's benchmarks.
//!
//! The build environment has no access to crates.io (see shims/README.md).
//! This shim keeps the familiar `criterion_group!` / `criterion_main!` /
//! `benchmark_group` / `Bencher::iter` shape and prints a compact
//! mean / p50 / p99 summary per benchmark. There is no statistical
//! regression analysis, HTML report, or warm-up tuning — samples are taken
//! with an adaptive batch size targeting a fixed per-benchmark time budget.
//!
//! Extra over the real crate: `--json <path>` (or `CRITERION_JSON=<path>`)
//! appends one JSON object per benchmark to a file, for machine-readable
//! results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-sample batching hint, mirroring `criterion::BatchSize`.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small setup output; many routine calls per batch are fine.
    SmallInput,
    /// Large setup output; run the routine once per setup call.
    LargeInput,
    /// One routine call per setup call.
    PerIteration,
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    json_path: Option<String>,
    filter: Option<String>,
}


impl Criterion {
    /// Apply command-line configuration (`--json <path>`, and a positional
    /// substring filter like the real crate's). Unknown cargo-bench flags
    /// such as `--bench` are ignored.
    pub fn configure_from_args(mut self) -> Self {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => self.json_path = args.next(),
                "--bench" | "--profile-time" => {
                    // consumed flag (value, if any, handled below)
                }
                s if s.starts_with("--") => {}
                s => self.filter = Some(s.to_string()),
            }
        }
        if self.json_path.is_none() {
            self.json_path = std::env::var("CRITERION_JSON").ok();
        }
        self
    }

    /// Begin a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), sample_size: 100 }
    }

    /// Run a stand-alone benchmark (no group).
    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        self.run_one(&id, 100, f);
    }

    fn run_one(&mut self, id: &str, sample_size: usize, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher { samples: Vec::new(), sample_size };
        f(&mut bencher);
        let stats = Stats::from_samples(&bencher.samples);
        println!(
            "{:<48} time: [mean {} p50 {} p99 {}]  ({} samples)",
            id,
            fmt_ns(stats.mean_ns),
            fmt_ns(stats.p50_ns),
            fmt_ns(stats.p99_ns),
            stats.count,
        );
        if let Some(path) = &self.json_path {
            let line = format!(
                "{{\"name\":{:?},\"mean_ns\":{:.1},\"p50_ns\":{:.1},\"p99_ns\":{:.1},\"samples\":{}}}\n",
                id, stats.mean_ns, stats.p50_ns, stats.p99_ns, stats.count,
            );
            if let Ok(mut file) =
                std::fs::OpenOptions::new().create(true).append(true).open(path)
            {
                let _ = file.write_all(line.as_bytes());
            }
        }
    }

    /// Flush/finalize (no-op in the shim; kept for drop parity).
    pub fn final_summary(&mut self) {}
}

/// A named collection of related benchmarks, mirroring
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl<'a> BenchmarkGroup<'a> {
    /// Set the number of timed samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(10);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.name, id.into());
        let sample_size = self.sample_size;
        self.criterion.run_one(&full, sample_size, f);
    }

    /// End the group.
    pub fn finish(self) {}
}

/// Collected timing statistics for one benchmark.
struct Stats {
    mean_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    count: usize,
}

impl Stats {
    fn from_samples(samples: &[f64]) -> Stats {
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if sorted.is_empty() {
            return Stats { mean_ns: 0.0, p50_ns: 0.0, p99_ns: 0.0, count: 0 };
        }
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        Stats { mean_ns: mean, p50_ns: pct(0.5), p99_ns: pct(0.99), count: sorted.len() }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Timing driver handed to each benchmark closure, mirroring
/// `criterion::Bencher`.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

/// Total measurement budget per benchmark; keeps full `cargo bench` runs
/// tractable while still collecting `sample_size` samples for fast routines.
const TIME_BUDGET: Duration = Duration::from_secs(2);

impl Bencher {
    /// Time `routine`, collecting per-iteration wall-clock samples.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Calibrate: how many iterations fit in ~1/sample_size of the budget?
        let calib = Instant::now();
        black_box(routine());
        let once = calib.elapsed().max(Duration::from_nanos(1));
        let per_sample = TIME_BUDGET / self.sample_size.max(1) as u32;
        let iters = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let deadline = Instant::now() + TIME_BUDGET;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.samples.push(elapsed.as_nanos() as f64 / iters as f64);
            if Instant::now() > deadline {
                break;
            }
        }
    }

    /// Time `routine` over fresh inputs built by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let deadline = Instant::now() + TIME_BUDGET;
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed().as_nanos() as f64);
            if Instant::now() > deadline {
                break;
            }
        }
    }
}

/// Declare a group-runner function from benchmark functions, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declare `fn main` running the listed groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Stats::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
        assert_eq!(s.p50_ns, 51.0);
        assert_eq!(s.p99_ns, 99.0);
    }

    #[test]
    fn bench_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(10);
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 8], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
    }

    #[test]
    fn fmt_ns_scales() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
    }
}
