//! Benchmark of the Diff-Index stack: three closed-loop workloads on the
//! real `cluster` + `core` + `lsm` stack (one of them through `net` over
//! loopback), end-to-end metrics from untraced runs, per-layer metrics
//! from a traced run, and a correctness gate after every run. See
//! `README.md` next to this crate for what each workload is for.

pub mod host;
pub mod layers;
pub mod load;
pub mod stack;
pub mod stats;
pub mod trace;

use diff_index_core::IndexScheme;
use load::{LoadResult, Phase, Sample};
use stats::median;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 clients, 100 % updates, zipfian keys, sync-full index, in-process.
    UpdateSyncFull,
    /// 2 clients, 95 % index reads / 5 % updates, uniform keys,
    /// sync-insert index, base data twice the block cache, in-process.
    ReadIndexInsert,
    /// 1 client, 50 % updates / 50 % index reads, zipfian keys,
    /// async-simple index, through `net` over loopback.
    MixedAsyncWire,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::UpdateSyncFull,
        Workload::ReadIndexInsert,
        Workload::MixedAsyncWire,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::UpdateSyncFull => "update_sync_full",
            Workload::ReadIndexInsert => "read_index_insert",
            Workload::MixedAsyncWire => "mixed_async_wire",
        }
    }

    pub fn scheme(self) -> IndexScheme {
        match self {
            Workload::UpdateSyncFull => IndexScheme::SyncFull,
            Workload::ReadIndexInsert => IndexScheme::SyncInsert,
            Workload::MixedAsyncWire => IndexScheme::AsyncSimple,
        }
    }

    pub fn clients(self) -> usize {
        match self {
            Workload::MixedAsyncWire => 1,
            _ => 2,
        }
    }

    pub fn update_fraction(self) -> f64 {
        match self {
            Workload::UpdateSyncFull => 1.0,
            Workload::ReadIndexInsert => 0.05,
            Workload::MixedAsyncWire => 0.5,
        }
    }

    pub fn zipfian(self) -> bool {
        self != Workload::ReadIndexInsert
    }

    pub fn wire(self) -> bool {
        self == Workload::MixedAsyncWire
    }
}

/// The stated sizes of a workload.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Seeded `item` rows (≈ 1 KiB each).
    pub rows: u64,
    /// Distinct titles; rows / cardinality is the hits K of an exact read.
    pub title_cardinality: u64,
    /// Memtable flush threshold per region.
    pub memtable_flush_bytes: usize,
    /// Major compaction once a region holds this many SSTables.
    pub compaction_trigger: usize,
    /// Seeding is flushed this many times, leaving as many SSTables per
    /// region (fewer if the compaction trigger is reached).
    pub seed_tables: usize,
    /// Complete set-ups per untraced run; `setup_s` is their median, the
    /// first one carries the load.
    pub setups: usize,
    /// Untimed load after seeding, part of set-up.
    pub warmup: Duration,
    /// Pace of the staleness probe.
    pub probe_interval: Duration,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub fn standard(w: Workload) -> Sizes {
        let common = Sizes {
            rows: 10_000,
            title_cardinality: 1_000,
            memtable_flush_bytes: 512 * 1024,
            compaction_trigger: 4,
            seed_tables: 1,
            setups: 3,
            warmup: Duration::from_millis(500),
            // Under the sync schemes the probe's polls are `update_sync_full`'s
            // only reads; 2 ms gives ~2 000 of them per 2 s slice.
            probe_interval: Duration::from_millis(2),
        };
        match w {
            Workload::UpdateSyncFull => common,
            Workload::ReadIndexInsert => Sizes {
                rows: 60_000,
                title_cardinality: 6_000,
                memtable_flush_bytes: 8 * 1024 * 1024,
                compaction_trigger: 8,
                seed_tables: 4,
                ..common
            },
            Workload::MixedAsyncWire => Sizes {
                memtable_flush_bytes: 16 * 1024 * 1024,
                probe_interval: Duration::from_millis(20),
                ..common
            },
        }
    }

    /// Tiny sizes for the smoke test.
    pub fn tiny(w: Workload) -> Sizes {
        Sizes {
            rows: 400,
            title_cardinality: 40,
            memtable_flush_bytes: 16 * 1024,
            compaction_trigger: 4,
            seed_tables: if w == Workload::ReadIndexInsert { 3 } else { 1 },
            setups: 2,
            warmup: Duration::from_millis(50),
            probe_interval: Duration::from_millis(5),
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub sizes: Sizes,
    /// Delete one live index entry before the gate (gate self-test).
    pub corrupt_index: bool,
    /// Where data directories and span dumps go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Host, inputs and sample counts, as `(key, value)` pairs.
    pub record: Vec<(String, String)>,
    /// Every correctness breach found.
    pub breaches: Vec<String>,
    /// Human-readable notes (trace coverage and overhead).
    pub notes: Vec<String>,
}

/// Run one workload: set it up, load it for `seconds`, drain the AUQ and
/// run the correctness gate. An untraced run then sets up
/// `sizes.setups - 1` more times for the `setup_s` median.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let sizes = &cfg.sizes;
    let run_dir = cfg
        .out_dir
        .join(format!("data-{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {run_dir:?}: {e}"))?;
    let mut record: Vec<(String, String)> = host::record(&run_dir)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();

    // The stack that carries the load is built first, so the window runs
    // in a process that has set up exactly once; the further set-ups that
    // `setup_s` takes its median over run after the gate.
    let setup = |k: usize| -> Result<(stack::Stack, f64), String> {
        let t0 = Instant::now();
        let s = stack::build(
            w,
            sizes,
            cfg.seed,
            run_dir.join(format!("setup-{k}")),
            cfg.trace,
        )?;
        let warm = [Phase {
            secs: sizes.warmup.as_secs_f64(),
            traced: false,
        }];
        load::run(&s, w, sizes, cfg.seed, &warm, false, false);
        s.auq.wait_idle();
        Ok((s, t0.elapsed().as_secs_f64()))
    };
    let (stack, first_setup_s) = setup(0)?;
    let mut setup_s = vec![first_setup_s];
    record.push((
        "base_sstable_bytes".into(),
        stack::sstable_bytes(&run_dir.join("setup-0")).to_string(),
    ));

    // Traced windows run off, on, on, off: a drift in speed across the
    // window then weighs on both sides of `trace.overhead_pct` alike.
    let phases: Vec<Phase> = if cfg.trace {
        [false, true, true, false]
            .map(|traced| Phase {
                secs: cfg.seconds / 4.0,
                traced,
            })
            .to_vec()
    } else {
        vec![Phase {
            secs: cfg.seconds,
            traced: false,
        }]
    };
    let before = layers::Counters::snapshot(&stack)?;
    host::reset_peak_rss();
    let load = load::run(&stack, w, sizes, cfg.seed, &phases, true, cfg.trace);
    let peak_rss_mb = host::peak_rss_mb();
    let t0 = Instant::now();
    stack.auq.wait_idle();
    let drain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = layers::Counters::snapshot(&stack)?;

    let mut breaches = load.breaches.clone();
    if cfg.corrupt_index {
        stack::corrupt_index(&stack)?;
    }
    breaches.extend(stack::gate(&stack, cfg.seed, 16));

    let lsm = stack::lsm_options(sizes);
    record.extend(
        [
            ("workload", w.name().to_string()),
            ("seed", cfg.seed.to_string()),
            ("seconds", cfg.seconds.to_string()),
            ("trace", cfg.trace.to_string()),
            ("scheme", format!("{:?}", w.scheme())),
            ("servers", stack::SERVERS.to_string()),
            ("regions_per_table", stack::REGIONS.to_string()),
            ("client_threads", w.clients().to_string()),
            ("rows", sizes.rows.to_string()),
            ("title_cardinality", sizes.title_cardinality.to_string()),
            ("block_cache_bytes", stack::BLOCK_CACHE_BYTES.to_string()),
            ("wal_sync", lsm.wal_sync.to_string()),
            (
                "memtable_flush_bytes",
                sizes.memtable_flush_bytes.to_string(),
            ),
            ("compaction_trigger", sizes.compaction_trigger.to_string()),
            ("seed_tables", sizes.seed_tables.to_string()),
            ("update_samples", load.update_ns.len().to_string()),
            ("read_samples", load.read_ns.len().to_string()),
            ("staleness_samples", load.staleness_ns.len().to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v)),
    );

    let (metrics, notes) = if cfg.trace {
        let spans = trace::drain();
        let path = cfg.out_dir.join(format!("spans-{}.csv", w.name()));
        trace::write_csv(&path, &spans).map_err(|e| format!("write {path:?}: {e}"))?;
        let metrics = layers::compute(&stack, &spans, &before, &after, &load, drain_ms);
        let get = |n: &str| {
            metrics
                .iter()
                .find(|m| m.name == n)
                .map_or(0.0, |m| m.value)
        };
        let note = format!(
            "trace {}: {} spans; child spans cover {:.1}% of the root spans, root self time {:.1}%; trace.overhead_pct {:.2}",
            w.name(),
            spans.len(),
            get("trace.coverage_pct"),
            100.0 - get("trace.coverage_pct"),
            get("trace.overhead_pct"),
        );
        drop(stack);
        (metrics, vec![note])
    } else {
        drop(stack);
        for k in 1..sizes.setups.max(1) {
            setup_s.push(setup(k)?.1);
        }
        (
            end_to_end(&load, cfg.seconds, median(&setup_s), peak_rss_mb),
            Vec::new(),
        )
    };
    record.push(("setups".into(), setup_s.len().to_string()));
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(Outcome {
        correct: breaches.is_empty(),
        attempted: load.attempted,
        failed: load.failed,
        metrics,
        record,
        breaches,
        notes,
    })
}

/// Slices an end-to-end window is cut into.
const SLICES: usize = 10;

/// The end-to-end metrics of an untraced window. The window is cut into
/// [`SLICES`] equal slices; every metric is computed per slice and the
/// median over the slices is reported, so a disturbance confined to a few
/// slices does not move it. Sample counts in the record are totals over
/// the window.
fn end_to_end(load: &LoadResult, window_s: f64, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let len = window_s / SLICES as f64;
    let slice = |at: f64| (at / len) as usize;
    let sliced_p50_us = |samples: &[Sample]| -> f64 {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for &(at, ns) in samples {
            if let Some(v) = per.get_mut(slice(at)) {
                v.push(ns / 1e3);
            }
        }
        let medians: Vec<f64> = per
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect();
        median(&medians)
    };
    let mut ops = [0u64; SLICES];
    for &at in &load.client_starts {
        if let Some(c) = ops.get_mut(slice(at)) {
            *c += 1;
        }
    }
    let throughput: Vec<f64> = ops.iter().map(|&c| c as f64 / len).collect();
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    vec![
        m("setup_s", setup_s, "s"),
        m("throughput_ops_s", median(&throughput), "1/s"),
        m("update_p50_us", sliced_p50_us(&load.update_ns), "us"),
        m("read_p50_us", sliced_p50_us(&load.read_ns), "us"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}
