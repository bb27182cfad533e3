//! Per-layer metrics of a traced run: span statistics from the timing
//! wrappers plus counter deltas from the layers' public snapshots taken
//! around the window.

use crate::load::LoadResult;
use crate::stack::Stack;
use crate::stats::{median, percentile, ratio};
use crate::trace::{Kind, Span};
use crate::Metric;
use diff_index_cluster::DispatchSnapshot;
use diff_index_lsm::MetricsSnapshot;
use diff_index_net::OpCode;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// Public counters of every layer at one instant.
pub struct Counters {
    dispatch: DispatchSnapshot,
    base: MetricsSnapshot,
    index: MetricsSnapshot,
    auq: [u64; 6],
    /// Requests and bytes served by the loopback servers (wire only).
    net: (u64, u64),
}

const ENQUEUED: usize = 0;
const COMPLETED: usize = 1;
const RETRIES: usize = 2;
const DROPPED: usize = 3;
const LAG_SUM_MS: usize = 4;
const FANOUT_TASKS: usize = 5;

impl Counters {
    pub fn snapshot(stack: &Stack) -> Result<Counters, String> {
        let table = |t: &str| {
            stack
                .cluster
                .table_metrics(t)
                .map_err(|e| format!("metrics of {t}: {e}"))
        };
        let m = stack.auq.metrics();
        let net = stack.servers.as_ref().map_or((0, 0), |g| {
            g.metrics().iter().fold((0, 0), |(r, b), s| {
                (
                    r + s.total_requests(),
                    b + s.total_bytes_in() + s.total_bytes_out(),
                )
            })
        });
        Ok(Counters {
            dispatch: stack.cluster.dispatch_metrics(),
            base: table(crate::stack::BASE)?,
            index: table(&stack.spec.index_table())?,
            auq: [
                m.enqueued.load(Ordering::Relaxed),
                m.completed.load(Ordering::Relaxed),
                m.retries.load(Ordering::Relaxed),
                m.dropped.load(Ordering::Relaxed),
                m.lag_sum_ms.load(Ordering::Relaxed),
                m.fanout_tasks.load(Ordering::Relaxed),
            ],
            net,
        })
    }
}

/// Median server-side service time of `op` across the loopback servers
/// (per-server medians weighted by their request counts), µs.
fn server_p50_us(stack: &Stack, op: OpCode) -> f64 {
    let Some(group) = &stack.servers else {
        return 0.0;
    };
    let (mut weighted, mut n) = (0.0, 0u64);
    for snap in group.metrics() {
        if let Some(o) = snap.per_op.iter().find(|o| o.op == op) {
            weighted += o.p50_us as f64 * o.requests as f64;
            n += o.requests;
        }
    }
    ratio(weighted, n as f64)
}

fn us(ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|v| v / 1e3).collect()
}

/// Per-read totals of the spans under one `Read` root.
#[derive(Default)]
struct ReadAgg {
    self_ns: f64,
    scan_ns: f64,
    check_ns: f64,
    checks: u64,
    repairs: u64,
}

/// Every per-layer metric of one traced window.
pub fn compute(
    stack: &Stack,
    spans: &[Span],
    before: &Counters,
    after: &Counters,
    load: &LoadResult,
    drain_ms: f64,
) -> Vec<Metric> {
    let durs = |kind: Kind| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns as f64)
            .collect()
    };
    let puts_ns = durs(Kind::StorePut);
    let put_self_ns: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == Kind::StorePut)
        .map(|s| s.self_ns() as f64)
        .collect();
    let post_put_ns = durs(Kind::PostPut);
    let scan_ns = durs(Kind::StoreScan);
    let flush_ns = durs(Kind::Flush);

    let mut reads: HashMap<u64, ReadAgg> = spans
        .iter()
        .filter(|s| s.kind == Kind::Read)
        .map(|s| {
            (
                s.op,
                ReadAgg {
                    self_ns: s.self_ns() as f64,
                    ..ReadAgg::default()
                },
            )
        })
        .collect();
    for s in spans.iter().filter(|s| s.parent == Some(Kind::Read)) {
        if let Some(r) = reads.get_mut(&s.op) {
            match s.kind {
                Kind::StoreScan => r.scan_ns += s.dur_ns as f64,
                Kind::StoreGet => {
                    r.check_ns += s.dur_ns as f64;
                    r.checks += 1;
                }
                Kind::StoreRawDelete => r.repairs += 1,
                _ => {}
            }
        }
    }
    let reads: Vec<ReadAgg> = reads.into_values().collect();
    let per_read = |f: fn(&ReadAgg) -> f64| -> Vec<f64> { reads.iter().map(f).collect() };

    let (root_ns, root_child_ns) = spans
        .iter()
        .filter(|s| s.kind.is_root())
        .fold((0.0, 0.0), |(d, c), s| {
            (d + s.dur_ns as f64, c + s.child_ns as f64)
        });

    let d = after.dispatch - before.dispatch;
    let base = after.base - before.base;
    let index = after.index - before.index;
    let auq = |i: usize| (after.auq[i] - before.auq[i]) as f64;
    let ops = load.attempted as f64;
    let puts = d.puts as f64;
    let both = base + index;
    let mean_ops_s = |traced: bool| {
        let v: Vec<f64> = load
            .phase_ops_s
            .iter()
            .filter(|p| p.0 == traced)
            .map(|p| p.1)
            .collect();
        ratio(v.iter().sum(), v.len() as f64)
    };
    let (thr_off, thr_on) = (mean_ops_s(false), mean_ops_s(true));
    let put_client_us = median(&us(&puts_ns));
    let put_server_us = server_p50_us(stack, OpCode::Put);
    let scan_client_us = median(&us(&scan_ns));
    let scan_server_us = server_p50_us(stack, OpCode::ScanRowsPrefix);
    let wire = stack.servers.is_some();
    let staleness_us: Vec<f64> = load.staleness_ns.iter().map(|(_, ns)| ns / 1e3).collect();

    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    vec![
        m("cluster.put_us", put_client_us, "us"),
        m("cluster.put_p99_us", percentile(&us(&puts_ns), 99.0), "us"),
        m("cluster.put_self_us", median(&us(&put_self_ns)), "us"),
        m(
            "cluster.region_ops_per_op",
            ratio(d.total() as f64, ops),
            "count",
        ),
        m(
            "core.observers.post_put_us",
            median(&us(&post_put_ns)),
            "us",
        ),
        m(
            "core.observers.post_put_p99_us",
            percentile(&us(&post_put_ns), 99.0),
            "us",
        ),
        m(
            "core.observers.index_ops_per_put",
            ratio((d.raw_puts + d.raw_deletes + d.gets) as f64, puts),
            "count",
        ),
        m(
            "core.observers.fanout_tasks_per_put",
            ratio(auq(FANOUT_TASKS), puts),
            "count",
        ),
        m(
            "core.read.p99_us",
            percentile(&us(&durs(Kind::Read)), 99.0),
            "us",
        ),
        m(
            "core.read.self_us",
            median(&per_read(|r| r.self_ns / 1e3)),
            "us",
        ),
        m(
            "core.read.index_scan_us",
            median(&per_read(|r| r.scan_ns / 1e3)),
            "us",
        ),
        m(
            "core.read.base_check_us",
            median(&per_read(|r| r.check_ns / 1e3)),
            "us",
        ),
        m(
            "core.read.base_checks_per_read",
            ratio(
                reads.iter().map(|r| r.checks).sum::<u64>() as f64,
                reads.len() as f64,
            ),
            "count",
        ),
        m(
            "core.read.repairs_per_read",
            ratio(
                reads.iter().map(|r| r.repairs).sum::<u64>() as f64,
                reads.len() as f64,
            ),
            "count",
        ),
        m(
            "core.read.hits_per_read",
            ratio(load.hits as f64, load.reads as f64),
            "count",
        ),
        m(
            "core.auq.enqueued_per_put",
            ratio(auq(ENQUEUED), puts),
            "count",
        ),
        m("core.auq.retries", auq(RETRIES), "count"),
        m("core.auq.dropped", auq(DROPPED), "count"),
        m("core.auq.depth_max", load.depth_max as f64, "count"),
        m(
            "core.auq.mean_lag_ms",
            ratio(auq(LAG_SUM_MS), auq(COMPLETED)),
            "ms",
        ),
        m("core.auq.drain_ms", drain_ms, "ms"),
        m("core.auq.staleness_p50_us", median(&staleness_us), "us"),
        m(
            "core.auq.staleness_p99_us",
            percentile(&staleness_us, 99.0),
            "us",
        ),
        m(
            "net.put.client_us",
            if wire { put_client_us } else { 0.0 },
            "us",
        ),
        m("net.put.server_us", put_server_us, "us"),
        m(
            "net.put.wire_us",
            if wire {
                put_client_us - put_server_us
            } else {
                0.0
            },
            "us",
        ),
        m(
            "net.scan.client_us",
            if wire { scan_client_us } else { 0.0 },
            "us",
        ),
        m("net.scan.server_us", scan_server_us, "us"),
        m(
            "net.scan.wire_us",
            if wire {
                scan_client_us - scan_server_us
            } else {
                0.0
            },
            "us",
        ),
        m(
            "net.requests_per_op",
            ratio((after.net.0 - before.net.0) as f64, ops),
            "count",
        ),
        m(
            "net.bytes_per_op",
            ratio((after.net.1 - before.net.1) as f64, ops),
            "B",
        ),
        m(
            "lsm.base.fsyncs_per_put",
            ratio(base.wal_fsyncs as f64, puts),
            "count",
        ),
        m(
            "lsm.base.group_commit_size",
            base.mean_group_commit(),
            "count",
        ),
        m(
            "lsm.index.fsyncs_per_put",
            ratio(index.wal_fsyncs as f64, puts),
            "count",
        ),
        m("lsm.flushes", both.flushes as f64, "count"),
        m("lsm.compactions", both.compactions as f64, "count"),
        m("lsm.flush_ms", median(&flush_ns) / 1e6, "ms"),
        m(
            "lsm.write_amp",
            ratio(
                (both.bytes_flushed + both.bytes_compacted) as f64,
                both.bytes_flushed as f64,
            ),
            "ratio",
        ),
        m(
            "lsm.base.block_cache_hit_rate",
            ratio(
                base.block_cache_hits as f64,
                (base.block_cache_hits + base.block_cache_misses) as f64,
            ),
            "ratio",
        ),
        m(
            "lsm.base.tables_probed_per_get",
            ratio(base.tables_probed as f64, base.gets as f64),
            "count",
        ),
        m(
            "lsm.base.bloom_skip_rate",
            ratio(
                base.tables_skipped as f64,
                (base.tables_probed + base.tables_skipped) as f64,
            ),
            "ratio",
        ),
        m(
            "lsm.index.block_cache_hit_rate",
            ratio(
                index.block_cache_hits as f64,
                (index.block_cache_hits + index.block_cache_misses) as f64,
            ),
            "ratio",
        ),
        m(
            "trace.overhead_pct",
            100.0 * ratio(thr_off - thr_on, thr_off),
            "%",
        ),
        m(
            "trace.coverage_pct",
            100.0 * ratio(root_child_ns, root_ns),
            "%",
        ),
    ]
}
