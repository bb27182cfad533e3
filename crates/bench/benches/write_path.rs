//! Criterion micro-benchmark for the durable write path: what batching
//! buys when every commit must reach the disk (`wal_sync = true`). A
//! single put pays one WAL record + one fsync; `put_batch` pays one WAL
//! record + one fsync for the whole batch, so throughput should scale
//! nearly linearly with batch size until payload bytes dominate.
//!
//! The end-to-end benchmark (`perfbench/`) covers the multi-threaded
//! group-commit and indexed-put cases; this bench isolates the per-call
//! batching effect with criterion's statistics.
//!
//! `wal_append_sync` is the layer under both: one `WalWriter::append` plus
//! `sync` on a fresh segment, the cost of one group commit that carries a
//! single record.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use diff_index_cluster::{Cluster, ClusterOptions};
use diff_index_lsm::wal::WalWriter;
use diff_index_lsm::{Cell, LsmOptions};
use tempdir_lite::TempDir;

fn durable_cluster() -> (TempDir, Cluster) {
    let dir = TempDir::new("bench-write-path").unwrap();
    let lsm = LsmOptions {
        wal_sync: true,
        memtable_flush_bytes: 32 * 1024 * 1024,
        compaction_trigger: 0,
        ..LsmOptions::default()
    };
    let cluster = Cluster::new(dir.path(), ClusterOptions { num_servers: 1, lsm }).unwrap();
    cluster.create_table("t", 4).unwrap();
    (dir, cluster)
}

fn row(i: u64) -> Bytes {
    Bytes::from(format!("row{i:08}"))
}

fn bench_write_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("write_path_durable");
    group.sample_size(20);

    {
        let (_dir, cluster) = durable_cluster();
        let mut i = 0u64;
        group.bench_function("single_put", |b| {
            b.iter(|| {
                i += 1;
                cluster
                    .put("t", &row(i), &[(Bytes::from_static(b"c"), Bytes::from(format!("v{i}")))])
                    .unwrap();
            })
        });
    }

    for batch in [16usize, 64, 256] {
        let (_dir, cluster) = durable_cluster();
        // Per-iteration time covers the whole batch; divide by `batch` for
        // the per-row cost.
        let mut i = 0u64;
        group.bench_function(format!("batched_put_{batch}"), |b| {
            b.iter(|| {
                let rows: Vec<(Bytes, Vec<(Bytes, Bytes)>)> = (0..batch as u64)
                    .map(|k| {
                        (
                            row(i * batch as u64 + k),
                            vec![(Bytes::from_static(b"c"), Bytes::from(format!("v{i}")))],
                        )
                    })
                    .collect();
                i += 1;
                cluster.put_batch("t", &rows).unwrap();
            })
        });
    }

    group.finish();
}

fn bench_wal_append_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append_sync");
    group.sample_size(20);
    for (name, len) in [("64B", 64usize), ("1KiB", 1024)] {
        let dir = TempDir::new("bench-wal").unwrap();
        let mut wal = WalWriter::create(dir.path().join("wal.log"), false).unwrap();
        let value = Bytes::from(vec![b'v'; len]);
        let mut ts = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                ts += 1;
                wal.append(&[Cell::put(row(ts), ts, value.clone())]).unwrap();
                wal.sync().unwrap();
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_write_path, bench_wal_append_sync);
criterion_main!(benches);
