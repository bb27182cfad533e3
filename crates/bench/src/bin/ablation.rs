//! **Ablation — the cost of the recovery protocol's design choices.**
//!
//! §5.3 claims: *"This draining-AUQ-before-flush approach will slightly
//! delay flush when the system is under a heavy write load. We show in
//! Section 8 that in practice, this delay is reasonable."* and argues the
//! simplicity of idempotent re-delivery "outweighs the potential excessive
//! (but semantically correct) index update".
//!
//! This binary measures both on the real stack:
//!
//! 1. **Flush delay vs AUQ depth** — wall-clock cost of `flush_table` with
//!    0 / 32 / 128 / 512 pending asynchronous index updates (the pre-flush
//!    hook pauses intake and drains them first).
//! 2. **Re-delivery overhead** — extra index-table operations caused by
//!    recovery re-enqueueing already-delivered work, which LSM semantics
//!    absorb with zero duplicate entries.

#![forbid(unsafe_code)]

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions};
use diff_index_core::{DiffIndex, IndexScheme, IndexSpec};
use std::time::Instant;
use tempdir_lite::TempDir;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn main() {
    println!("# Ablation 1: drain-AUQ-before-flush delay (paper §5.3)\n");
    println!("{:>12} {:>16} {:>18}", "AUQ depth", "flush wall time", "per pending task");
    for depth in [0usize, 32, 128, 512] {
        let dir = TempDir::new("ablation").unwrap();
        let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
        cluster.create_table("item", 2).unwrap();
        let di = DiffIndex::new(cluster.clone());
        let handle = di
            .create_index(IndexSpec::single("t", "item", "item_title", IndexScheme::AsyncSimple), 2)
            .unwrap();

        // Build up a backlog by pausing the APS's view: we enqueue faster
        // than it drains by writing a burst, then immediately flushing.
        for i in 0..depth {
            cluster
                .put("item", format!("r{i:04}").as_bytes(), &[(b("item_title"), b("v"))])
                .unwrap();
        }
        let queued = handle.auq().depth();
        let t0 = Instant::now();
        cluster.flush_table("item").unwrap(); // pre_flush: pause + drain
        let took = t0.elapsed();
        let per = if queued > 0 { took / queued as u32 } else { std::time::Duration::ZERO };
        println!("{:>12} {:>16?} {:>18?}", queued, took, per);
        assert_eq!(handle.auq().depth(), 0, "flush must leave the AUQ empty (PR(Flushed) = ∅)");
    }

    println!("\n# Ablation 2: idempotent re-delivery overhead (paper §5.3)\n");
    let dir = TempDir::new("ablation2").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: 2, ..Default::default() }).unwrap();
    cluster.create_table("item", 4).unwrap();
    let di = DiffIndex::new(cluster.clone());
    let handle = di
        .create_index(IndexSpec::single("t", "item", "item_title", IndexScheme::AsyncSimple), 4)
        .unwrap();
    const ROWS: usize = 200;
    for i in 0..ROWS {
        // Spread rows over the whole key space so every region holds some.
        let row = format!("{}row{i:04}", char::from((i * 37 % 250 + 1) as u8));
        cluster.put("item", row.as_bytes(), &[(b("item_title"), b("v"))]).unwrap();
    }
    di.quiesce("item"); // everything delivered once
    let idx = di.index("item", "t").unwrap().spec.index_table();
    let before = cluster.table_metrics(&idx).unwrap();
    let enq_before = handle.auq().metrics().enqueued.load(std::sync::atomic::Ordering::Relaxed);

    cluster.crash_server(0);
    cluster.recover().unwrap();
    di.quiesce("item"); // re-deliveries execute

    let after = cluster.table_metrics(&idx).unwrap();
    let enq_after = handle.auq().metrics().enqueued.load(std::sync::atomic::Ordering::Relaxed);
    let redelivered = enq_after - enq_before;
    let extra_index_puts = (after - before).puts;
    let entries = di.get_by_index("item", "t", b"v", 10_000).unwrap().len();
    println!("rows: {ROWS}");
    println!("index-update tasks re-enqueued by recovery: {redelivered}");
    println!("extra (idempotent) index puts executed:     {extra_index_puts}");
    println!("index entries after recovery:               {entries} (no duplicates)");
    assert_eq!(entries, ROWS);
    println!(
        "\nconclusion: re-delivery costs {} redundant index writes but zero duplicate\n\
         entries and zero extra logging machinery — the paper's trade (§5.3: the\n\
         simplicity \"outweighs the potential excessive (but semantically correct)\n\
         index update\").",
        extra_index_puts
    );
}
