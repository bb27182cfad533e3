//! **Table 2 — I/O cost of Diff-Index schemes.**
//!
//! Reproduces the paper's Table 2 by *measuring*: for each scheme, run one
//! index update (a base put that changes an indexed column) and one index
//! read on the real cluster, snapshot the per-table engine counters around
//! each action, and print the observed `(Base Put, Base Read, Index Put,
//! Index Read)` counts next to the analytic table from
//! `diff_index_core::cost`. The binary exits non-zero on any mismatch.

#![forbid(unsafe_code)]

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions};
use diff_index_core::{read_cost, update_cost, DiffIndex, IndexScheme, IndexSpec};

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

struct Row {
    scheme: &'static str,
    action: &'static str,
    base_put: u64,
    base_read: u64,
    index_put: u64,
    index_read: u64,
    asynchronous: bool,
}

fn main() {
    let mut rows = Vec::new();
    let mut failures = 0;

    // no-index baseline.
    {
        let dir = tempdir_lite::TempDir::new("table2").unwrap();
        let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
        cluster.create_table("item", 2).unwrap();
        let m0 = cluster.table_metrics("item").unwrap();
        cluster.put("item", b"r", &[(b("item_title"), b("v"))]).unwrap();
        let d = cluster.table_metrics("item").unwrap() - m0;
        rows.push(Row {
            scheme: "no-index",
            action: "update",
            base_put: d.puts,
            base_read: d.gets,
            index_put: 0,
            index_read: 0,
            asynchronous: false,
        });
        let expect = update_cost(None);
        failures += check("no-index update", d.puts, d.gets, 0, 0, expect.base_put, expect.base_read, expect.index_put, expect.index_read);
    }

    for scheme in [IndexScheme::SyncFull, IndexScheme::SyncInsert, IndexScheme::AsyncSimple] {
        let dir = tempdir_lite::TempDir::new("table2").unwrap();
        let cluster = Cluster::new(dir.path(), ClusterOptions::default()).unwrap();
        cluster.create_table("item", 2).unwrap();
        let di = DiffIndex::new(cluster.clone());
        di.create_index(IndexSpec::single("title", "item", "item_title", scheme), 2).unwrap();
        let idx = di.index("item", "title").unwrap().spec.index_table();

        // Seed so the measured put is an UPDATE (old value exists).
        cluster.put("item", b"r", &[(b("item_title"), b("v1"))]).unwrap();
        di.quiesce("item");

        // --- update action ---------------------------------------------------
        let b0 = cluster.table_metrics("item").unwrap();
        let i0 = cluster.table_metrics(&idx).unwrap();
        cluster.put("item", b"r", &[(b("item_title"), b("v2"))]).unwrap();
        di.quiesce("item"); // let async work complete (counted as "[ ]")
        let db = cluster.table_metrics("item").unwrap() - b0;
        let di_ = cluster.table_metrics(&idx).unwrap() - i0;
        let expect = update_cost(Some(scheme));
        rows.push(Row {
            scheme: scheme.short_name(),
            action: "update",
            base_put: db.puts,
            base_read: db.gets,
            index_put: di_.puts + di_.deletes,
            index_read: di_.scans + di_.gets,
            asynchronous: expect.async_base_read > 0,
        });
        failures += check(
            &format!("{scheme} update"),
            db.puts,
            db.gets,
            di_.puts + di_.deletes,
            di_.scans + di_.gets,
            expect.base_put,
            expect.base_read,
            expect.index_put,
            expect.index_read,
        );

        // --- read action ------------------------------------------------------
        let b0 = cluster.table_metrics("item").unwrap();
        let i0 = cluster.table_metrics(&idx).unwrap();
        let hits = di.get_by_index("item", "title", b"v2", 100).unwrap();
        let k = hits.len() as u32;
        let db = cluster.table_metrics("item").unwrap() - b0;
        let di_ = cluster.table_metrics(&idx).unwrap() - i0;
        let expect = read_cost(scheme, k);
        rows.push(Row {
            scheme: scheme.short_name(),
            action: "read",
            base_put: db.puts,
            base_read: db.gets,
            index_put: di_.puts + di_.deletes,
            index_read: di_.scans + di_.gets,
            asynchronous: false,
        });
        // sync-insert deletes K index rows only when stale; the analytic
        // table counts the worst case, the measurement the actual (0 stale
        // here), so index_put is checked as <=.
        let actual_iput = di_.puts + di_.deletes;
        if db.puts != expect.base_put as u64
            || db.gets != expect.base_read as u64
            || actual_iput > expect.index_put as u64
            || di_.scans != expect.index_read as u64
        {
            eprintln!("MISMATCH {scheme} read: measured ({}, {}, {}, {}) vs Table 2 ({}, {}, ≤{}, {})",
                db.puts, db.gets, actual_iput, di_.scans,
                expect.base_put, expect.base_read, expect.index_put, expect.index_read);
            failures += 1;
        }
    }

    println!("# Table 2: I/O cost of Diff-Index schemes (measured on the real cluster)\n");
    println!(
        "{:<12} {:<8} {:>9} {:>10} {:>10} {:>11}",
        "Scheme", "Action", "Base Put", "Base Read", "Index Put", "Index Read"
    );
    for r in &rows {
        let wrap = |v: u64| {
            if r.asynchronous && r.action == "update" && v > 0 {
                format!("[{v}]")
            } else {
                v.to_string()
            }
        };
        println!(
            "{:<12} {:<8} {:>9} {:>10} {:>10} {:>11}",
            r.scheme,
            r.action,
            r.base_put,
            wrap(r.base_read),
            wrap(r.index_put),
            r.index_read
        );
    }
    println!("\n(\"[n]\" marks operations executed asynchronously by the AUQ, as in the paper.)");
    if failures == 0 {
        println!("\nAll measured counts match the analytic Table 2. ✓");
    } else {
        eprintln!("\n{failures} mismatches against the analytic Table 2");
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn check(
    label: &str,
    bp: u64,
    br: u64,
    ip: u64,
    ir: u64,
    ebp: u32,
    ebr: u32,
    eip: u32,
    eir: u32,
) -> u32 {
    if (bp, br, ip, ir) != (ebp as u64, ebr as u64, eip as u64, eir as u64) {
        eprintln!(
            "MISMATCH {label}: measured ({bp}, {br}, {ip}, {ir}) vs Table 2 ({ebp}, {ebr}, {eip}, {eir})"
        );
        1
    } else {
        0
    }
}
