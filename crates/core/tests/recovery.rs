//! Failure recovery of the AUQ (§5.3 of the paper): drain-before-flush,
//! WAL-replay re-enqueue, and idempotent re-delivery — exercised against
//! real crashes of the cluster substrate.

use bytes::Bytes;
use diff_index_cluster::{Cluster, ClusterOptions};
use diff_index_core::{DiffIndex, IndexScheme, IndexSpec};
use diff_index_lsm::{LsmOptions, TableOptions};
use tempdir_lite::TempDir;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn small_lsm() -> LsmOptions {
    LsmOptions {
        memtable_flush_bytes: 16 * 1024,
        table: TableOptions { block_size: 512, bloom_bits_per_key: 10 },
        compaction_trigger: 4,
        version_retention: u64::MAX,
        ..LsmOptions::default()
    }
}

fn setup(scheme: IndexScheme, servers: usize) -> (TempDir, Cluster, DiffIndex) {
    let dir = TempDir::new("recovery").unwrap();
    let cluster =
        Cluster::new(dir.path(), ClusterOptions { num_servers: servers, lsm: small_lsm() })
            .unwrap();
    cluster.create_table("item", servers * 2).unwrap();
    let di = DiffIndex::new(cluster.clone());
    di.create_index(IndexSpec::single("title", "item", "item_title", scheme), servers * 2)
        .unwrap();
    (dir, cluster, di)
}

#[test]
fn drain_before_flush_leaves_no_dangling_tasks() {
    // The invariant PR(Flushed) = ∅: after a flush of the base table, every
    // AUQ task for flushed data has been delivered. We verify by flushing
    // and then checking the index WITHOUT quiescing.
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple, 1);
    for i in 0..50 {
        cluster
            .put("item", format!("item{i:02}").as_bytes(), &[(b("item_title"), b("flushme"))])
            .unwrap();
    }
    cluster.flush_table("item").unwrap(); // pre_flush hook pauses & drains AUQ
    let hits = di.get_by_index("item", "title", b"flushme", 100).unwrap();
    assert_eq!(hits.len(), 50, "drain-before-flush must have delivered everything");
    let handle = di.index("item", "title").unwrap();
    assert_eq!(handle.auq().depth(), 0);
}

#[test]
fn threshold_flush_under_write_pressure_also_drains() {
    // Memtable-threshold flushes (not just explicit ones) must run the same
    // pause-drain-resume protocol without deadlocking.
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple, 1);
    for i in 0..400 {
        cluster
            .put(
                "item",
                format!("item{i:03}").as_bytes(),
                &[(b("item_title"), Bytes::from(vec![b'x'; 128]))],
            )
            .unwrap();
    }
    let m = cluster.table_metrics("item").unwrap();
    assert!(m.flushes >= 1, "write pressure must have flushed");
    di.quiesce("item");
    let handle = di.index("item", "title").unwrap();
    let am = handle.auq().metrics();
    let hits = di.get_by_index("item", "title", &[b'x'; 128], 1000).unwrap();
    assert_eq!(
        hits.len(),
        400,
        "enqueued={} completed={} retries={} dropped={}",
        am.enqueued.load(std::sync::atomic::Ordering::Relaxed),
        am.completed.load(std::sync::atomic::Ordering::Relaxed),
        am.retries.load(std::sync::atomic::Ordering::Relaxed),
        am.dropped.load(std::sync::atomic::Ordering::Relaxed),
    );
}

#[test]
fn crash_with_undelivered_tasks_recovers_via_replay() {
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple, 2);
    // Write rows, let SOME index deliveries happen, then crash both the
    // data and the pending queue state on server 0.
    for i in 0..40 {
        cluster
            .put("item", format!("item{i:02}").as_bytes(), &[(b("item_title"), b("precrash"))])
            .unwrap();
    }
    // Do NOT quiesce: tasks may be pending. Crash server 0 (its memtables
    // vanish; WAL survives).
    cluster.crash_server(0);
    cluster.recover().unwrap();
    // Recovery re-enqueued every replayed base put; after quiesce the index
    // must be complete for all rows on both servers.
    di.quiesce("item");
    let hits = di.get_by_index("item", "title", b"precrash", 100).unwrap();
    assert_eq!(hits.len(), 40, "index must be complete after recovery + quiesce");
}

#[test]
fn redelivery_after_recovery_is_idempotent() {
    // Deliver everything, then crash and recover: replay re-enqueues tasks
    // that were ALREADY delivered. LSM same-timestamp semantics make the
    // re-delivery invisible.
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple, 2);
    for i in 0..20 {
        cluster
            .put("item", format!("item{i:02}").as_bytes(), &[(b("item_title"), b("idem"))])
            .unwrap();
    }
    di.quiesce("item"); // all delivered
    cluster.crash_server(0);
    cluster.recover().unwrap();
    di.quiesce("item"); // re-deliveries execute
    let hits = di.get_by_index("item", "title", b"idem", 100).unwrap();
    assert_eq!(hits.len(), 20, "re-delivery must not duplicate index entries");
}

#[test]
fn crash_after_flush_replays_nothing_and_index_intact() {
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple, 2);
    for i in 0..30 {
        cluster
            .put("item", format!("item{i:02}").as_bytes(), &[(b("item_title"), b("safe"))])
            .unwrap();
    }
    cluster.flush_table("item").unwrap(); // drains AUQ + rolls WAL forward
    di.quiesce("item");
    di.index("item", "title").unwrap(); // keep handle alive
    cluster.crash_server(0);
    cluster.crash_server(1);
    // All servers down; bring the cluster back by recovering after
    // resurrecting one... recover() needs a survivor, so crash only one in
    // this scenario instead:
    let dir2 = TempDir::new("recovery2").unwrap();
    drop(dir2);
    // Re-create over the same directory (full restart).
    // (Fresh cluster object; index tables reopen from disk.)
    // Note: this mirrors an HBase full-cluster restart where all state
    // comes from HDFS.
    drop(di);
    drop(cluster);
    let (_d2, cluster2, di2) = {
        let dir = _d;
        let cluster =
            Cluster::new(dir.path(), ClusterOptions { num_servers: 2, lsm: small_lsm() }).unwrap();
        cluster.create_table("item", 4).unwrap();
        let di = DiffIndex::new(cluster.clone());
        di.create_index(
            IndexSpec::single("title", "item", "item_title", IndexScheme::AsyncSimple),
            4,
        )
        .unwrap();
        (dir, cluster, di)
    };
    let hits = di2.get_by_index("item", "title", b"safe", 100).unwrap();
    assert_eq!(hits.len(), 30);
    drop(cluster2);
}

#[test]
fn sync_full_crash_recovery_preserves_causality() {
    let (_d, cluster, di) = setup(IndexScheme::SyncFull, 2);
    for i in 0..25 {
        cluster
            .put("item", format!("item{i:02}").as_bytes(), &[(b("item_title"), b("sync"))])
            .unwrap();
    }
    // Index was maintained synchronously; crash and recover must keep it.
    cluster.crash_server(0);
    cluster.recover().unwrap();
    di.quiesce("item");
    let hits = di.get_by_index("item", "title", b"sync", 100).unwrap();
    assert_eq!(hits.len(), 25);
}

#[test]
fn sync_insert_crash_recovery_with_read_repair() {
    let (_d, cluster, di) = setup(IndexScheme::SyncInsert, 2);
    for i in 0..10 {
        let row = format!("item{i}");
        cluster.put("item", row.as_bytes(), &[(b("item_title"), b("v1"))]).unwrap();
        cluster.put("item", row.as_bytes(), &[(b("item_title"), b("v2"))]).unwrap();
    }
    cluster.crash_server(0);
    cluster.recover().unwrap();
    di.quiesce("item");
    // v1 entries are stale; read-repair hides them even after recovery.
    assert!(di.get_by_index("item", "title", b"v1", 100).unwrap().is_empty());
    assert_eq!(di.get_by_index("item", "title", b"v2", 100).unwrap().len(), 10);
}

#[test]
fn writes_continue_after_recovery() {
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple, 2);
    cluster.put("item", b"before", &[(b("item_title"), b("old-world"))]).unwrap();
    cluster.crash_server(1);
    cluster.recover().unwrap();
    cluster.put("item", b"after", &[(b("item_title"), b("new-world"))]).unwrap();
    di.quiesce("item");
    assert_eq!(di.get_by_index("item", "title", b"old-world", 10).unwrap().len(), 1);
    assert_eq!(di.get_by_index("item", "title", b"new-world", 10).unwrap().len(), 1);
}

#[test]
fn repeated_crash_recover_cycles() {
    let (_d, cluster, di) = setup(IndexScheme::AsyncSimple, 3);
    let mut total = 0;
    for round in 0..3 {
        for i in 0..15 {
            cluster
                .put(
                    "item",
                    format!("r{round}-i{i:02}").as_bytes(),
                    &[(b("item_title"), b("multi"))],
                )
                .unwrap();
            total += 1;
        }
        cluster.crash_server(round as u32);
        cluster.recover().unwrap();
        cluster.restart_server(round as u32);
    }
    di.quiesce("item");
    let hits = di.get_by_index("item", "title", b"multi", 1000).unwrap();
    assert_eq!(hits.len(), total);
}

#[test]
fn double_replay_of_same_wal_segment_does_not_duplicate_entries() {
    // §5.3: recovery replays the WAL and re-enqueues index maintenance for
    // every replayed base op. Nothing is flushed between two consecutive
    // crash/recover cycles here, so the SAME WAL segment replays twice —
    // and because replayed maintenance reuses the base ops' original
    // timestamps, the second replay must not duplicate entries, resurrect
    // old entries (sync-full), or multiply stale entries (sync-insert).
    for scheme in [IndexScheme::SyncFull, IndexScheme::SyncInsert] {
        let (_d, cluster, di) = setup(scheme, 2);
        for i in 0..15 {
            cluster
                .put("item", format!("item{i:02}").as_bytes(), &[(b("item_title"), b("first"))])
                .unwrap();
        }
        // Overwrite ten rows: sync-full deletes the old entry at t−δ,
        // sync-insert leaves exactly one stale entry per overwritten row.
        for i in 0..10 {
            cluster
                .put("item", format!("item{i:02}").as_bytes(), &[(b("item_title"), b("second"))])
                .unwrap();
        }
        di.quiesce("item");
        let spec = std::sync::Arc::clone(&di.index("item", "title").unwrap().spec);
        let index_table = spec.index_table();
        let entries = |c: &Cluster| {
            c.scan_rows(&index_table, b"", None, u64::MAX, usize::MAX).unwrap().len()
        };
        let baseline = entries(&cluster);
        let expected = match scheme {
            IndexScheme::SyncFull => 15,      // old entries deleted
            IndexScheme::SyncInsert => 25,    // 15 live + 10 stale by design
            _ => unreachable!(),
        };
        assert_eq!(baseline, expected, "{scheme:?}: baseline entry count");

        // Two crash/recover cycles, alternating servers so the segment is
        // replayed again after moving back. Replayed maintenance runs the
        // full Algorithm-4 (BA3 may delete sync-insert's stale entries — a
        // legitimate repair), so the invariant is: the entry count never
        // GROWS past the baseline, and the 15 live entries never vanish.
        let mut prev = baseline;
        for sid in [0u32, 1] {
            cluster.crash_server(sid);
            cluster.recover().unwrap();
            cluster.restart_server(sid);
            di.quiesce("item");
            let now = entries(&cluster);
            assert!(
                now <= prev,
                "{scheme:?}: replay of server {sid} grew index {prev} -> {now} (duplicates)"
            );
            assert!(now >= 15, "{scheme:?}: replay of server {sid} lost live entries ({now})");
            prev = now;
        }

        // Read results stay exact.
        assert_eq!(di.get_by_index("item", "title", b"second", 100).unwrap().len(), 10);
        assert_eq!(di.get_by_index("item", "title", b"first", 100).unwrap().len(), 5);
        let report = diff_index_core::verify_index(&cluster, &spec).unwrap();
        assert_eq!(report.missing_count(), 0, "{scheme:?}: replay lost entries");
        match scheme {
            IndexScheme::SyncFull => assert!(report.is_clean(), "{:?}", report.divergences),
            IndexScheme::SyncInsert => assert!(
                report.stale_count() <= 10,
                "{scheme:?}: double replay multiplied stale entries ({})",
                report.stale_count()
            ),
            _ => unreachable!(),
        }
    }
}
